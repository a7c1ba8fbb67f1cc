"""Shared oracles for the test suite.

The finite-difference helper is the independent gradient oracle used
throughout: it never touches the tape machinery it is checking.
"""

import numpy as np
import pytest


def central_difference(f, x, h=1e-6):
    """Central finite-difference gradient of a scalar function at ``x``.

    ``f`` must accept the (mutated-in-place) array and return a float.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat, gflat = x.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def rel_err(analytic, reference):
    """Largest absolute deviation, scaled by the reference magnitude.

    The scale is floored at 1e-4: central differences with h=1e-6 carry an
    absolute roundoff noise near 1e-10, so gradients far below the floor are
    effectively checked in absolute terms (to 1e-8) rather than relative.
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    denom = max(float(np.max(np.abs(reference))),
                float(np.max(np.abs(analytic))), 1e-4)
    return float(np.max(np.abs(analytic - reference))) / denom


@pytest.fixture
def on_grad_tapes():
    """``run(fn, *args)`` calls ``fn`` with every tape it asks for recording
    gradients, including the no-grad tapes of the inference paths.

    The oracle for the no-grad mode: the same forward pass, recorded node by
    node, must give bit-identical values.  ``run`` checks that the call did
    record nodes, so the comparison cannot pass vacuously.
    """
    from seqgan import autodiff as ad

    tapes = []

    class GradTape(ad.Tape):
        def __init__(self, grad=True):
            super().__init__(grad=True)
            tapes.append(self)

    def run(fn, *args, **kwargs):
        tapes.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ad, "Tape", GradTape)
            result = fn(*args, **kwargs)
        assert tapes and all(t.nodes for t in tapes)
        return result

    return run
