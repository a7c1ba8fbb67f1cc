"""Minimal reverse-mode automatic differentiation over dense float64 tensors.

A ``Tape`` records every operation in execution order; ``backward`` walks the
record once in reverse, accumulating vector-Jacobian products per node.  A
``Tape(grad=False)`` computes the same values without recording them.  Only
the operations the models and their losses need are provided, one per job
(``x @ W + b`` is ``matmul`` then ``add``); ``Tape.record`` takes a node
computed in plain numpy elsewhere (the models' LSTM unrolls, on the numpy
cell ``_lstm_cell_values``) with its own VJP.  Accumulation order is fixed
by tape order, so runs are bit-reproducible.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


class DomainError(ValueError):
    """Input outside the mathematical domain of the operation."""


class ParameterError(ValueError):
    """Invalid parameter of a dataset request (e.g. an infeasible holdout,
    see ``seqgan.data``)."""


class TapeError(RuntimeError):
    """Tape misuse: non-scalar backward root, double backward, tape mixing."""


class Node:
    __slots__ = ("parents", "vjp")

    def __init__(self, parents=(), vjp=None):
        self.parents = parents
        self.vjp = vjp  # callable(out_grad) -> tuple of parent grads


class Tensor:
    """A value plus its node index on a tape (``None`` on a no-grad tape)."""

    __slots__ = ("tape", "index", "data")

    def __init__(self, tape, index, data):
        self.tape = tape
        self.index = index
        self.data = data

    @property
    def grad(self):
        if not self.tape.grad:
            raise TapeError("a no-grad tape keeps no gradients")
        g = self.tape.gradients[self.index]
        if g is None and self.tape._consumed:
            # node never reached from the root: derivative is zero
            return np.zeros_like(self.data)
        return g

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    # operator sugar; full op set lives at module level
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, node={self.index})"


class Tape:
    """Ordered operation record plus per-node gradient accumulators.

    ``Tape(grad=False)`` is the inference mode: it records no nodes and no
    gradient slots (each op builds its VJP closure and ``_output`` drops
    it), and ``tensor`` binds arrays without copying them, so it is valid
    only while nothing mutates the bound arrays.

    Single-threaded per tape; independent tapes may be used concurrently.
    """

    def __init__(self, grad: bool = True):
        self.grad = grad
        self.nodes: list[Node] = []
        self.gradients: list = []
        self._consumed = False

    def tensor(self, value) -> Tensor:
        """A leaf holding ``value`` cast to float64: copied on a grad tape,
        bound as is (when already float64) on a no-grad tape."""
        if not self.grad:
            return Tensor(self, None, np.asarray(value, dtype=np.float64))
        return self._record(np.array(value, dtype=np.float64), (), None)

    def _record(self, value, parents, vjp) -> Tensor:
        self.nodes.append(Node(parents, vjp))
        self.gradients.append(None)
        return Tensor(self, len(self.nodes) - 1, value)

    def _output(self, value, parents, vjp) -> Tensor:
        """Every op's and ``record``'s result, the one no-grad rule: a node
        on a grad tape, the bare value (``vjp`` dropped) on a no-grad one."""
        return self._record(value, parents, vjp) if self.grad else Tensor(self, None, value)

    def record(self, value, parents, vjp) -> Tensor:
        """One node for a computation done outside the op set, in plain
        numpy: ``value`` computed from the ``parents`` (tensors of this
        tape), and ``vjp(g)`` returning one gradient per parent, each summed
        down here to its parent's shape.  On a no-grad tape only ``value`` is
        kept."""
        parents = [_wrap(self, t) for t in parents]
        shapes = [t.data.shape for t in parents]

        def summed_vjp(g):
            return tuple(_unbroadcast(pg, shape) for pg, shape in zip(vjp(g), shapes))

        return self._output(value, tuple(t.index for t in parents), summed_vjp)

    def reset_grads(self):
        """Clear accumulators so backward may run again."""
        if not self.grad:
            raise TapeError("a no-grad tape keeps no gradients")
        self.gradients = [None] * len(self.nodes)
        self._consumed = False


def _wrap(tape, x) -> Tensor:
    if isinstance(x, Tensor):
        if x.tape is not tape:
            raise TapeError("operands live on different tapes")
        return x
    return tape.tensor(x)


def _tape_of(*args):
    for a in args:
        if isinstance(a, Tensor):
            return a.tape
    raise TapeError("at least one operand must be a Tensor")


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------


def _mT(v):
    """Swap the last two axes (``v.T`` for a matrix)."""
    return v.swapaxes(-1, -2)


def _weight_grad(av, g, shape):
    """Gradient of the right operand of ``av @ W``: ``_mT(av) @ g`` summed
    down to W's ``shape``.  A rank-2 W under leading axes gets it as one 2-D
    product with the leading axes folded into rows, instead of one product
    per leading index and a sum over them; a stacked W keeps the per-index
    products."""
    if len(shape) == 2 and av.ndim > 2:
        return av.reshape(-1, av.shape[-1]).T @ g.reshape(-1, g.shape[-1])
    return _unbroadcast(_mT(av) @ g, shape)


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast."""
    tape = _tape_of(a, b)
    a, b = _wrap(tape, a), _wrap(tape, b)
    av, bv = a.data, b.data
    if av.ndim < 2 or bv.ndim < 2:
        raise ShapeError(f"matmul needs operands of rank >= 2, got {av.shape} @ {bv.shape}")
    if av.shape[-1] != bv.shape[-2]:
        raise ShapeError(f"matmul inner dims disagree: {av.shape} @ {bv.shape}")
    try:
        out = av @ bv
    except ValueError:
        raise ShapeError(f"matmul batch axes do not broadcast: {av.shape} @ {bv.shape}") \
            from None

    def vjp(g):
        return _unbroadcast(g @ _mT(bv), av.shape), _weight_grad(av, g, bv.shape)

    return tape._output(out, (a.index, b.index), vjp)


def add(a, b) -> Tensor:
    tape = _tape_of(a, b)
    a, b = _wrap(tape, a), _wrap(tape, b)
    av, bv = a.data, b.data
    out = av + bv

    def vjp(g):
        return _unbroadcast(g, av.shape), _unbroadcast(g, bv.shape)

    return tape._output(out, (a.index, b.index), vjp)


def sub(a, b) -> Tensor:
    tape = _tape_of(a, b)
    a, b = _wrap(tape, a), _wrap(tape, b)
    av, bv = a.data, b.data
    out = av - bv

    def vjp(g):
        return _unbroadcast(g, av.shape), _unbroadcast(-g, bv.shape)

    return tape._output(out, (a.index, b.index), vjp)


def mul(a, b) -> Tensor:
    tape = _tape_of(a, b)
    a, b = _wrap(tape, a), _wrap(tape, b)
    av, bv = a.data, b.data
    out = av * bv

    def vjp(g):
        return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

    return tape._output(out, (a.index, b.index), vjp)


def scale(x: Tensor, s: float) -> Tensor:
    """Multiply by a plain python scalar (not differentiated in ``s``)."""
    s = float(s)
    out = x.data * s

    def vjp(g):
        return (g * s,)

    return x.tape._output(out, (x.index,), vjp)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def vjp(g):
        return (g * (1.0 - out * out),)

    return x.tape._output(out, (x.index,), vjp)


def _sigmoid(v, out=None):
    # split by sign to avoid overflow in exp: 1 / (1 + e) for v >= 0 and
    # e / (1 + e) below, e = exp(-|v|), as one division
    e = np.exp(-np.abs(v))
    return np.divide(np.where(v >= 0.0, 1.0, e), 1.0 + e, out=out)


def sigmoid(x: Tensor) -> Tensor:
    out = _sigmoid(x.data)

    def vjp(g):
        return (g * out * (1.0 - out),)

    return x.tape._output(out, (x.index,), vjp)


def _lstm_cell_values(pv, cv, out=None):
    """An LSTM cell in plain numpy: pre-activations ``pv`` in column blocks
    i, f, o_1..o_k, g of width m, the previous cell ``cv``.  Returns ``c'``
    (... x n x m), the k output rows ``o_j*tanh(c')`` as ... x n x k x m,
    and what ``_lstm_cell_slopes`` needs: the arrays (c, sigmoids, g,
    tanh(c')).  ``out``, when given, holds the arrays to write c', the
    output rows, the sigmoids, g and tanh(c') into."""
    c_out, rows_out, sig_out, g_out, tanh_out = (None,) * 5 if out is None else out
    m = cv.shape[-1]
    k = pv.shape[-1] // m - 3
    sig = _sigmoid(pv[..., : (k + 2) * m], out=sig_out)
    i, f, o = sig[..., :m], sig[..., m : 2 * m], sig[..., 2 * m :]
    g = np.tanh(pv[..., (k + 2) * m :], out=g_out)
    c_new = np.add(f * cv, i * g, out=c_out)
    tanh_c = np.tanh(c_new, out=tanh_out)
    o_k = o.reshape(o.shape[:-1] + (k, m))
    return c_new, np.multiply(o_k, tanh_c[..., None, :], out=rows_out), (cv, sig, g, tanh_c)


def _lstm_cell_slopes(saved):
    """The factors of the cell's reverse that do not depend on the incoming
    gradients, from the ``saved`` arrays of ``_lstm_cell_values``: each
    activation derivative (sigma(1 - sigma), 1 - g^2, 1 - tanh^2(c')) times
    the operand it meets.  Returns (the factor of each pre-activation
    column, in the cell's column order; that of each output row's gradient
    on its way to c', joined as ... x km; f).  Elementwise, so an unroll may
    stack the ``saved`` arrays of all its steps and take the slopes of
    every step in one pass."""
    cv, sig, g, tanh_c = saved
    m = cv.shape[-1]
    k = sig.shape[-1] // m - 2
    d_sig = sig * (1.0 - sig)
    tanh_k = np.concatenate([tanh_c] * k, axis=-1)
    parts = [g * d_sig[..., :m], cv * d_sig[..., m : 2 * m], tanh_k * d_sig[..., 2 * m :],
             sig[..., :m] * (1.0 - g * g)]
    lead = tanh_c.shape[:-1]  # pv's and cv's leading axes, broadcast
    s_pre = np.concatenate([p if p.shape[:-1] == lead else np.broadcast_to(p, lead + p.shape[-1:])
                            for p in parts], axis=-1)
    s_c = sig[..., 2 * m :] * np.concatenate([1.0 - tanh_c * tanh_c] * k, axis=-1)
    return s_pre, s_c, sig[..., m : 2 * m]


def _lstm_cell_reverse(slopes, gc_new, gh, out=None):
    """The cell's reverse from its ``_lstm_cell_slopes``: from the gradients
    of ``c'`` and of the output rows, joined as ... x n x km, those of the
    pre-activations (written to ``out`` when given) and of the previous
    cell, on the broadcast leading axes (not yet summed down to the
    operands' shapes)."""
    s_pre, s_c, f = slopes
    m = f.shape[-1]
    to_c = gh * s_c
    gc = gc_new
    for j in range(s_c.shape[-1] // m):
        gc = gc + to_c[..., j * m : (j + 1) * m]
    return np.multiply(np.concatenate([gc, gc, gh, gc], axis=-1), s_pre, out=out), gc * f


def log(x: Tensor) -> Tensor:
    v = x.data
    if not np.all(v > 0):
        raise DomainError("log requires strictly positive input")
    out = np.log(v)

    def vjp(g):
        return (g / v,)

    return x.tape._output(out, (x.index,), vjp)


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)

    def vjp(g):
        return (g * out,)

    return x.tape._output(out, (x.index,), vjp)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis, max-subtracted for stability."""
    out = _softmax_values(x.data)

    def vjp(g):
        return (_softmax_grads(out, g),)

    return x.tape._output(out, (x.index,), vjp)


def _softmax_values(v, out=None):
    """The numpy body of ``softmax`` on a plain array (written to ``out``
    when given)."""
    z = v - v.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return np.divide(e, e.sum(axis=-1, keepdims=True), out=out)


def _softmax_grads(out, g):
    """Gradient of ``_softmax_values``'s input from its output ``out`` and
    the output's gradient ``g``."""
    dot = (g * out).sum(axis=-1, keepdims=True)
    return out * (g - dot)


def reduce_sum(x: Tensor, axis=None) -> Tensor:
    v = x.data
    _check_axis(v, axis)
    out = np.asarray(v.sum(axis=axis))

    def vjp(g):
        gx = np.empty_like(v)
        gx[...] = g if axis is None else np.expand_dims(g, axis)
        return (gx,)

    return x.tape._output(out, (x.index,), vjp)


def reduce_mean(x: Tensor, axis=None) -> Tensor:
    v = x.data
    _check_axis(v, axis)
    n = v.size if axis is None else v.shape[axis]
    out = np.asarray(v.mean(axis=axis))

    def vjp(g):
        gx = np.empty_like(v)
        gx[...] = (g if axis is None else np.expand_dims(g, axis)) / n
        return (gx,)

    return x.tape._output(out, (x.index,), vjp)


def reduce_max(x: Tensor, axis=None) -> Tensor:
    """Max reduction; gradient routes to the argmax, ties broken toward the
    lowest index (np.argmax first-occurrence behaviour)."""
    v = x.data
    _check_axis(v, axis)
    out = np.asarray(v.max(axis=axis))

    def vjp(g):
        gx = np.zeros_like(v)
        if axis is None:
            gx.reshape(-1)[np.argmax(v)] = np.asarray(g).reshape(-1)[0]
        else:
            np.put_along_axis(gx, np.expand_dims(np.argmax(v, axis=axis), axis),
                              np.expand_dims(np.asarray(g), axis), axis=axis)
        return (gx,)

    return x.tape._output(out, (x.index,), vjp)


def _check_axis(v, axis):
    if axis is not None and not (-v.ndim <= axis < v.ndim):
        raise ShapeError(f"axis {axis} invalid for shape {v.shape}")


# ---------------------------------------------------------------------------
# structural plumbing
# ---------------------------------------------------------------------------


def reshape(x: Tensor, shape) -> Tensor:
    v = x.data
    out = v.reshape(shape)

    def vjp(g):
        return (g.reshape(v.shape),)

    return x.tape._output(out, (x.index,), vjp)


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes."""
    out = _mT(x.data).copy()

    def vjp(g):
        return (_mT(g).copy(),)

    return x.tape._output(out, (x.index,), vjp)


def concat(tensors, axis=0) -> Tensor:
    """Join along ``axis``; the VJP hands each part a basic-slice view of the
    output gradient (see ``backward`` for why views are safe)."""
    tape = _tape_of(*tensors)
    tensors = [_wrap(tape, t) for t in tensors]
    vals = [t.data for t in tensors]
    out = np.concatenate(vals, axis=axis)
    index = [slice(None)] * out.ndim
    parts, start = [], 0
    for v in vals:
        index[axis] = slice(start, start + v.shape[axis])
        parts.append(tuple(index))
        start += v.shape[axis]

    def vjp(g):
        return tuple(g[part] for part in parts)

    return tape._output(out, tuple(t.index for t in tensors), vjp)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along ``axis``."""
    v = x.data
    _check_axis(v, axis)
    idx = [slice(None)] * v.ndim
    idx[axis] = slice(start, start + length)
    out = v[tuple(idx)].copy()

    def vjp(g):
        gx = np.zeros_like(v)
        gx[tuple(idx)] = g
        return (gx,)

    return x.tape._output(out, (x.index,), vjp)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes where unclipped, zero where clipped."""
    v = x.data
    out = np.clip(v, lo, hi)

    def vjp(g):
        return (g * ((v > lo) & (v < hi)).astype(np.float64),)

    return x.tape._output(out, (x.index,), vjp)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def backward(tape: Tape, root: Tensor):
    """Accumulate d(root)/d(node) for every node at or before ``root``.

    Root must be scalar (size 1).  A second backward on the same tape without
    ``reset_grads`` is an error: accumulators would double-count.

    A VJP may return views of its output gradient (``concat`` returns basic
    slices of it), so one array can back several nodes' gradients.  That is
    safe because nothing here writes into a gradient in place: accumulation
    always builds a fresh array.  Callers must not mutate ``Tensor.grad``
    arrays in place either.
    """
    if not tape.grad:
        raise TapeError("backward needs a grad tape; this one records no nodes")
    if root.tape is not tape:
        raise TapeError("root does not belong to this tape")
    if root.data.size != 1:
        raise TapeError(f"backward root must be scalar, got shape {root.data.shape}")
    if tape._consumed:
        raise TapeError("backward already ran on this tape; call reset_grads first")
    tape._consumed = True

    grads = tape.gradients
    grads[root.index] = np.ones_like(root.data)
    for i in range(root.index, -1, -1):
        g = grads[i]
        node = tape.nodes[i]
        if g is None or node.vjp is None:
            continue
        parent_grads = node.vjp(g)
        for p, pg in zip(node.parents, parent_grads):
            # accumulation always builds a fresh array, so aliasing pg is safe
            grads[p] = pg if grads[p] is None else grads[p] + pg
