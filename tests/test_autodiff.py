import inspect

import numpy as np
import pytest

from seqgan import autodiff as ad
from conftest import central_difference, rel_err
from helpers import composed_lstm_cell, st_onehot


def grad_of(build, x0):
    """Tape gradient of ``build(tensor) -> scalar tensor`` at ``x0``."""
    tape = ad.Tape()
    x = tape.tensor(x0)
    root = build(x)
    ad.backward(tape, root)
    return x.grad


def fd_of(build, x0, h=1e-6):
    def f(arr):
        tape = ad.Tape()
        x = tape.tensor(arr)
        return build(x).item()

    return central_difference(f, np.array(x0, dtype=np.float64), h=h)


class TestMatmul:
    def test_identity(self):
        tape = ad.Tape()
        out = ad.matmul(tape.tensor(np.eye(2)), tape.tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, np.eye(2))

    def test_hand_arithmetic(self):
        tape = ad.Tape()
        out = ad.matmul(tape.tensor([[1.0, 2.0], [3.0, 4.0]]),
                        tape.tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_shape_mismatch(self):
        tape = ad.Tape()
        with pytest.raises(ad.ShapeError):
            ad.matmul(tape.tensor(np.zeros((2, 3))), tape.tensor(np.zeros((2, 3))))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        a0 = rng.uniform(-2, 2, (3, 4))
        b0 = rng.uniform(-2, 2, (4, 2))

        def loss(a, b):
            tape = ad.Tape()
            ta, tb = tape.tensor(a), tape.tensor(b)
            out = ad.reduce_sum(ad.tanh(ad.matmul(ta, tb)))
            return tape, ta, tb, out

        tape, ta, tb, out = loss(a0, b0)
        ad.backward(tape, out)
        fd_a = central_difference(lambda a: loss(a, b0)[3].item(), a0.copy())
        fd_b = central_difference(lambda b: loss(a0, b)[3].item(), b0.copy())
        assert rel_err(ta.grad, fd_a) < 1e-6
        assert rel_err(tb.grad, fd_b) < 1e-6


class TestElementwise:
    def test_sigmoid_at_zero(self):
        tape = ad.Tape()
        assert ad.sigmoid(tape.tensor(0.0)).item() == 0.5

    def test_tanh_at_zero(self):
        tape = ad.Tape()
        assert ad.tanh(tape.tensor(0.0)).item() == 0.0

    def test_log_gradient_at_two(self):
        g = grad_of(lambda x: ad.log(x), np.array(2.0))
        fd = fd_of(lambda x: ad.log(x), np.array(2.0))
        assert abs(g - 0.5) < 1e-12
        assert rel_err(g, fd) < 1e-6

    def test_log_domain(self):
        tape = ad.Tape()
        with pytest.raises(ad.DomainError):
            ad.log(tape.tensor([-1.0, 2.0]))
        with pytest.raises(ad.DomainError):
            ad.log(tape.tensor(0.0))

    @pytest.mark.parametrize("op", [ad.tanh, ad.sigmoid, ad.exp])
    def test_unary_gradients(self, op):
        rng = np.random.default_rng(7)
        x0 = rng.uniform(-2, 2, (3, 2))
        build = lambda x: ad.reduce_sum(op(x))
        assert rel_err(grad_of(build, x0), fd_of(build, x0)) < 1e-4

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul])
    def test_binary_gradients(self, op):
        rng = np.random.default_rng(8)
        a0 = rng.uniform(-2, 2, (2, 3))
        b0 = rng.uniform(-2, 2, (2, 3))

        def run(a, b):
            tape = ad.Tape()
            ta, tb = tape.tensor(a), tape.tensor(b)
            out = ad.reduce_sum(ad.sigmoid(op(ta, tb)))
            return tape, ta, tb, out

        tape, ta, tb, out = run(a0, b0)
        ad.backward(tape, out)
        fd_a = central_difference(lambda a: run(a, b0)[3].item(), a0.copy())
        fd_b = central_difference(lambda b: run(a0, b)[3].item(), b0.copy())
        assert rel_err(ta.grad, fd_a) < 1e-4
        assert rel_err(tb.grad, fd_b) < 1e-4

    def test_scalar_broadcast(self):
        tape = ad.Tape()
        out = ad.add(tape.tensor([[1.0, 2.0]]), tape.tensor(1.0))
        np.testing.assert_array_equal(out.data, [[2.0, 3.0]])

    def test_scale_gradient(self):
        build = lambda x: ad.reduce_sum(ad.scale(x, -2.5))
        x0 = np.array([1.0, 4.0])
        np.testing.assert_allclose(grad_of(build, x0), [-2.5, -2.5])


class TestSoftmax:
    def test_uniform(self):
        tape = ad.Tape()
        out = ad.softmax(tape.tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_no_overflow(self):
        tape = ad.Tape()
        out = ad.softmax(tape.tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-300)

    def test_low_temperature_limit(self):
        # brute-force evaluation of exp((x - max)/tau) / sum at tau = 0.01;
        # the tempered softmax is softmax(scale(x, 1 / tau))
        x = np.array([1.0, 2.0, 3.0])
        z = (x - x.max()) / 0.01
        expected = np.exp(z) / np.exp(z).sum()
        tape = ad.Tape()
        out = ad.softmax(ad.scale(tape.tensor(x), 1 / 0.01))
        np.testing.assert_allclose(out.data, expected, atol=0)
        np.testing.assert_allclose(out.data, [0.0, 0.0, 1.0], atol=1e-12)

    def test_rows_on_simplex(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(-50, 50, (4, 6))
            tape = ad.Tape()
            out = ad.softmax(ad.scale(tape.tensor(x), 1 / rng.uniform(0.1, 3.0))).data
            np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)
            assert np.all(out >= 0) and np.all(out <= 1)

    def test_gradient(self):
        rng = np.random.default_rng(4)
        x0 = rng.uniform(-2, 2, (2, 5))
        w = rng.uniform(-1, 1, (2, 5))
        build = lambda x: ad.reduce_sum(ad.mul(ad.softmax(ad.scale(x, 1 / 0.7)), w))
        assert rel_err(grad_of(build, x0), fd_of(build, x0)) < 1e-4


class TestReduce:
    def test_sum(self):
        tape = ad.Tape()
        assert ad.reduce_sum(tape.tensor([1.0, 2.0, 3.0])).item() == 6.0

    def test_maxpool_tie_routes_to_lowest_index(self):
        g = grad_of(lambda x: ad.reduce_max(x), np.array([3.0, 1.0, 3.0]))
        np.testing.assert_array_equal(g, [1.0, 0.0, 0.0])

    def test_maxpool_axis_gradient(self):
        x0 = np.array([[1.0, 5.0], [7.0, 2.0]])
        g = grad_of(lambda x: ad.reduce_sum(ad.reduce_max(x, axis=1)), x0)
        np.testing.assert_array_equal(g, [[0.0, 1.0], [1.0, 0.0]])

    def test_mean_gradient_vs_fd(self):
        x0 = np.random.default_rng(5).uniform(-2, 2, (3, 4))
        build = lambda x: ad.reduce_mean(x)
        g = grad_of(build, x0)
        np.testing.assert_allclose(g, np.full_like(x0, 1.0 / x0.size))
        assert rel_err(g, fd_of(build, x0)) < 1e-4

    def test_invalid_axis(self):
        tape = ad.Tape()
        with pytest.raises(ad.ShapeError):
            ad.reduce_sum(tape.tensor([1.0]), axis=3)


class TestPlumbingOps:
    def test_get_row_gradient(self):
        # a row lookup (``embed_token``'s) is ``narrow`` on the row axis
        x0 = np.arange(6.0).reshape(3, 2)
        g = grad_of(lambda x: ad.reduce_sum(ad.narrow(x, -2, 1, 1)), x0)
        np.testing.assert_array_equal(g, [[0, 0], [1, 1], [0, 0]])

    def test_concat_narrow_roundtrip(self):
        tape = ad.Tape()
        a = tape.tensor([[1.0, 2.0]])
        b = tape.tensor([[3.0]])
        c = ad.concat([a, b], axis=1)
        np.testing.assert_array_equal(c.data, [[1.0, 2.0, 3.0]])
        back = ad.narrow(c, 1, 0, 2)
        np.testing.assert_array_equal(back.data, a.data)

    def test_concat_gradient_vs_fd(self):
        rng = np.random.default_rng(11)
        a0, b0 = rng.uniform(-2, 2, (1, 3)), rng.uniform(-2, 2, (1, 2))

        def run(a, b):
            tape = ad.Tape()
            ta, tb = tape.tensor(a), tape.tensor(b)
            out = ad.reduce_sum(ad.tanh(ad.concat([ta, tb], axis=1)))
            return tape, ta, tb, out

        tape, ta, tb, out = run(a0, b0)
        ad.backward(tape, out)
        assert rel_err(ta.grad, central_difference(
            lambda a: run(a, b0)[3].item(), a0.copy())) < 1e-4
        assert rel_err(tb.grad, central_difference(
            lambda b: run(a0, b)[3].item(), b0.copy())) < 1e-4

    def test_st_onehot_forward_and_identity_backward(self):
        tape = ad.Tape()
        x = tape.tensor([[0.1, 0.7, 0.2]])
        o = st_onehot(x)
        np.testing.assert_array_equal(o.data, [[0.0, 1.0, 0.0]])
        w = tape.tensor([[2.0, 3.0, 5.0]])
        root = ad.reduce_sum(ad.mul(o, w))
        ad.backward(tape, root)
        np.testing.assert_array_equal(x.grad, w.data)

    def test_clip_gradient_mask(self):
        x0 = np.array([0.5, 2.0, -3.0])
        g = grad_of(lambda x: ad.reduce_sum(ad.clip(x, -1.0, 1.0)), x0)
        np.testing.assert_array_equal(g, [1.0, 0.0, 0.0])


class TestFusedOps:
    @pytest.mark.parametrize("rows", [1, 3])
    def test_affine_gradient_vs_fd(self, rows):
        rng = np.random.default_rng(31)
        x0, W0, b0 = (rng.uniform(-2, 2, (rows, 4)), rng.uniform(-1, 1, (4, 3)),
                      rng.uniform(-1, 1, (1, 3)))
        w = rng.uniform(-1, 1, (rows, 3))

        def run(x, W, b):
            tape = ad.Tape()
            tx, tW, tb = tape.tensor(x), tape.tensor(W), tape.tensor(b)
            out = ad.reduce_sum(ad.mul(ad.tanh(ad.matmul(tx, tW) + tb), w))
            return tape, (tx, tW, tb), out

        tape, leaves, out = run(x0, W0, b0)
        ad.backward(tape, out)
        args = [x0, W0, b0]
        for k, leaf in enumerate(leaves):
            def f(a, k=k):
                return run(*[a if j == k else v for j, v in enumerate(args)])[2].item()

            assert rel_err(leaf.grad, central_difference(f, args[k].copy())) < 1e-6

    # the numpy LSTM cell (``_lstm_cell_values``, and ``_lstm_cell_reverse``
    # of its ``_lstm_cell_slopes``), k output gates over n rows;
    # ``composed_lstm_cell`` is its tape oracle
    @staticmethod
    def cell_loss(pre, c, wc, wh):
        """sum(c' * wc) + sum(h * wh) of the numpy cell, h joined as n x km."""
        c_new, h, _ = ad._lstm_cell_values(pre, c)
        return float((c_new * wc).sum() + (h.reshape(wh.shape) * wh).sum())

    @pytest.mark.parametrize("k,rows", [(1, 1), (2, 1), (1, 3), (2, 3), (3, 2)])
    def test_lstm_cell_gradient_vs_fd(self, k, rows):
        rng = np.random.default_rng(33 + k + rows)
        m = 3
        pre0, c0 = rng.uniform(-2, 2, (rows, (k + 3) * m)), rng.uniform(-2, 2, (rows, m))
        wc, wh = rng.uniform(-1, 1, (rows, m)), rng.uniform(-1, 1, (rows, k * m))
        saved = ad._lstm_cell_values(pre0, c0)[2]
        gpre, gc = ad._lstm_cell_reverse(ad._lstm_cell_slopes(saved), wc, wh)
        assert rel_err(gpre, central_difference(
            lambda a: self.cell_loss(a, c0, wc, wh), pre0.copy())) < 1e-6
        assert rel_err(gc, central_difference(
            lambda a: self.cell_loss(pre0, a, wc, wh), c0.copy())) < 1e-6

    @pytest.mark.parametrize("k,rows", [(1, 1), (2, 1), (1, 4), (2, 4), (3, 2)])
    def test_lstm_cell_values_equalcomposed_lstm_cell(self, k, rows):
        rng = np.random.default_rng(40 + k + rows)
        m = 5
        pre = rng.normal(scale=4.0, size=(rows, (k + 3) * m))
        pre[0, :4] = [-800.0, 800.0, 0.0, -0.0]  # both sigmoid branches, saturation
        c = rng.normal(size=(rows, m))
        c_new, h, _ = ad._lstm_cell_values(pre, c)
        assert c_new.shape == (rows, m) and h.shape == (rows, k, m)
        fused = np.concatenate([c_new, h.reshape(rows, k * m)], axis=1)
        for grad in (True, False):
            tape = ad.Tape(grad=grad)
            assert np.array_equal(fused, composed_lstm_cell(tape.tensor(pre), tape.tensor(c),
                                                            k).data)

    def test_lstm_cell_gradient_matchescomposed_lstm_cell(self):
        rng = np.random.default_rng(41)
        m = 3
        for k in (1, 2, 3):
            pre0, c0 = rng.normal(size=(2, (k + 3) * m)), rng.normal(size=(2, m))
            w = rng.normal(size=(2, (k + 1) * m))
            tape = ad.Tape()
            tp, tc = tape.tensor(pre0), tape.tensor(c0)
            ad.backward(tape, ad.reduce_sum(ad.mul(composed_lstm_cell(tp, tc, k), w)))
            saved = ad._lstm_cell_values(pre0, c0)[2]
            gpre, gc = ad._lstm_cell_reverse(ad._lstm_cell_slopes(saved), w[:, :m], w[:, m:])
            # the composed cell sums its gradients in another order
            np.testing.assert_allclose(gpre, tp.grad, rtol=0, atol=1e-14)
            np.testing.assert_allclose(gc, tc.grad, rtol=0, atol=1e-14)

    def test_concat_gradients_are_views_of_one_array(self):
        tape = ad.Tape()
        a, b = tape.tensor(np.ones((1, 2))), tape.tensor(np.ones((1, 3)))
        w = tape.tensor(np.arange(5.0).reshape(1, 5))
        ad.backward(tape, ad.reduce_sum(ad.mul(ad.concat([a, b], axis=1), w)))
        np.testing.assert_array_equal(a.grad, [[0.0, 1.0]])
        np.testing.assert_array_equal(b.grad, [[2.0, 3.0, 4.0]])
        assert a.grad.base is not None and a.grad.base is b.grad.base

    @pytest.mark.parametrize("op", [ad.reduce_sum, ad.reduce_mean])
    @pytest.mark.parametrize("axis", [None, 0, 1, -1])
    def test_reduce_gradients_fill_a_fresh_array(self, op, axis):
        x0 = np.random.default_rng(42).uniform(-2, 2, (3, 4))
        w = np.random.default_rng(43).uniform(-1, 1, op(ad.Tape().tensor(x0), axis).shape)
        build = lambda x: ad.reduce_sum(ad.mul(op(x, axis), w))
        g = grad_of(build, x0)
        assert g.shape == x0.shape and g.flags.writeable and g.flags.owndata
        assert rel_err(g, fd_of(build, x0)) < 1e-6


class TestBackwardContract:
    def test_root_is_leaf(self):
        tape = ad.Tape()
        x = tape.tensor(3.0)
        ad.backward(tape, x)
        assert x.grad == 1.0

    def test_constant_wrt_leaf(self):
        tape = ad.Tape()
        x = tape.tensor(3.0)
        c = tape.tensor(5.0)
        root = ad.mul(c, c)
        ad.backward(tape, root)
        assert x.grad == 0.0  # root is constant w.r.t. x

    def test_non_scalar_root_rejected(self):
        tape = ad.Tape()
        x = tape.tensor([1.0, 2.0])
        with pytest.raises(ad.TapeError):
            ad.backward(tape, x)

    def test_double_backward_rejected(self):
        tape = ad.Tape()
        x = tape.tensor(2.0)
        root = ad.mul(x, x)
        ad.backward(tape, root)
        with pytest.raises(ad.TapeError):
            ad.backward(tape, root)
        tape.reset_grads()
        ad.backward(tape, root)  # fine after reset
        assert x.grad == 4.0

    def test_tape_mixing_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        with pytest.raises(ad.TapeError):
            ad.add(t1.tensor(1.0), t2.tensor(1.0))

    def test_linearity_of_backward(self):
        rng = np.random.default_rng(12)
        x0 = rng.uniform(-2, 2, (3,))

        def roots(tape, x):
            r1 = ad.reduce_sum(ad.tanh(x))
            r2 = ad.reduce_sum(ad.mul(x, x))
            return r1, r2

        tape = ad.Tape()
        x = tape.tensor(x0)
        r1, r2 = roots(tape, x)
        ad.backward(tape, ad.add(r1, r2))
        combined = x.grad.copy()

        grads = []
        for pick in (0, 1):
            tape = ad.Tape()
            x = tape.tensor(x0)
            ad.backward(tape, roots(tape, x)[pick])
            grads.append(x.grad.copy())
        np.testing.assert_allclose(combined, grads[0] + grads[1], atol=1e-15)

    def test_deterministic_gradients(self):
        def run():
            rng = np.random.default_rng(99)
            tape = ad.Tape()
            x = tape.tensor(rng.uniform(-2, 2, (4, 4)))
            y = tape.tensor(rng.uniform(-2, 2, (4, 4)))
            root = ad.reduce_sum(ad.sigmoid(ad.matmul(ad.tanh(x), y)))
            ad.backward(tape, root)
            return root.item(), x.grad.copy(), y.grad.copy()

        v1, gx1, gy1 = run()
        v2, gx2, gy2 = run()
        assert v1 == v2
        np.testing.assert_array_equal(gx1, gx2)
        np.testing.assert_array_equal(gy1, gy2)


class TestCompositeGradientSweep:
    """Every differentiable op inside random compositions vs the FD oracle."""

    def test_random_instances(self):
        rng = np.random.default_rng(2024)
        for trial in range(20):
            m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            x0 = rng.uniform(-2, 2, (m, n))
            w0 = rng.uniform(-2, 2, (n, m))
            tau = float(rng.uniform(0.3, 2.0))

            def build(x, w):
                tape = x.tape
                h = ad.tanh(ad.matmul(x, w))          # m x m
                s = ad.softmax(ad.scale(h, 1 / tau))  # rows on simplex
                p = ad.sigmoid(ad.reduce_mean(s, axis=0))
                q = ad.exp(ad.scale(ad.reduce_max(h, axis=1), 0.1))
                return ad.reduce_sum(p) + ad.reduce_sum(q)

            tape = ad.Tape()
            tx, tw = tape.tensor(x0), tape.tensor(w0)
            root = build(tx, tw)
            ad.backward(tape, root)

            def f_x(a):
                t = ad.Tape()
                return build(t.tensor(a), t.tensor(w0)).item()

            def f_w(a):
                t = ad.Tape()
                return build(t.tensor(x0), t.tensor(a)).item()

            assert rel_err(tx.grad, central_difference(f_x, x0.copy())) < 1e-4
            assert rel_err(tw.grad, central_difference(f_w, w0.copy())) < 1e-4


def _old_sigmoid(v):
    """The sigmoid formula before exp(-|v|) was shared between branches."""
    return np.where(v >= 0, 1.0 / (1.0 + np.exp(-np.abs(v))),
                    np.exp(-np.abs(v)) / (1.0 + np.exp(-np.abs(v))))


# every op, as build(tape, a 3x4 input, a 4x3 input) -> tensor, plus the two
# compositions the models use in place of fused ops: the heads' affine map
# ``matmul(x, W) + b`` and ``embed_token``'s row lookup ``narrow(x, -2, i, 1)``
_OPS = {
    "matmul": lambda t, a, b: ad.matmul(a, b),
    "affine": lambda t, a, b: ad.matmul(a, b) + t.tensor(np.ones((1, 3))),
    "add": lambda t, a, b: ad.add(a, t.tensor(np.ones((1, 4)))),
    "sub": lambda t, a, b: ad.sub(a, ad.transpose(b)),
    "mul": lambda t, a, b: ad.mul(a, ad.transpose(b)),
    "scale": lambda t, a, b: ad.scale(a, -2.5),
    "tanh": lambda t, a, b: ad.tanh(a),
    "sigmoid": lambda t, a, b: ad.sigmoid(a),
    "exp": lambda t, a, b: ad.exp(a),
    "log": lambda t, a, b: ad.log(ad.exp(a)),
    "softmax": lambda t, a, b: ad.softmax(a),
    "reduce_sum": lambda t, a, b: ad.reduce_sum(a, axis=1),
    "reduce_mean": lambda t, a, b: ad.reduce_mean(a),
    "reduce_max": lambda t, a, b: ad.reduce_max(a, axis=0),
    "reshape": lambda t, a, b: ad.reshape(a, (2, 6)),
    "transpose": lambda t, a, b: ad.transpose(a),
    "concat": lambda t, a, b: ad.concat([a, ad.transpose(b)], axis=0),
    "get_row": lambda t, a, b: ad.narrow(a, -2, 1, 1),
    "narrow": lambda t, a, b: ad.narrow(a, 1, 1, 2),
    "clip": lambda t, a, b: ad.clip(a, -0.5, 0.5),
    "record": lambda t, a, b: t.record(a.data @ b.data, [a, b],
                                       lambda g: (g @ b.data.T, a.data.T @ g)),
}


def test_every_public_op_is_in_the_no_grad_sweep():
    """A new op must join ``_OPS`` so its no-grad values are checked too."""
    ops = {name for name, fn in vars(ad).items()
           if inspect.isfunction(fn) and fn.__module__ == ad.__name__
           and not name.startswith("_") and name != "backward"}
    assert {"matmul", "concat"} <= ops
    assert not {"affine", "get_row", "lstm_cell"} & ops  # one op per job
    assert sorted(ops - set(_OPS)) == []


class TestNoGradTape:
    def test_records_no_nodes_and_rejects_backward(self):
        tape = ad.Tape(grad=False)
        x = tape.tensor([[1.0, -2.0]])
        root = ad.reduce_sum(ad.sigmoid(ad.matmul(x, ad.transpose(x))))
        assert root.item() == pytest.approx(1.0 / (1.0 + np.exp(-5.0)))
        assert tape.nodes == [] and tape.gradients == []
        assert x.index is None and root.index is None
        with pytest.raises(ad.TapeError):
            ad.backward(tape, root)
        with pytest.raises(ad.TapeError):
            x.grad
        with pytest.raises(ad.TapeError):
            tape.reset_grads()

    def test_bind_aliases_and_never_mutates(self):
        rng = np.random.default_rng(21)
        a_arr, b_arr = rng.normal(size=(3, 4)), rng.normal(size=(4, 3))
        a_keep, b_keep = a_arr.copy(), b_arr.copy()
        tape = ad.Tape(grad=False)
        a, b = tape.tensor(a_arr), tape.tensor(b_arr)
        assert a.data is a_arr and b.data is b_arr  # bound, not copied
        for build in _OPS.values():
            build(tape, a, b)
        np.testing.assert_array_equal(a_arr, a_keep)
        np.testing.assert_array_equal(b_arr, b_keep)

    @pytest.mark.parametrize("name", sorted(_OPS))
    def test_one_rule_records_nothing_and_keeps_no_gradient(self, name, monkeypatch):
        """Every op, ``record`` included, stops at ``Tape._output``: nothing
        reaches ``_record``, no node or gradient slot is kept, and the result
        has no gradient and cannot be a backward root."""
        def refuse(*args):
            raise AssertionError("a no-grad tape reached Tape._record")

        rng = np.random.default_rng(24)
        tape = ad.Tape(grad=False)
        a, b = tape.tensor(rng.normal(size=(3, 4))), tape.tensor(rng.normal(size=(4, 3)))
        monkeypatch.setattr(ad.Tape, "_record", refuse)
        out = _OPS[name](tape, a, b)
        assert tape.nodes == [] and tape.gradients == [] and out.index is None
        with pytest.raises(ad.TapeError):
            out.grad
        with pytest.raises(ad.TapeError):
            ad.backward(tape, ad.reduce_sum(out))

    def test_grad_tape_still_copies(self):
        arr = np.ones((2, 2))
        t = ad.Tape().tensor(arr)
        arr[0, 0] = 5.0
        assert t.data[0, 0] == 1.0

    @pytest.mark.parametrize("name", sorted(_OPS))
    def test_values_bit_identical_to_grad_tape(self, name):
        rng = np.random.default_rng(22)
        a_arr, b_arr = rng.normal(size=(3, 4)), rng.normal(size=(4, 3))
        outs = []
        for grad in (True, False):
            tape = ad.Tape(grad=grad)
            outs.append(_OPS[name](tape, tape.tensor(a_arr), tape.tensor(b_arr)).data)
        assert outs[0].shape == outs[1].shape
        assert np.array_equal(outs[0], outs[1])

    def test_sigmoid_bit_identical_to_three_exp_formula(self):
        v = np.concatenate([np.linspace(-800.0, 800.0, 4001),
                            np.random.default_rng(23).normal(scale=5.0, size=4000),
                            [0.0, -0.0, 1e-300, -1e-300]])
        for grad in (True, False):
            out = ad.sigmoid(ad.Tape(grad=grad).tensor(v)).data
            assert np.array_equal(out, _old_sigmoid(v))


def cell_node(tape, pre, c):
    """The numpy LSTM cell as one ``Tape.record`` node, ``[c' | o_1*tanh(c')
    | ... | o_k*tanh(c')]``, whose operands' leading axes broadcast."""
    m = c.shape[-1]
    c_new, h, saved = ad._lstm_cell_values(pre.data, c.data)
    out = np.concatenate([c_new, h.reshape(h.shape[:-2] + (-1,))], axis=-1)

    def vjp(g):
        return ad._lstm_cell_reverse(ad._lstm_cell_slopes(saved), g[..., :m], g[..., m:])

    return tape.record(out, [pre, c], vjp)


# every op of ``_OPS`` on stacked inputs, as build(tape, a 2x3x4, b 2x4x3) ->
# tensor; the ops that contract or index the last two axes use the leading
# axis as a batch
_BATCHED_OPS = {
    "matmul": lambda t, a, b: ad.matmul(a, b),
    "affine": lambda t, a, b: ad.matmul(a, b) + t.tensor(np.ones((1, 3))),
    "add": lambda t, a, b: ad.add(a, ad.transpose(b)),
    "sub": lambda t, a, b: ad.sub(a, ad.transpose(b)),
    "mul": lambda t, a, b: ad.mul(a, ad.transpose(b)),
    "scale": lambda t, a, b: ad.scale(a, -2.5),
    "tanh": lambda t, a, b: ad.tanh(a),
    "sigmoid": lambda t, a, b: ad.sigmoid(a),
    "exp": lambda t, a, b: ad.exp(a),
    "log": lambda t, a, b: ad.log(ad.exp(a)),
    "softmax": lambda t, a, b: ad.softmax(a),
    "reduce_sum": lambda t, a, b: ad.reduce_sum(a, axis=0),
    "reduce_mean": lambda t, a, b: ad.reduce_mean(a, axis=-1),
    "reduce_max": lambda t, a, b: ad.reduce_max(a, axis=1),
    "reshape": lambda t, a, b: ad.reshape(a, (2, 2, 6)),
    "transpose": lambda t, a, b: ad.transpose(a),
    "concat": lambda t, a, b: ad.concat([a, ad.transpose(b)], axis=-2),
    "get_row": lambda t, a, b: ad.narrow(a, -2, 1, 1),
    "narrow": lambda t, a, b: ad.narrow(a, -1, 1, 2),
    "clip": lambda t, a, b: ad.clip(a, -0.5, 0.5),
}

# the ops (and compositions) that treat the last two axes as a matrix:
# stacked, each member's slice equals the rank-2 form on that member's operands
_MATRIX_OPS = ("matmul", "affine", "get_row", "transpose")


def _stacked_inputs(seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 3))


def _check_fd(build, inputs, tol=1e-6):
    """Tape gradients of sum(build(...) * R) against central differences,
    for every input; R is a fixed random weight of the output's shape."""
    tape = ad.Tape()
    leaves = [tape.tensor(x) for x in inputs]
    out = build(tape, *leaves)
    weight = np.random.default_rng(99).uniform(-1, 1, out.shape)
    ad.backward(tape, ad.reduce_sum(ad.mul(out, weight)))
    for k, leaf in enumerate(leaves):
        def f(arr, k=k):
            t = ad.Tape()
            args = [t.tensor(arr if j == k else x) for j, x in enumerate(inputs)]
            return ad.reduce_sum(ad.mul(build(t, *args), weight)).item()

        assert leaf.grad.shape == inputs[k].shape
        assert rel_err(leaf.grad, central_difference(f, inputs[k].copy())) < tol, k


def test_every_public_op_is_in_the_leading_axis_sweep():
    """A new op must join ``_BATCHED_OPS`` so its stacked inputs are checked."""
    ops = {name for name, fn in vars(ad).items()
           if inspect.isfunction(fn) and fn.__module__ == ad.__name__
           and not name.startswith("_") and name != "backward"}
    assert set(_MATRIX_OPS) <= set(_BATCHED_OPS) & set(_OPS)
    assert sorted(ops - set(_BATCHED_OPS)) == []


class TestLeadingAxes:
    @pytest.mark.parametrize("name", sorted(_BATCHED_OPS))
    def test_no_grad_values_equal_grad_tape(self, name):
        a_arr, b_arr = _stacked_inputs(51)
        outs = []
        for grad in (True, False):
            tape = ad.Tape(grad=grad)
            a, b = tape.tensor(a_arr), tape.tensor(b_arr)
            outs.append(_BATCHED_OPS[name](tape, a, b).data)
        assert outs[0].shape == outs[1].shape
        assert np.array_equal(outs[0], outs[1])

    @pytest.mark.parametrize("name", sorted(_BATCHED_OPS))
    def test_gradients_vs_fd(self, name):
        a_arr, b_arr = _stacked_inputs(52)
        if name in ("clip", "reduce_max"):
            # spread the values apart: no ties for the max, no value at a clip edge
            a_arr = a_arr + np.arange(a_arr.size).reshape(a_arr.shape) * 0.05
        _check_fd(_BATCHED_OPS[name], [a_arr, b_arr])

    @pytest.mark.parametrize("name", _MATRIX_OPS)
    def test_members_equal_rank_2_op(self, name):
        a_arr, b_arr = _stacked_inputs(53)
        tape = ad.Tape(grad=False)
        stacked = _BATCHED_OPS[name](tape, tape.tensor(a_arr), tape.tensor(b_arr)).data
        for k in range(2):
            member = _OPS[name](tape, tape.tensor(a_arr[k]), tape.tensor(b_arr[k])).data
            np.testing.assert_allclose(stacked[k], member, rtol=0, atol=1e-12)

    # shared operands broadcast across the member axis; their gradients sum
    # over it
    SHARED = {
        "matmul, shared weight": (lambda t, x, W: ad.matmul(x, W), [(2, 3, 4), (4, 3)]),
        "matmul, shared input": (lambda t, x, W: ad.matmul(x, W), [(3, 4), (2, 4, 3)]),
        "matmul, size-1 batch": (lambda t, x, W: ad.matmul(x, W), [(2, 3, 4), (1, 4, 3)]),
        "affine, shared weight": (lambda t, x, W, b: ad.matmul(x, W) + b,
                                  [(2, 3, 4), (4, 3), (2, 1, 3)]),
        "affine, shared input and bias": (lambda t, x, W, b: ad.matmul(x, W) + b,
                                          [(1, 4), (2, 4, 3), (1, 3)]),
        "affine, batched bias only": (lambda t, x, W, b: ad.matmul(x, W) + b,
                                      [(3, 4), (4, 3), (2, 1, 3)]),
        "lstm_cell, shared cell": (cell_node, [(2, 3, 8), (3, 2)]),
        "lstm_cell, shared pre": (cell_node, [(3, 10), (2, 3, 2)]),
        "lstm_cell, k = 3": (cell_node, [(2, 1, 3, 12), (2, 3, 2)]),
        "transpose, two leading axes": (lambda t, x: ad.transpose(x), [(2, 2, 3, 4)]),
        "get_row, two leading axes": (lambda t, x: ad.narrow(x, -2, 2, 1), [(2, 2, 3, 4)]),
    }

    @pytest.mark.parametrize("case", sorted(SHARED))
    def test_shared_operand_gradients_vs_fd(self, case):
        build, shapes = self.SHARED[case]
        rng = np.random.default_rng(54)
        _check_fd(build, [rng.normal(size=s) for s in shapes])

    def test_transpose_swaps_last_two_axes(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        out = ad.transpose(ad.Tape(grad=False).tensor(x)).data
        assert np.array_equal(out, x.swapaxes(1, 2))

    def test_batch_axes_must_broadcast(self):
        tape = ad.Tape()
        x, W = tape.tensor(np.zeros((2, 3, 4))), tape.tensor(np.zeros((3, 4, 5)))
        with pytest.raises(ad.ShapeError):
            ad.matmul(x, W)


class TestFoldedWeightGradient:
    """A rank-2 weight under leading axes gets its gradient as one 2-D
    product over the folded rows; the sum of per-index products is the
    oracle (the summation order differs, so 1e-12, not bit equality)."""

    @staticmethod
    def weight_grad(op, x_arr, W_arr, g):
        tape = ad.Tape()
        x, W = tape.tensor(x_arr), tape.tensor(W_arr)
        out = ad.matmul(x, W)
        if op == "affine":
            out = out + tape.tensor(np.ones((1, W_arr.shape[-1])))
        ad.backward(tape, ad.reduce_sum(ad.mul(out, g)))
        return W.grad

    @pytest.mark.parametrize("op", ("matmul", "affine"))
    @pytest.mark.parametrize("lead", ((1,), (5,), (2, 3), (3, 1, 2)))
    def test_matches_unfolded_form(self, op, lead):
        rng = np.random.default_rng(sum(lead))
        n, k, m = rng.integers(1, 6, size=3)
        x = rng.normal(size=lead + (n, k))
        W = rng.normal(size=(k, m))
        g = rng.normal(size=lead + (n, m))
        unfolded = ad._unbroadcast(ad._mT(x) @ g, W.shape)
        got = self.weight_grad(op, x, W, g)
        assert got.shape == W.shape
        np.testing.assert_allclose(got, unfolded, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("op", ("matmul", "affine"))
    @pytest.mark.parametrize("x_shape", ((2, 3, 4), (3, 4), (1, 3, 4)))
    def test_stacked_weight_keeps_unfolded_path(self, op, x_shape):
        rng = np.random.default_rng(61)
        x, W = rng.normal(size=x_shape), rng.normal(size=(2, 4, 3))
        g = rng.normal(size=(2, 3, 3))
        unfolded = ad._unbroadcast(ad._mT(x) @ g, W.shape)
        assert np.array_equal(self.weight_grad(op, x, W, g), unfolded)

    def test_rank_3_affine_vs_fd(self):
        rng = np.random.default_rng(62)
        _check_fd(lambda t, x, W, b: ad.matmul(x, W) + b,
                  [rng.normal(size=s) for s in ((2, 2, 3, 4), (4, 3), (1, 3))])
