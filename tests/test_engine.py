import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from protoform import engine as E
from protoform import transformer as T
from protoform.engine.tensor import accumulate, make_node


def naive_matmul(a, b):
    """Triple-loop oracle, independent of numpy's GEMM path."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for l in range(k):
                acc += a[i, l] * b[l, j]
            out[i, j] = acc
    return out


def total(y, weight=None):
    """``sum(y * weight)``, with ``weight`` ones by default, built from model
    ops: ``reshape`` to (1, n), ``linear`` with (n, 1) weights and a zero
    bias, ``reshape`` to ().  Its backward hands ``y`` exactly ``weight``."""
    n, dtype = y.data.size, y.data.dtype
    w = np.ones((n, 1)) if weight is None else weight.reshape(n, 1)
    row = E.linear(E.reshape(y, (1, n)), E.Tensor(w, dtype=dtype),
                   E.Tensor(np.zeros(1), dtype=dtype))
    return E.reshape(row, ())


class TestForward:
    def test_matmul_against_triple_loop(self):
        rng = E.philox(7)
        a = rng.uniform(-1, 1, (2, 3))
        b = rng.uniform(-1, 1, (3, 4))
        got = E.matmul(E.Tensor(a), E.Tensor(b))
        assert got.data.shape == (2, 4)
        np.testing.assert_allclose(got.data, naive_matmul(a, b), rtol=1e-12)

    def test_matmul_shape_mismatch_names_op(self):
        with pytest.raises(E.ShapeError, match="matmul"):
            E.matmul(E.Tensor(np.zeros((2, 3))), E.Tensor(np.zeros((4, 2))))

    def test_softmax_symmetry(self):
        y = E.softmax(E.Tensor([0.0, 0.0]))
        np.testing.assert_allclose(y.data, [0.5, 0.5])

    def test_softmax_rows_sum_to_one(self):
        x = E.Tensor(E.philox(3).normal(0, 3, (5, 9)))
        y = E.softmax(x).data
        assert (y >= 0).all()
        np.testing.assert_allclose(y.sum(axis=-1), np.ones(5), atol=1e-9)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_softmax_in_its_own_buffer_keeps_the_bits(self, dtype):
        x = E.philox(5).normal(0, 4, (3, 7, 33)).astype(dtype)
        x[:, :, -5:] = -np.inf   # masked keys, as attention has
        shifted = x - np.max(x, axis=-1, keepdims=True)
        e = np.exp(shifted)
        want = e / np.sum(e, axis=-1, keepdims=True)
        np.testing.assert_array_equal(bits(E.softmax(E.Tensor(x, dtype=dtype)).data), bits(want))

    def test_layer_norm_constant_row_is_zero(self):
        y = E.layer_norm(E.Tensor([1.0, 1.0, 1.0]), E.Tensor(np.ones(3)), E.Tensor(np.zeros(3)))
        np.testing.assert_allclose(y.data, [0.0, 0.0, 0.0])

    def test_linear_shape_mismatch_names_op(self):
        with pytest.raises(E.ShapeError, match="linear"):
            E.linear(E.Tensor(np.zeros((2, 3))), E.Tensor(np.zeros((4, 2))),
                     E.Tensor(np.zeros(2)))

    def test_masked_fill_neg_inf_gets_zero_weight(self):
        x = E.Tensor([2.0, -1.0, 0.5, 0.0])
        mask = np.array([False, True, False, True])
        w = E.softmax(E.masked_fill(x, mask, -np.inf)).data
        assert w[1] == 0.0 and w[3] == 0.0
        np.testing.assert_allclose(w.sum(), 1.0, atol=1e-12)

    def test_dropout_eval_mode_is_identity(self):
        x = E.Tensor(np.arange(6.0))
        assert E.dropout(x, 0.0, key=(1, 2, 3)) is x

    @pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")
    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply")
    def test_dropout_node_keeps_no_float_mask(self):
        # the closure holds the boolean keep-mask, not a float copy of it;
        # forward and backward match the reference astype-and-scale mask bit
        # for bit, non-finite entries, -0.0, subnormals and entries whose
        # product with the scale overflows included
        p, key = 0.3, (4, 5, 6)
        for dtype in (np.float64, np.float32):
            fi = np.finfo(dtype)
            special = [np.inf, -np.inf, np.nan, -0.0, fi.max, -fi.max, fi.smallest_subnormal]
            xs = E.philox(3).uniform(-1, 1, (6, 10))
            xs.reshape(-1)[:56] = special * 8
            x = E.Tensor(xs, requires_grad=True, dtype=dtype)
            out = E.dropout(x, p, key=key)

            held = [c.cell_contents for c in out._backward.__closure__
                    if isinstance(c.cell_contents, np.ndarray)]
            assert held and not any(np.issubdtype(a.dtype, np.floating) for a in held)
            mask = (E.philox(*key).random((6, 10), dtype=np.float32) >= p).astype(dtype)
            for i in range(len(special)):   # each one both kept and dropped
                assert 0 < mask.reshape(-1)[i:56:len(special)].sum() < 8
            mask *= 1.0 / (1.0 - p)
            assert out.data.dtype == dtype
            np.testing.assert_array_equal(bits(out.data), bits(x.data * mask))
            g = E.philox(8).uniform(-1, 1, (6, 10)).astype(dtype)
            g.reshape(-1)[:56] = special * 8
            out._backward(g)
            assert x.grad.dtype == dtype
            np.testing.assert_array_equal(bits(x.grad), bits(g * mask))

    def test_dropout_mask_is_reproducible(self):
        x = E.Tensor(np.ones((4, 4)))
        a = E.dropout(x, 0.5, key=(9, 1, 0)).data
        b = E.dropout(x, 0.5, key=(9, 1, 0)).data
        c = E.dropout(x, 0.5, key=(9, 1, 1)).data
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestDropoutWords:
    """The mask is read off Philox's raw 32-bit words, and it is the mask of
    the float draw ``philox(*key).random(shape, dtype=np.float32) >= p``:
    odd sizes (the last 64-bit output half used), p whose float32 rounding
    lies above or below it, and p that rounds to 1, which keeps nothing."""

    SHAPES = [(0,), (1,), (2,), (3,), (7,), (3, 5, 7), (1, 9, 1), (5, 3, 3, 1), (32, 8, 60, 60)]
    ABOVE = 0.25 - 2.0**-30   # float32 rounds it up to 0.25
    BELOW = 0.25 + 2.0**-30   # and this one down
    PS = [1e-9, 0.1, 0.1708861, 0.202, ABOVE, BELOW, 1 - 1e-9]

    def test_rounding_cases_straddle_their_float32(self):
        assert float(np.float32(self.ABOVE)) > self.ABOVE
        assert float(np.float32(self.BELOW)) < self.BELOW
        assert float(np.float32(1 - 1e-9)) == 1.0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("p", PS, ids=["1e-9", "0.1", "0.1708861", "0.202", "above",
                                           "below", "1-1e-9"])
    def test_mask_is_the_float_draw_mask(self, p, dtype):
        s = dtype(1.0 / (1.0 - p))
        for shape in self.SHAPES:
            ones = E.Tensor(np.ones(shape), dtype=dtype)
            for seed in range(30):
                key = (seed, 7, 11)
                want = E.philox(*key).random(shape, dtype=np.float32) >= p
                out = E.dropout(ones, p, key=key).data
                assert out.dtype == dtype and out.shape == shape
                np.testing.assert_array_equal(out != 0, want, err_msg=f"{shape} seed {seed}")
                assert (out[want] == s).all()
        if p == 1 - 1e-9:
            assert not out.any()


    def test_a_draw_equal_to_p_is_kept(self):
        # p is the draw itself, so ``random >= p`` holds with equality, and
        # the next float32 above it drops it; 3,000 keys include about a
        # dozen whose word has a zero low byte, where ``w >= k << 8`` is tight
        one = E.Tensor(np.ones(1))
        for seed in range(3000):
            key = (seed, 7, 11)
            first = E.philox(*key).random(1, dtype=np.float32)[0]
            if first == 0:
                continue
            above = np.nextafter(first, np.float32(1))
            assert E.dropout(one, float(first), key=key).data[0] != 0, seed
            assert E.dropout(one, float(above), key=key).data[0] == 0, seed


def _uniform(shape, lo=-1.0):
    return lambda rng: rng.uniform(lo, 1, shape)


X = (2, 5, 6)
# op name: (how to draw each input, the op over the input tensors)
ALIAS_CASES = {
    "dropout": ([_uniform(X)], lambda t: E.dropout(t[0], 0.3, key=(1, 2, 3))),
    "linear": ([_uniform(X), _uniform((6, 4)), _uniform((4,))], lambda t: E.linear(*t)),
    "linear-bias-like-out": ([_uniform(X), _uniform((6, 4)), _uniform((2, 5, 4))],
                             lambda t: E.linear(*t)),
    "layer_norm": ([_uniform(X), _uniform((6,), 0.5), _uniform((6,))],
                   lambda t: E.layer_norm(*t)),
    # _unbroadcast hands back its argument itself for a gain or bias shaped like x
    "layer_norm-affine-like-x": ([_uniform(X), _uniform(X, 0.5), _uniform(X)],
                                 lambda t: E.layer_norm(*t)),
    "softmax": ([_uniform(X)], lambda t: E.softmax(t[0])),
}


class TestNoAliasing:
    """Ops that write into their own temporaries leave alone what they were
    given: every input's data, the upstream gradient and the op's output
    keep their bytes through forward and backward, and no array handed to
    ``accumulate`` (which may adopt it as a ``.grad``) is written after."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("grad", [True, False], ids=["grad", "no_grad"])
    @pytest.mark.parametrize("name", sorted(ALIAS_CASES))
    def test_inputs_gradient_and_handed_arrays_keep_their_bytes(self, name, grad, dtype,
                                                                monkeypatch):
        from protoform.engine import ops

        makers, op = ALIAS_CASES[name]
        rng = E.philox(0xA11A5)
        leaves = [E.Tensor(m(rng), requires_grad=True, dtype=dtype) for m in makers]
        before = [t.data.copy() for t in leaves]
        handed = []

        def recording(t, g, own=True):
            handed.append((g, g.copy()))
            accumulate(t, g, own)

        monkeypatch.setattr(ops, "accumulate", recording)
        if grad:
            out = op(leaves)
        else:
            with E.no_grad():
                out = op(leaves)
        out_bytes = out.data.copy()
        if grad:
            g = rng.uniform(-1, 1, out.data.shape).astype(dtype)
            g_bytes = g.copy()
            out._backward(g)
            np.testing.assert_array_equal(bits(g), bits(g_bytes))
            assert len(handed) == len(leaves)
            assert all(t.grad is not None for t in leaves)
        else:
            assert out._backward is None and not handed
        np.testing.assert_array_equal(bits(out.data), bits(out_bytes))
        for t, data in zip(leaves, before):
            np.testing.assert_array_equal(bits(t.data), bits(data))
        for arr, copy in handed:
            np.testing.assert_array_equal(bits(arr), bits(copy))


class TestBackward:
    def test_half_square_gradient_is_x(self):
        x = E.Tensor([1.5, -2.0, 0.25], requires_grad=True)
        loss = total(E.scale(E.mul(x, x), 0.5))
        E.backward(loss)
        np.testing.assert_allclose(x.grad, x.data)

    def test_fanout_accumulates_exactly(self):
        x = E.Tensor([3.0], requires_grad=True)
        E.backward(total(E.add(x, x)))
        assert x.grad[0] == 2.0

    def test_non_scalar_loss_rejected(self):
        x = E.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(E.EngineError, match="scalar"):
            E.backward(E.add(x, x))

    def test_second_backward_raises(self):
        x = E.Tensor([1.0, -2.0], requires_grad=True)
        h = E.mul(x, x)
        loss = total(h)
        E.backward(loss)
        # the same loss, and a new loss over a node the first walk released
        for again in (loss, total(h)):
            with pytest.raises(E.EngineError,
                               match="graph already released by an earlier backward"):
                E.backward(again)
        np.testing.assert_array_equal(x.grad, [2.0, -4.0])

    def test_graph_is_released_after_backward(self):
        rng = E.philox(7)
        x = E.Tensor(rng.uniform(-1, 1, (4, 5)), requires_grad=True)
        w = E.Tensor(rng.uniform(-1, 1, (5, 3)), requires_grad=True)
        key = (1, 2, 3)
        interior = []

        def build():
            h = E.relu(E.matmul(x, w))
            d = E.dropout(h, 0.5, key=key)
            interior.extend([weakref.ref(h.data), weakref.ref(d.data)])
            return total(d)

        loss = build()
        gc.collect()
        assert all(ref() is not None for ref in interior)
        E.backward(loss)
        gc.collect()
        assert all(ref() is None for ref in interior)
        assert loss.grad is None
        # d loss / d(x @ w) is the dropout mask where x @ w > 0
        mask = E.dropout(E.Tensor(np.ones((4, 3))), 0.5, key=key).data
        g = mask * (x.data @ w.data > 0)
        np.testing.assert_array_equal(x.grad, g @ w.data.T)
        np.testing.assert_array_equal(w.grad, x.data.T @ g)

    def test_cross_entropy_ignored_positions_have_zero_grad(self):
        logits = E.Tensor(E.philox(5).normal(0, 1, (2, 3, 6)), requires_grad=True)
        targets = np.array([[1, 2, 0], [0, 4, 5]])
        E.backward(E.cross_entropy(logits, targets))
        assert np.all(logits.grad[0, 2] == 0.0)
        assert np.all(logits.grad[1, 0] == 0.0)
        assert np.any(logits.grad[0, 0] != 0.0)

    def test_composite_graph_matches_finite_differences(self):
        rng = E.philox(11)
        x = E.Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        w = E.Tensor(rng.uniform(-1, 1, (4, 5)), requires_grad=True)
        b, gain, bias = (E.Tensor(rng.uniform(-1, 1, 5), requires_grad=True) for _ in range(3))

        def loss_value():
            h = E.relu(E.linear(x, w, b))
            y = E.softmax(E.layer_norm(h, gain, bias))
            return total(E.mul(y, y))

        E.backward(loss_value())
        for t in (x, w, b, gain, bias):
            analytic = t.grad.copy()
            flat = t.data.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + 1e-5
                fp = float(loss_value().data)
                flat[i] = orig - 1e-5
                fm = float(loss_value().data)
                flat[i] = orig
                num = (fp - fm) / 2e-5
                a = analytic.reshape(-1)[i]
                assert abs(a - num) / max(abs(a), abs(num), 1e-3) < 1e-4


class TestGradCheckSuite:
    @pytest.mark.parametrize("kind", E.OP_KINDS)
    def test_op_passes_three_seeds(self, kind):
        worst = max(E.grad_check(kind, seed) for seed in (0, 1, 2))
        assert worst < E.TOLERANCE, f"{kind}: max rel err {worst:.3g}"

    def test_batched_matmul_backward(self):
        # stacked-GEMM path (both operands > 2-D) vs finite differences
        rng = E.philox(21)
        a = E.Tensor(rng.uniform(-1, 1, (2, 3, 4)), requires_grad=True)
        b = E.Tensor(rng.uniform(-1, 1, (2, 4, 2)), requires_grad=True)
        w = rng.uniform(0.5, 1.5, (2, 3, 2))

        def loss():
            return total(E.matmul(a, b), w)

        E.backward(loss())
        for t in (a, b):
            analytic = t.grad.copy()
            flat = t.data.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + 1e-5
                fp = float(loss().data)
                flat[i] = orig - 1e-5
                fm = float(loss().data)
                flat[i] = orig
                num = (fp - fm) / 2e-5
                ai = analytic.reshape(-1)[i]
                assert abs(ai - num) / max(abs(ai), abs(num), 1e-3) < 1e-4


# Test-local copies of the composed layers the model built before ``linear``
# and the affine ``layer_norm``: add(matmul(x, w), b) with matmul's former
# linear-layer branch, and add(mul(layer_norm(x), g), b).


def old_matmul(a, b):
    out = np.matmul(a.data, b.data)
    k, n = b.data.shape

    def bwd(g):
        g2 = g.reshape(-1, n)
        accumulate(a, np.matmul(g2, b.data.T).reshape(a.data.shape))
        accumulate(b, np.matmul(a.data.reshape(-1, k).T, g2))

    return make_node(out, "matmul", (a, b), bwd)


def old_layer_norm(a):
    mu = np.mean(a.data, axis=-1, keepdims=True)
    var = np.var(a.data, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (a.data - mu) * inv

    def bwd(g):
        gm = np.mean(g, axis=-1, keepdims=True)
        gx = np.mean(g * xhat, axis=-1, keepdims=True)
        accumulate(a, inv * (g - gm - xhat * gx))

    return make_node(xhat, "layer_norm", (a,), bwd)


OLD_LAYERS = (lambda x, w, b: E.add(old_matmul(x, w), b),
              lambda x, g, b: E.add(E.mul(old_layer_norm(x), g), b))
FUSED_LAYERS = (E.linear, E.layer_norm)


def bits(a):
    return a.view(np.uint64 if a.dtype == np.float64 else np.uint32)


class TestFusedLayersKeepBits:
    """``linear`` and the affine ``layer_norm`` give the composed layers'
    forward values and gradients bit for bit, in an encoder block shaped
    like the model's: ``x`` feeds the q, k and v projections and the
    residual, so four gradients land in it, as they do in self-attention."""

    D, DFF = 128, 647   # the Sinitic preset's d_model and d_feedforward

    def block(self, layers, p, weight):
        linear, norm = layers
        x = p["x"]
        q = linear(x, p["wq"], p["bq"])
        k = linear(x, p["wk"], p["bk"])
        v = linear(x, p["wv"], p["bv"])
        h = linear(E.add(E.mul(q, k), v), p["wo"], p["bo"])
        y = norm(E.add(x, h), p["g1"], p["c1"])
        f = linear(E.relu(linear(y, p["w1"], p["b1"])), p["w2"], p["b2"])
        y = norm(E.add(y, f), p["g2"], p["c2"])
        return y, total(y, weight)

    def run(self, layers, shape, dtype):
        rng = E.philox(0xB175, *shape)
        d, dff = self.D, self.DFF
        shapes = {"x": shape + (d,), "w1": (d, dff), "b1": (dff,), "w2": (dff, d)}
        for name in ("wq", "wk", "wv", "wo"):
            shapes[name] = (d, d)
        for name in ("bq", "bk", "bv", "bo", "b2", "g1", "c1", "g2", "c2"):
            shapes[name] = (d,)
        leaves = {name: E.Tensor(rng.uniform(-1, 1, s), requires_grad=True, dtype=dtype)
                  for name, s in sorted(shapes.items())}
        weight = rng.uniform(0.5, 1.5, shape + (d,)).astype(dtype)
        y, loss = self.block(layers, leaves, weight)
        E.backward(loss)
        return y.data, loss.data, {name: t.grad for name, t in leaves.items()}

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(1, 23), (8, 60)])
    def test_forward_and_every_gradient_bit_equal(self, shape, dtype):
        y_old, loss_old, grads_old = self.run(OLD_LAYERS, shape, dtype)
        y_new, loss_new, grads_new = self.run(FUSED_LAYERS, shape, dtype)
        assert y_new.dtype == dtype
        np.testing.assert_array_equal(bits(y_new), bits(y_old))
        np.testing.assert_array_equal(bits(loss_new), bits(loss_old))
        assert sorted(grads_new) == sorted(grads_old)
        for name, g in grads_old.items():
            assert g is not None and grads_new[name].dtype == dtype, name
            np.testing.assert_array_equal(bits(grads_new[name]), bits(g), err_msg=name)


class TestLinearGradModes:
    """With grad mode on ``linear`` computes ``np.matmul(x, w) + b``, numpy's
    product per leading index, so training keeps its bytes; with it off
    the leading axes collapse into one 2-D GEMM, which on a 2-D ``x`` is
    the same product."""

    D, DFF = TestFusedLayersKeepBits.D, TestFusedLayersKeepBits.DFF

    def operands(self, x_shape, n, dtype):
        rng = E.philox(0x11EA, *x_shape, n)
        x = E.Tensor(rng.uniform(-1, 1, x_shape), requires_grad=True, dtype=dtype)
        w = E.Tensor(rng.uniform(-1, 1, (x_shape[-1], n)), requires_grad=True, dtype=dtype)
        b = E.Tensor(rng.uniform(-1, 1, n), requires_grad=True, dtype=dtype)
        return x, w, b

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("x_shape, n", [((8, 60, D), DFF), ((50, 1, D), DFF),
                                            ((8, 60, DFF), D), ((4, 23, D), D)])
    def test_grad_mode_is_the_batched_product(self, x_shape, n, dtype):
        x, w, b = self.operands(x_shape, n, dtype)
        out = E.linear(x, w, b)
        assert out.requires_grad and out.data.dtype == dtype
        np.testing.assert_array_equal(bits(out.data), bits(np.matmul(x.data, w.data) + b.data))
        with E.no_grad():
            fast = E.linear(x, w, b)
        assert not fast.requires_grad and fast.data.shape == out.data.shape
        # k products, each at most 1 in size, summed in two orders
        k = x_shape[-1]
        np.testing.assert_allclose(fast.data, out.data, rtol=0, atol=k * k * np.finfo(dtype).eps)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_two_dimensional_input_same_bits_in_both_modes(self, dtype):
        x, w, b = self.operands((300, self.D), self.DFF, dtype)
        on = E.linear(x, w, b).data
        with E.no_grad():
            off = E.linear(x, w, b).data
        np.testing.assert_array_equal(bits(off), bits(on))


def param(values, grad=None):
    p = E.Tensor(values, requires_grad=True)
    p.grad = None if grad is None else np.asarray(grad, dtype=p.data.dtype)
    return p


class TestAdam:
    def test_zero_grads_no_decay_leaves_params(self):
        p = param([1.0, -2.0], grad=np.zeros(2))
        st = E.AdamState()
        E.adam_step({"p": p}, st, lr=0.1)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_single_step_matches_hand_evaluation(self):
        # betas 0.9/0.999, eps 1e-8:
        # m=0.1, v=0.001, m_hat=1, v_hat=1 -> p = 1 - 0.1/(1+1e-8)
        p = param([1.0], grad=[1.0])
        st = E.AdamState()
        E.adam_step({"p": p}, st, lr=0.1)
        np.testing.assert_allclose(p.data, [1.0 - 0.1 / (1.0 + 1e-8)], rtol=1e-12)

    def test_decoupled_decay_shrinks_without_grads(self):
        p = param([2.0], grad=np.zeros(1))
        st = E.AdamState(weight_decay=0.01)
        E.adam_step({"p": p}, st, lr=0.5)
        np.testing.assert_allclose(p.data, [2.0 * (1 - 0.5 * 0.01)], rtol=1e-12)

    def test_parameter_without_grad_keeps_moments_and_decays(self):
        p, q = param([2.0]), param([1.0], grad=[1.0])
        st = E.AdamState(weight_decay=0.01)
        E.adam_step({"p": p, "q": q}, st, lr=0.5)
        assert list(st.m) == ["q"]
        np.testing.assert_allclose(p.data, [2.0 * (1 - 0.5 * 0.01)], rtol=1e-12)

    def test_nan_grad_aborts_with_diagnostics(self):
        p = param([1.0], grad=[np.nan])
        with pytest.raises(E.EngineError, match="p"):
            E.adam_step({"p": p}, E.AdamState(), lr=0.1)


class TestSchedule:
    # ROMANCE: lr 0.00013, 50 warmup epochs of 200
    def test_ramp_start(self):
        assert T.lr_at(0, T.ROMANCE) == pytest.approx(0.00013 / 50)

    def test_peak_at_warmup_end(self):
        assert T.lr_at(50, T.ROMANCE) == 0.00013
        assert T.lr_at(49, T.ROMANCE) == pytest.approx(0.00013)

    def test_constant_tail(self):
        assert T.lr_at(199, T.ROMANCE) == 0.00013


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        tensors = {
            "emb.w": E.philox(1).normal(0, 1, (5, 3)),
            "out.b": np.array([0.5, -1.5]),
            "step": np.array(7.0),
        }
        path = tmp_path / "model.ckpt"
        E.save_checkpoint(str(path), tensors)
        loaded = E.load_checkpoint(str(path))
        assert set(loaded) == set(tensors)
        for name in tensors:
            np.testing.assert_array_equal(loaded[name], tensors[name])
            assert loaded[name].shape == np.asarray(tensors[name]).shape

    def test_manifest_is_text(self, tmp_path):
        path = tmp_path / "m.ckpt"
        E.save_checkpoint(str(path), {"w": np.zeros(2)})
        head = path.read_bytes().split(b"\nend\n")[0]
        assert head.decode("ascii").startswith("PROTOFORM-CKPT")


class TestDeterminism:
    def test_detrng_is_stable(self):
        # frozen draws guard the cross-platform contract for splits/shuffles
        r = E.DetRng(42)
        assert [r.next_u64() for _ in range(3)] == [
            13679457532755275413,
            2949826092126892291,
            5139283748462763858,
        ]

    def test_permutation_depends_only_on_seed(self):
        a = E.DetRng(7).permutation(20)
        b = E.DetRng(7).permutation(20)
        c = E.DetRng(8).permutation(20)
        assert a == b and a != c


def scalar_shuffle(rng, items):
    """The Fisher-Yates loop, one ``randint`` at a time."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randint(i + 1)
        items[i], items[j] = items[j], items[i]


def unmix(out):
    """The SplitMix64 state whose draw is ``out``: its finaliser undone."""
    mask = (1 << 64) - 1

    def unxorshift(z, k):
        x = z
        for _ in range(64 // k + 1):
            x = z ^ (x >> k)
        return x

    z = unxorshift(out, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & mask
    z = unxorshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & mask
    return unxorshift(z, 30)


class TestShuffle:
    """The numpy draws shuffle as the scalar loop does and leave the
    stream where it leaves it."""

    GAMMA = 0x9E3779B97F4A7C15
    SEEDS = list(range(30)) + [1 << 63, (1 << 64) - 1, GAMMA]

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 100, 2019, 5000])
    def test_equals_scalar_loop(self, n):
        for seed in self.SEEDS:
            fast, ref = E.DetRng(seed), E.DetRng(seed)
            a, b = list(range(n)), list(range(n))
            fast.shuffle(a)
            scalar_shuffle(ref, b)
            assert a == b, seed
            assert fast.next_u64() == ref.next_u64(), seed

    def test_rejected_draw_falls_back(self):
        # the first draw of a 3-item shuffle is 2**64 - 1, which randint(3)
        # rejects: 2**64 % 3 == 1
        mask = (1 << 64) - 1
        seed = (unmix(mask) - self.GAMMA) & mask
        assert E.DetRng(seed).next_u64() == mask
        fast, ref = E.DetRng(seed), E.DetRng(seed)
        a, b = [0, 1, 2], [0, 1, 2]
        fast.shuffle(a)
        scalar_shuffle(ref, b)
        assert a == b
        stream = E.DetRng(seed)
        fourth = [stream.next_u64() for _ in range(4)][3]   # the rejection cost a draw
        assert fast.next_u64() == ref.next_u64() == fourth
        assert E.DetRng(seed).permutation(3) == b


def record_nodes(monkeypatch) -> Counter:
    """Counts, by op kind, every node the engine's ops build from now on."""
    from protoform.engine import ops

    built = Counter()
    real = ops.make_node

    def recording(data, op, parents, backward):
        built[op] += 1
        return real(data, op, parents, backward)

    monkeypatch.setattr(ops, "make_node", recording)
    return built


class TestOpSet:
    @pytest.fixture
    def built(self, monkeypatch):
        """Op kind of every node one tiny-config training ``loss_batch`` builds."""
        from protoform import corpus as C

        built = record_nodes(monkeypatch)
        ds = C.parse_dataset(
            "id\tA\tB\tP\nx\tpata\tbat\tpata\ny\tkunu\tgun\tkuna\n",
            C.ParseOptions(tokenizer=C.TokenizerOptions(mode="orthographic")))
        vocab = C.build_vocab(ds)
        cfg = T.TransformerConfig(d_model=8, n_heads=2, n_encoder_layers=1,
                                  n_decoder_layers=1, d_feedforward=8, dropout_p=0.1)
        model = T.Model(cfg, vocab, ds.languages)
        batch = T.collate(C.encode_dataset(ds, vocab))
        model.loss_batch(batch, T._DropCtx(cfg.seed, 0, cfg.dropout_p))
        return built

    def test_training_step_builds_every_op_kind_but_mul(self, built):
        # ``mul`` stays only because the benchmark's tracer wraps ``E.mul`` by
        # name, until ROADMAP item 1; any other kind the model never builds
        # is dead code
        assert set(built) == set(E.OP_KINDS) - {"mul"}

    @pytest.mark.parametrize("kind", E.OP_KINDS)
    def test_grad_check_builds_only_the_op_under_test(self, kind, monkeypatch):
        built = record_nodes(monkeypatch)
        E.grad_check(kind, 0)
        assert set(built) == {kind}

    def test_node_count_of_one_training_step(self, built):
        # one encoder and one decoder layer: 17 affine layers and 5 layer
        # norms, one node each
        assert sum(built.values()) == 87
        assert (built["linear"], built["layer_norm"], built["add"]) == (17, 5, 8)
