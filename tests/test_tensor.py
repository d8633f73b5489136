"""Tensor core: forward ops against naive oracles, backward via grad_check."""

import gc
import inspect
import weakref

import numpy as np
import pytest

from raypatch import tensor as T
from raypatch.tensor import Tensor

from reference_impls import (
    attention_heads_naive,
    conv2d_grads_loops,
    conv2d_loops,
    grad_check,
    instance_norm_naive,
    layer_norm_naive,
    leaky_relu_backward_naive,
    leaky_relu_naive,
    matmul_loops,
    softmax_rows_naive,
    sum_all,
    upsample_bilinear2x_loops,
    upsample_nearest2x_loops,
)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def leaf(rng, *shape):
    return T.parameter(rng.standard_normal(shape))


def weighted_sum_grads(op, arrays, w):
    """Output of ``op`` on leaves holding ``arrays``, and the leaves' gradients
    of sum(w * output); ``op``'s backward receives exactly ``w``."""
    T.tape_clear()
    leaves = [T.parameter(a.copy()) for a in arrays]
    out = op(*leaves)
    T.backward(sum_all(T.mul(out, Tensor(w))))
    return out.data, [t.grad for t in leaves]


def finite_difference(f, x, step=1e-6):
    """Central differences of the scalar numpy function ``f`` at array ``x``."""
    grad = np.empty_like(x)
    for i in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi.flat[i] += step
        lo.flat[i] -= step
        grad.flat[i] = (f(hi) - f(lo)) / (2.0 * step)
    return grad


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()  # -0.0 and 0.0 differ here


class TestMatmul:
    def test_against_triple_loop(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        got = T.matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, matmul_loops(a, b), rtol=0, atol=1e-12)

    def test_identity_passthrough(self, rng):
        a = rng.standard_normal((5, 5))
        got = T.matmul(Tensor(a), Tensor(np.eye(5))).data
        np.testing.assert_array_equal(got, a)

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(T.DimensionError):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_grads(self, rng):
        a = leaf(rng, 3, 4)
        b = leaf(rng, 4, 2)
        assert grad_check(lambda t: sum_all(T.matmul(t, b)), a) < 1e-5
        assert grad_check(lambda t: sum_all(T.matmul(a, t)), b) < 1e-5


class TestSoftmax:
    def test_against_naive(self, rng):
        x = rng.standard_normal((6, 9))
        got = T.softmax_rows(Tensor(x)).data
        np.testing.assert_allclose(got, softmax_rows_naive(x), atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        x = rng.standard_normal((40, 17)) * 30.0  # large logits: stability matters
        got = T.softmax_rows(Tensor(x)).data
        np.testing.assert_allclose(got.sum(axis=1), np.ones(40), atol=1e-9)

    def test_shift_invariance(self, rng):
        x = rng.standard_normal((4, 7))
        a = T.softmax_rows(Tensor(x)).data
        b = T.softmax_rows(Tensor(x + 123.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_nan_input_raises(self):
        x = np.zeros((2, 2))
        x[1, 1] = np.nan
        with pytest.raises(T.NumericError):
            T.softmax_rows(Tensor(x))

    def test_grad(self, rng):
        x = leaf(rng, 5, 6)
        w = Tensor(rng.standard_normal((5, 6)))  # random loss weights
        assert grad_check(lambda t: sum_all(T.mul(T.softmax_rows(t), w)), x) < 1e-5

    def test_bit_equal_to_the_unfused_formula(self, rng):
        x = rng.standard_normal((37, 64)) * 3.0
        g = rng.standard_normal((37, 64))
        y, (gx,) = weighted_sum_grads(T.softmax_rows, [x], g)
        e = np.exp(x - x.max(axis=1, keepdims=True))
        want_y = e / e.sum(axis=1, keepdims=True)
        assert_same_bits(y, want_y)
        assert_same_bits(gx, (g - (g * want_y).sum(axis=1, keepdims=True)) * want_y)


def per_head_attention(q, k_t, v, heads):
    """``attention`` composed of separate ops: q, k_t and v split into heads,
    then per head the product scaled by a ``mul``, ``softmax_rows`` and the
    product with v_h, and the heads concatenated."""
    d_k, d_v = q.shape[1] // heads, v.shape[1] // heads
    qs = T.split(q, [d_k] * heads, axis=1)
    k_ts = T.split(k_t, [d_k] * heads)
    vs = T.split(v, [d_v] * heads, axis=1)
    return T.concat([T.matmul(T.softmax_rows(T.mul(T.matmul(q_h, k_t), 1.0 / np.sqrt(d_k))), v_h)
                     for q_h, k_t, v_h in zip(qs, k_ts, vs)], axis=1)


class TestAttention:
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_against_naive(self, rng, heads):
        q = rng.standard_normal((5, 4 * heads))
        k = rng.standard_normal((7, 4 * heads))
        v = rng.standard_normal((7, 3 * heads))
        got = T.attention(Tensor(q), Tensor(k.T), Tensor(v), heads).data
        np.testing.assert_allclose(got, attention_heads_naive(q, k, v, heads), atol=1e-12)

    def test_equal_logits_average_values(self, rng):
        # zero queries: every key scores equally, so each head's output is the
        # mean of its values
        v = rng.standard_normal((6, 6))
        got = T.attention(Tensor(np.zeros((2, 8))), Tensor(rng.standard_normal((8, 6))),
                          Tensor(v), 2).data
        np.testing.assert_allclose(got, np.tile(v.mean(axis=0), (2, 1)), atol=1e-12)

    def test_kv_joint_permutation_invariant(self, rng):
        q = Tensor(rng.standard_normal((4, 8)))
        k = rng.standard_normal((9, 8))
        v = rng.standard_normal((9, 10))
        perm = rng.permutation(9)
        a = T.attention(q, Tensor(k.T), Tensor(v), 2).data
        b = T.attention(q, Tensor(k[perm].T), Tensor(v[perm]), 2).data
        np.testing.assert_allclose(a, b, atol=1e-9)

    @pytest.mark.parametrize("k_t_shape,v_shape,heads,match", [
        ((4, 5), (5, 4), 2, r"query width 6 != key width 4"),
        ((6, 5), (4, 4), 2, r"key count 5 != value count 4"),
        ((6, 5), (5, 4), 4, r"widths 6 and 4 do not split into 4 heads"),
        ((6, 5), (5, 5), 2, r"widths 6 and 5 do not split into 2 heads"),
        ((6, 5), (5, 4), 0, r"do not split into 0 heads"),
        ((6, 5), (5, 4, 1), 2, r"rank-2 q, k_t and v")])
    def test_dimension_errors(self, k_t_shape, v_shape, heads, match):
        with pytest.raises(T.DimensionError, match=match):
            T.attention(Tensor(np.zeros((2, 6))), Tensor(np.zeros(k_t_shape)),
                        Tensor(np.zeros(v_shape)), heads)

    # the decoders of a 16x16 dataset's raypatch model and of the benchmark's
    # render config (16x16 patch queries on 3 views), and two other sizes
    @pytest.mark.parametrize("n_q,n_kv,heads,d_k,d_v", [
        (16, 16, 2, 32, 32), (37, 53, 4, 16, 8), (64, 192, 2, 32, 32), (256, 768, 4, 64, 64)])
    def test_bit_equal_to_the_per_head_composition(self, rng, n_q, n_kv, heads, d_k, d_v):
        arrays = [rng.standard_normal((n_q, heads * d_k)),
                  rng.standard_normal((heads * d_k, n_kv)),
                  rng.standard_normal((n_kv, heads * d_v))]
        g = rng.standard_normal((n_q, heads * d_v))
        got, got_grads = weighted_sum_grads(lambda q, k_t, v: T.attention(q, k_t, v, heads),
                                            arrays, g)
        want, want_grads = weighted_sum_grads(
            lambda q, k_t, v: per_head_attention(q, k_t, v, heads), arrays, g)
        assert_same_bits(got, want)
        for got_g, want_g in zip(got_grads, want_grads):
            assert_same_bits(got_g, want_g)

    def test_one_tape_record(self, rng):
        q, k_t, v = leaf(rng, 3, 4), leaf(rng, 4, 5), leaf(rng, 5, 6)
        T.tape_clear()
        out = T.attention(q, k_t, v, 2)
        assert [slot for slot, _ in T._tape] == [out._slot]
        T.tape_clear()


class TestLayerNorm:
    def test_against_naive(self, rng):
        x = rng.standard_normal((7, 11))
        gamma = rng.standard_normal(11)
        beta = rng.standard_normal(11)
        got = T.layer_norm(Tensor(x), Tensor(gamma), Tensor(beta)).data
        np.testing.assert_allclose(got, layer_norm_naive(x, gamma, beta), atol=1e-12)

    def test_constant_row_is_finite(self):
        # zero variance: epsilon keeps the output finite (and zero for beta=0)
        x = np.full((1, 8), 3.25)
        got = T.layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8))).data
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, np.zeros((1, 8)), atol=1e-12)

    def test_grads(self, rng):
        x = leaf(rng, 4, 9)
        gamma = leaf(rng, 9)
        beta = leaf(rng, 9)
        w = Tensor(rng.standard_normal((4, 9)))

        def loss_through(t, which):
            args = {"x": x, "g": gamma, "b": beta}
            args[which] = t
            return sum_all(T.mul(T.layer_norm(args["x"], args["g"], args["b"]), w))

        assert grad_check(lambda t: loss_through(t, "x"), x) < 1e-5
        assert grad_check(lambda t: loss_through(t, "g"), gamma) < 1e-5
        assert grad_check(lambda t: loss_through(t, "b"), beta) < 1e-5


class TestConv2d:
    @pytest.mark.parametrize("stride", [1, 2])
    def test_against_six_loops(self, rng, stride):
        x = rng.standard_normal((2, 5, 6))
        w = rng.standard_normal((3, 3, 3, 2))
        b = rng.standard_normal(3)
        got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride).data
        np.testing.assert_allclose(got, conv2d_loops(x, w, b, stride=stride), atol=1e-12)

    def test_stride2_output_is_ceil_half(self, rng):
        x = Tensor(rng.standard_normal((1, 7, 10)))
        w = Tensor(rng.standard_normal((4, 3, 3, 1)))
        out = T.conv2d(x, w, stride=2)
        assert out.shape == (4, 4, 5)

    def test_delta_kernel_recovers_input(self, rng):
        # identity kernel: center tap 1, elsewhere 0
        x = rng.standard_normal((3, 6, 6))
        w = np.zeros((3, 3, 3, 3))
        for c in range(3):
            w[c, 1, 1, c] = 1.0
        got = T.conv2d(Tensor(x), Tensor(w)).data
        np.testing.assert_array_equal(got, x)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_grads(self, rng, stride):
        x = leaf(rng, 2, 4, 5)
        w = leaf(rng, 3, 3, 3, 2)
        b = leaf(rng, 3)
        for t, f in [
            (x, lambda t: sum_all(T.conv2d(t, w, b, stride=stride))),
            (w, lambda t: sum_all(T.conv2d(x, t, b, stride=stride))),
            (b, lambda t: sum_all(T.conv2d(x, w, t, stride=stride))),
        ]:
            assert grad_check(f, t) < 1e-5


def conv2d_padded(x, w, b, stride, g):
    """Output and the gradients of sum(g * output) for x, w and b, tap by tap
    from windows of the zero-padded input."""
    oh, ow = g.shape[1:]
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    out = np.zeros(g.shape) + b[:, None, None]
    dxp, dw = np.zeros_like(xp), np.zeros_like(w)
    for ky in range(3):
        for kx in range(3):
            window = (slice(None), slice(ky, ky + stride * oh, stride),
                      slice(kx, kx + stride * ow, stride))
            out += np.einsum("oc,chw->ohw", w[:, ky, kx, :], xp[window])
            dw[:, ky, kx, :] = np.einsum("ohw,chw->oc", g, xp[window])
            dxp[window] += np.einsum("oc,ohw->chw", w[:, ky, kx, :], g)
    return out, [dxp[:, 1:-1, 1:-1], dw, g.sum(axis=(1, 2))]


class TestConv2dBitEqual:
    # odd sizes, sizes 1 and 2, and stride 2 on odd sizes: every border case
    # of the phase maps' windows
    SIZES = [(1, 1), (1, 5), (4, 1), (2, 2), (3, 3), (5, 6), (7, 9), (8, 8), (9, 4)]

    @staticmethod
    def draw(rng, h, w, stride):
        x = rng.standard_normal((3, h, w))
        wt = rng.standard_normal((2, 3, 3, 3))
        b = rng.standard_normal(2)
        g = rng.standard_normal((2, (h - 1) // stride + 1, (w - 1) // stride + 1))
        return x, wt, b, g

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("h,w", SIZES)
    def test_output_and_grads_match_the_padded_formula(self, rng, stride, h, w):
        # small integers make every sum exact in any order, so the output and
        # all gradients must equal the padded formula's exactly; with one tap
        # alone in the weight the output is that tap's window, border included
        x, _, b, g = (np.round(4.0 * a) for a in self.draw(rng, h, w, stride))
        for ky in range(3):
            for kx in range(3):
                wt = np.zeros((2, 3, 3, 3))
                wt[:, ky, kx, :] = rng.integers(-4, 5, (2, 3))
                out, grads = weighted_sum_grads(lambda *t: T.conv2d(*t, stride=stride),
                                                [x, wt, b], g)
                want_out, want_grads = conv2d_padded(x, wt, b, stride, g)
                np.testing.assert_array_equal(out, want_out, err_msg=f"tap {ky, kx}")
                for got, want in zip(grads, want_grads):
                    np.testing.assert_array_equal(got, want, err_msg=f"tap {ky, kx}")

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("h,w", SIZES)
    def test_output_and_grads_match_six_loops(self, rng, stride, h, w):
        x, wt, b, g = self.draw(rng, h, w, stride)
        out, grads = weighted_sum_grads(lambda *t: T.conv2d(*t, stride=stride), [x, wt, b], g)
        np.testing.assert_allclose(out, conv2d_loops(x, wt, b, stride=stride), rtol=0, atol=1e-12)
        for got, want in zip(grads, conv2d_grads_loops(x, wt, g, stride=stride)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestConv2dUniform:
    """``uniform=o``: the weight's last len(o) input channels read o at every
    pixel, so the op must equal the six loops on x with o broadcast as channels."""

    @pytest.mark.parametrize("n_u", [0, 1, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("h,w", TestConv2dBitEqual.SIZES)
    def test_output_and_grads_match_six_loops_on_the_broadcast_map(self, rng, stride, h, w, n_u):
        x, _, b, g = TestConv2dBitEqual.draw(rng, h, w, stride)
        o = rng.standard_normal(n_u)
        wt = rng.standard_normal((2, 3, 3, 3 + n_u))
        full = np.concatenate([x, np.broadcast_to(o[:, None, None], (n_u, h, w))])
        out, (dx, dw, db) = weighted_sum_grads(
            lambda *t: T.conv2d(*t, stride=stride, uniform=o), [x, wt, b], g)
        want_dx, want_dw, want_db = conv2d_grads_loops(full, wt, g, stride=stride)
        np.testing.assert_allclose(out, conv2d_loops(full, wt, b, stride=stride),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(dx, want_dx[:3], rtol=0, atol=1e-12)
        np.testing.assert_allclose(dw, want_dw, rtol=0, atol=1e-12)
        np.testing.assert_allclose(db, want_db, rtol=0, atol=1e-12)

    def test_an_empty_vector_is_no_uniform_bit_for_bit(self, rng):
        x, wt, b, g = TestConv2dBitEqual.draw(rng, 5, 6, 2)
        plain = weighted_sum_grads(lambda *t: T.conv2d(*t, stride=2), [x, wt, b], g)
        empty = weighted_sum_grads(lambda *t: T.conv2d(*t, stride=2, uniform=np.zeros(0)),
                                   [x, wt, b], g)
        assert_same_bits(empty[0], plain[0])
        for got, want in zip(empty[1], plain[1]):
            assert_same_bits(got, want)

    @pytest.mark.parametrize("uniform,match", [
        (np.zeros(2), r"x has 3 and uniform 2, w expects 4"),
        (np.zeros((1, 1)), r"uniform must be a vector, got shape \(1, 1\)")])
    def test_rejects_a_uniform_the_weight_does_not_read(self, rng, uniform, match):
        with pytest.raises(T.DimensionError, match=match):
            T.conv2d(Tensor(rng.standard_normal((3, 4, 4))),
                     Tensor(rng.standard_normal((2, 3, 3, 4))), uniform=uniform)


class TestTapeHoldsOnlyWhatBackwardReads:
    @staticmethod
    def held_bytes(run):
        """Bytes still allocated after ``run()``, whose result is kept alive."""
        tracemalloc = pytest.importorskip("tracemalloc")
        T.tape_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert result.requires_grad and len(T._tape) > 0
        return held

    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d_keeps_the_phase_maps_and_output(self, rng, stride):
        c, h, w = 8, 32, 32
        x = leaf(rng, c, h, w)
        wt = leaf(rng, c, 3, 3, c)
        held = self.held_bytes(lambda: T.conv2d(x, wt, stride=stride))
        oh, ow = h // stride, w // stride
        side = 2 // stride  # a phase map's extra rows and columns, and its zero tail
        maps = stride * stride * c * ((oh + side) * (ow + side) + side) * 8
        out = c * oh * ow * 8
        # about the input's size: the bound leaves no room for an im2col
        # matrix, 9x the input at stride 1 and 2.25x at stride 2
        assert held <= maps + out + 4096, held
        T.tape_clear()

    def test_conv2d_reads_the_weight_in_place(self, rng):
        # on a 1x1 input every other array is small: the forward allocates
        # nothing of the weight's size and the backward one array, dW
        tracemalloc = pytest.importorskip("tracemalloc")
        x, wt = leaf(rng, 64, 1, 1), leaf(rng, 64, 3, 3, 64)
        T.tape_clear()
        tracemalloc.start()
        try:
            out = T.conv2d(x, wt, stride=2)
            forward = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            T.backward(sum_all(out))
            backward = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert forward < 0.25 * wt.data.nbytes, forward
        assert backward < 1.25 * wt.data.nbytes, backward

    def test_conv2d_drops_an_input_that_needs_no_gradient(self, rng):
        data = rng.standard_normal((5, 12, 12))
        alive = weakref.ref(data)
        x = Tensor(data)
        del data
        wt = leaf(rng, 4, 3, 3, 5)
        T.tape_clear()
        out = T.conv2d(x, wt)
        del x
        gc.collect()
        assert [slot for slot, _ in T._tape] == [out._slot]
        assert alive() is None
        T.backward(sum_all(out))
        assert wt.grad is not None

    def test_attention_keeps_two_logit_sized_arrays(self, rng):
        n_q, n_kv, d = 256, 256, 4
        q, k_t, v = leaf(rng, n_q, d), leaf(rng, d, n_kv), leaf(rng, n_kv, d)
        held = self.held_bytes(lambda: T.attention(q, k_t, v, 1))
        logits = n_q * n_kv * 8
        # the record keeps the probabilities, one logit-sized array, not the
        # logits; with the output that leaves room for one more, no more
        assert held <= 2 * logits + n_q * d * 8 + 4096, held
        T.tape_clear()


# op, its inputs as (shape, needs a gradient), then for each input and for
# the output whether the tape keeps that array: exactly the arrays the op's
# backward reads
_LIVENESS = {
    "add": (T.add, [((3, 4), True), ((3, 4), True)], (False, False), False),
    "sub": (T.sub, [((3, 4), True), ((3, 4), True)], (False, False), False),
    "mul": (T.mul, [((3, 4), True), ((3, 4), True)], (True, True), False),
    "mul_by_constant": (T.mul, [((3, 4), True), ((3, 4), False)], (False, True), False),
    "mul_by_number": (lambda a: T.mul(a, 2.5), [((3, 4), True)], (False,), False),
    "leaky_relu": (T.leaky_relu, [((3, 4), True)], (False,), False),
    "absolute": (T.absolute, [((3, 4), True)], (False,), False),
    "mean_all": (T.mean_all, [((3, 4), True)], (False,), False),
    "take": (lambda x: T.take(x, [0, 5, 5, 11]), [((3, 4), True)], (False,), False),
    "concat": (lambda a, b: T.concat([a, b], axis=1), [((3, 4), True), ((3, 2), True)],
               (False, False), False),
    "split": (lambda x: T.concat(T.split(x, [1, 3], axis=1)[::-1], axis=1),
              [((3, 4), True)], (False,), None),
    "reshape": (lambda x: T.reshape(x, (4, 3)), [((3, 4), True)], (False,), False),
    "transpose": (T.transpose, [((3, 4), True)], (False,), False),
    "matmul": (T.matmul, [((3, 4), True), ((4, 2), True)], (True, True), False),
    # the record also keeps each head's probabilities
    "attention": (lambda q, k_t, v: T.attention(q, k_t, v, 2),
                  [((3, 4), True), ((4, 5), True), ((5, 6), True)], (True, True, True), False),
    "linear": (T.linear, [((3, 4), True), ((4, 2), True), ((2,), True)],
               (True, True, False), False),
    "linear_of_constant": (T.linear, [((3, 4), False), ((4, 2), True), ((2,), True)],
                           (True, False, False), False),
    "softmax_rows": (T.softmax_rows, [((3, 4), True)], (False,), True),
    "layer_norm": (T.layer_norm, [((3, 4), True), ((4,), True), ((4,), True)],
                   (False, True, False), False),
    "layer_norm_of_constant": (T.layer_norm, [((3, 4), False), ((4,), True), ((4,), True)],
                               (False, False, False), False),
    "instance_norm": (T.instance_norm, [((2, 3, 4), True), ((2,), True), ((2,), True)],
                      (False, True, False), False),
    "conv2d": (lambda x, w, b: T.conv2d(x, w, b, stride=2),
               [((2, 5, 6), True), ((3, 3, 3, 2), True), ((3,), True)],
               (False, True, False), False),
    # the record keeps the weight's x columns as a copy, not the weight
    "conv2d_uniform": (lambda x, w, b: T.conv2d(x, w, b, stride=2, uniform=np.ones(2)),
                       [((2, 5, 6), True), ((3, 3, 3, 4), True), ((3,), True)],
                       (False, False, False), False),
    "conv2d_of_constant": (T.conv2d, [((2, 5, 6), False), ((3, 3, 3, 2), True), ((3,), True)],
                           (False, False, False), False),
    "upsample_nearest2x": (T.upsample_nearest2x, [((2, 3, 4), True)], (False,), False),
    "upsample_bilinear2x": (T.upsample_bilinear2x, [((2, 3, 4), True)], (False,), False),
}


class TestLiveness:
    """Once the caller has dropped an op's inputs and output, the tape keeps
    an array alive iff the op's backward reads it."""

    @staticmethod
    def run(op, specs, drop):
        """Weakrefs to each input's array and to the output's, taken after the
        caller dropped them (if ``drop``), and the leaves' gradients."""
        rng = np.random.default_rng(7)
        arrays = [rng.standard_normal(shape) for shape, _ in specs]
        T.tape_clear()
        leaves = [T.parameter(a) if grad else None for a, (_, grad) in zip(arrays, specs)]
        # an input that needs a gradient is a fresh array made by an op that keeps nothing
        inputs = [Tensor(a) if leaf is None else T.mul(leaf, 1.0)
                  for a, leaf in zip(arrays, leaves)]
        del arrays
        refs = [weakref.ref(x.data) for x in inputs]
        out = op(*inputs)
        out_ref = weakref.ref(out.data)
        w = Tensor(np.random.default_rng(8).standard_normal(out.shape))
        loss = sum_all(T.mul(out, w))
        kept = (inputs, out)
        if drop:
            del kept, inputs, out
            gc.collect()
        alive = tuple(ref() is not None for ref in refs)
        out_alive = out_ref() is not None
        T.backward(loss)
        return alive, out_alive, [None if leaf is None else leaf.grad for leaf in leaves]

    @pytest.mark.parametrize("name", sorted(_LIVENESS))
    def test_only_arrays_backward_reads_stay_alive(self, name):
        op, specs, want, want_out = _LIVENESS[name]
        alive, out_alive, grads = self.run(op, specs, drop=True)
        assert alive == want
        if want_out is not None:  # split's parts are the concat's inputs
            assert out_alive == want_out
        _, _, held_grads = self.run(op, specs, drop=False)
        for got, held in zip(grads, held_grads):
            if held is None:
                assert got is None
            else:
                assert_same_bits(got, held)


def test_public_functions_are_pinned():
    # the benchmark's tracer counts every public function of the module as an
    # op call, so a new helper must be private
    public = {name for name, fn in vars(T).items()
              if not name.startswith("_") and inspect.isfunction(fn)
              and fn.__module__ == T.__name__}
    assert public == {
        "absolute", "add", "attention", "backward", "concat", "conv2d", "global_grad_norm",
        "instance_norm", "layer_norm", "leaky_relu", "linear", "matmul", "mean_all", "mul",
        "parameter", "reshape", "softmax_rows", "split", "sub", "take", "tape_clear",
        "transpose", "upsample_bilinear2x", "upsample_nearest2x"}


class TestLeakyRelu:
    # both signs and both zeros: -0.0 >= 0, so it takes the identity branch
    X = np.array([[-3.5, -1e-300, -0.0, 0.0], [1e-300, 2.25, -0.7, 41.0]])

    def test_forward_against_naive(self):
        assert_same_bits(T.leaky_relu(Tensor(self.X)).data, leaky_relu_naive(self.X))

    def test_input_grad_against_naive(self, rng):
        g = rng.standard_normal(self.X.shape)
        _, (gx,) = weighted_sum_grads(T.leaky_relu, [self.X], g)
        assert_same_bits(gx, leaky_relu_backward_naive(self.X, g))


class TestUpsampling:
    def test_nearest_against_loops(self, rng):
        x = rng.standard_normal((2, 3, 4))
        got = T.upsample_nearest2x(Tensor(x)).data
        np.testing.assert_array_equal(got, upsample_nearest2x_loops(x))

    def test_bilinear_against_closed_form(self, rng):
        x = rng.standard_normal((2, 2, 2))
        got = T.upsample_bilinear2x(Tensor(x)).data
        np.testing.assert_allclose(got, upsample_bilinear2x_loops(x), atol=1e-12)

    def test_bilinear_constant_preserved(self):
        x = np.full((1, 4, 4), 2.5)
        got = T.upsample_bilinear2x(Tensor(x)).data
        np.testing.assert_allclose(got, np.full((1, 8, 8), 2.5), atol=1e-12)

    def test_grads(self, rng):
        x = leaf(rng, 2, 3, 3)
        w = Tensor(rng.standard_normal((2, 6, 6)))
        assert grad_check(lambda t: sum_all(T.mul(T.upsample_nearest2x(t), w)), x) < 1e-5
        assert grad_check(lambda t: sum_all(T.mul(T.upsample_bilinear2x(t), w)), x) < 1e-5


class TestInstanceNorm:
    def test_normalizes(self, rng):
        x = rng.standard_normal((3, 8, 8)) * 4.0 + 2.0
        out = T.instance_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3))).data
        np.testing.assert_allclose(out.mean(axis=(1, 2)), np.zeros(3), atol=1e-10)
        np.testing.assert_allclose(out.var(axis=(1, 2)), np.ones(3), atol=1e-3)

    def test_grads(self, rng):
        x = leaf(rng, 2, 3, 4)
        gamma = leaf(rng, 2)
        beta = leaf(rng, 2)
        w = Tensor(rng.standard_normal((2, 3, 4)))

        def f(t, which):
            args = {"x": x, "g": gamma, "b": beta}
            args[which] = t
            out = T.instance_norm(args["x"], args["g"], args["b"])
            return sum_all(T.mul(out, w))

        assert grad_check(lambda t: f(t, "x"), x) < 1e-5
        assert grad_check(lambda t: f(t, "g"), gamma) < 1e-5
        assert grad_check(lambda t: f(t, "b"), beta) < 1e-5

    def test_against_naive(self, rng):
        x = rng.standard_normal((3, 5, 6)) * 2.0 + 1.0
        gamma, beta = rng.standard_normal(3), rng.standard_normal(3)
        got = T.instance_norm(Tensor(x), Tensor(gamma), Tensor(beta)).data
        np.testing.assert_allclose(got, instance_norm_naive(x, gamma, beta), atol=1e-12)

    def test_grads_against_naive(self, rng):
        args = [rng.standard_normal((2, 3, 4)), rng.standard_normal(2), rng.standard_normal(2)]
        w = rng.standard_normal((2, 3, 4))
        _, grads = weighted_sum_grads(T.instance_norm, args, w)
        for i, got in enumerate(grads):
            def loss(a, i=i):
                return float((w * instance_norm_naive(*args[:i], a, *args[i + 1:])).sum())
            np.testing.assert_allclose(got, finite_difference(loss, args[i]), atol=1e-7)

    def test_bit_equal_to_the_out_of_place_formula(self, rng):
        # the per-channel formula over axes (1, 2) of [c, h, w]; the op runs
        # layer_norm's row core on [c, h*w] and must match it bit for bit
        x = rng.standard_normal((8, 16, 16)) * 2.0 + 0.5
        gamma, beta = rng.standard_normal(8), rng.standard_normal(8)
        g = rng.standard_normal(x.shape)
        y, (gx, _, _) = weighted_sum_grads(T.instance_norm, [x, gamma, beta], g)
        mu = x.mean(axis=(1, 2))
        xc = x - mu[:, None, None]
        var = (xc * xc).mean(axis=(1, 2))
        inv = 1.0 / np.sqrt(var + 1e-5)
        xhat = xc * inv[:, None, None]
        assert_same_bits(y, xhat * gamma[:, None, None] + beta[:, None, None])
        gxg = g * gamma[:, None, None]
        term = gxg - gxg.mean(axis=(1, 2), keepdims=True) \
            - xhat * (gxg * xhat).mean(axis=(1, 2), keepdims=True)
        assert_same_bits(gx, term * inv[:, None, None])


class TestElementwise:
    def test_add_rejects_broadcast(self):
        with pytest.raises(T.DimensionError):
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))

    def test_transpose_is_rank_2(self):
        with pytest.raises(T.DimensionError, match="rank 2"):
            T.transpose(Tensor(np.zeros((2, 3, 4))))

    def test_scalar_ops(self, rng):
        x = rng.standard_normal((3, 3))
        np.testing.assert_allclose(T.mul(Tensor(x), 2.0).data, 2 * x)

    @pytest.mark.parametrize("name", ["leaky_relu", "absolute", "mean_all", "take", "concat",
                                      "split", "reshape", "transpose", "linear_x", "linear_w",
                                      "linear_b", "linear_no_bias"])
    def test_grads(self, rng, name):
        w = Tensor(rng.standard_normal((4, 6)))
        x = leaf(rng, 4, 6)
        cases = {
            "leaky_relu": lambda t: sum_all(T.mul(T.leaky_relu(t), w)),
            "absolute": lambda t: sum_all(T.mul(T.absolute(t), w)),
            "mean_all": lambda t: T.mean_all(T.mul(t, w)),
            "take": lambda t: sum_all(T.take(t, np.array([0, 5, 11, 23, 23]))),
            "concat": lambda t: sum_all(T.mul(T.concat([t, t], axis=1), w_cat)),
            # the middle part is left unused: its slice of the gradient stays zero
            "split": lambda t: sum_all(T.mul(T.concat(
                [T.split(t, [1, 2, 3], axis=1)[i] for i in (2, 0)], axis=1), w_split)),
            "reshape": lambda t: sum_all(T.mul(T.reshape(t, (2, 12)), w_flat)),
            "transpose": lambda t: sum_all(T.mul(T.transpose(t), w_t)),
            "linear_x": lambda t: sum_all(T.mul(T.linear(t, w_lin, bias_r), w)),
            "linear_w": lambda t: sum_all(T.mul(T.linear(x, t, bias_r), w)),
            "linear_b": lambda t: sum_all(T.mul(T.linear(x, w_lin, t), w)),
            "linear_no_bias": lambda t: sum_all(T.mul(T.linear(t, w_lin), w)),
        }
        bias_r = leaf(rng, 6)
        w_cat = Tensor(rng.standard_normal((4, 12)))
        w_split = Tensor(rng.standard_normal((4, 4)))
        w_flat = Tensor(rng.standard_normal((2, 12)))
        w_t = Tensor(rng.standard_normal((6, 4)))
        w_lin = leaf(rng, 6, 6)
        subject = {"linear_w": w_lin, "linear_b": bias_r}.get(name, x)
        assert grad_check(cases[name], subject) < 1e-5


class TestLinear:
    def test_against_loops_plus_bias(self, rng):
        x = rng.standard_normal((5, 3))
        w = rng.standard_normal((3, 4))
        b = rng.standard_normal(4)
        got = T.linear(Tensor(x), Tensor(w), Tensor(b)).data
        np.testing.assert_allclose(got, matmul_loops(x, w) + b, rtol=0, atol=1e-12)

    def test_one_tape_op(self, rng):
        T.tape_clear()
        T.linear(leaf(rng, 2, 3), leaf(rng, 3, 4), leaf(rng, 4))
        assert len(T._tape) == 1
        T.tape_clear()

    @pytest.mark.parametrize("w_shape, b_shape", [((4, 2), (2,)), ((3, 2), (3,))])
    def test_shape_mismatch_raises(self, w_shape, b_shape):
        with pytest.raises(T.DimensionError, match="linear"):
            T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros(w_shape)), Tensor(np.zeros(b_shape)))


class TestSplit:
    @pytest.mark.parametrize("axis, sizes", [(0, [1, 3]), (1, [2, 0, 4]), (1, [6])])
    def test_concat_of_split_returns_x(self, rng, axis, sizes):
        x = Tensor(rng.standard_normal((4, 6)))
        parts = T.split(x, sizes, axis=axis)
        assert [p.shape[axis] for p in parts] == sizes
        np.testing.assert_array_equal(T.concat(parts, axis=axis).data, x.data)

    @pytest.mark.parametrize("sizes", [[2, 3], [4, 3], [7, -1], []])
    def test_sizes_must_add_up(self, sizes):
        with pytest.raises(T.DimensionError, match="do not add up"):
            T.split(Tensor(np.zeros((2, 6))), sizes, axis=1)


class TestGraphSemantics:
    def test_fan_out_sums_contributions(self, rng):
        # y = x*x + x used twice: dy/dx = 2x + 1
        x = leaf(rng, 5)
        y = sum_all(T.add(T.mul(x, x), x))
        T.backward(y)
        np.testing.assert_allclose(x.grad, 2 * x.data + 1, atol=1e-12)

    def test_unused_branch_zero_grad(self, rng):
        x = leaf(rng, 3)
        z = leaf(rng, 3)
        _unused = T.absolute(z)
        y = sum_all(x)
        T.backward(y)
        np.testing.assert_array_equal(x.grad, np.ones(3))
        assert z.grad is None

    def test_no_grad_detaches(self, rng):
        x = leaf(rng, 3)
        with T.no_grad():
            y = T.mul(x, 2.0)
        assert not y.requires_grad
        loss = sum_all(x)
        T.backward(loss)
        assert x.grad is not None

    def test_no_grad_tensors_carry_no_slot(self, rng):
        x, w = Tensor(rng.standard_normal((2, 3))), leaf(rng, 3, 2)
        with T.no_grad():
            y = T.linear(x, w)
        assert x._slot is None and y._slot is None and y.grad is None
        y.grad = None
        with pytest.raises(RuntimeError, match="needs none"):
            y.grad = np.zeros((2, 2))

    def test_backward_needs_scalar(self, rng):
        x = leaf(rng, 2, 2)
        y = T.mul(x, 3.0)
        with pytest.raises(T.DimensionError):
            T.backward(y)

    def test_one_tensor_in_both_inputs_of_add_and_mul(self, rng):
        # add gives one g to both inputs; mul hands over two fresh products
        x = leaf(rng, 4, 3)
        w = Tensor(rng.standard_normal((4, 3)))
        T.backward(sum_all(T.mul(T.add(x, x), w)))
        np.testing.assert_array_equal(x.grad, 2.0 * w.data)
        x.grad = None
        T.backward(sum_all(T.mul(T.mul(x, x), w)))
        np.testing.assert_allclose(x.grad, 2.0 * x.data * w.data, rtol=1e-15, atol=0)
        assert grad_check(lambda t: sum_all(T.mul(T.add(t, t), w)), x) < 1e-5
        assert grad_check(lambda t: sum_all(T.mul(T.mul(t, t), w)), x) < 1e-5

    def test_add_gives_each_input_its_own_gradient(self, rng):
        # x is used before the add too: that use's backward runs after the add's
        # and adds into x.grad, which must not be y.grad
        x, y = leaf(rng, 3), leaf(rng, 3)
        w, w2 = Tensor(rng.standard_normal(3)), Tensor(rng.standard_normal(3))
        early = T.mul(x, w2)
        T.backward(T.add(sum_all(T.mul(T.add(x, y), w)), sum_all(early)))
        np.testing.assert_array_equal(y.grad, w.data)
        np.testing.assert_array_equal(x.grad, w.data + w2.data)
        assert not np.shares_memory(x.grad, y.grad)

    def test_backward_empties_the_tape_and_keeps_only_leaf_grads(self, rng):
        x = leaf(rng, 3, 4)
        w = leaf(rng, 4, 2)
        T.tape_clear()
        h = T.leaky_relu(T.linear(x, w))
        parts = T.split(h, [1, 1], axis=1)
        loss = T.mean_all(T.add(T.mul(parts[0], parts[1]), T.absolute(parts[0])))
        recorded = [slot for slot, _ in T._tape]
        assert loss._slot in recorded and len(recorded) == 8
        T.backward(loss)
        assert T._tape == []
        assert all(slot.grad is None for slot in recorded)
        assert x.grad is not None and w.grad is not None

    def test_backward_frees_activations_as_it_passes_them(self):
        # 16 Linear + leaky_relu layers at [1024, 64]: keeping every record and
        # gradient to the end of the sweep peaks near twice the forward's memory
        tracemalloc = pytest.importorskip("tracemalloc")
        from raypatch.blocks import Linear

        rng = np.random.default_rng(0)
        layers = [Linear(rng, 64, 64) for _ in range(16)]
        x = Tensor(rng.standard_normal((1024, 64)))
        T.tape_clear()
        tracemalloc.start()
        try:
            h = x
            for lin in layers:
                h = T.leaky_relu(lin(h))
            loss = T.mean_all(h)
            del h
            forward = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            T.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * forward, (peak, forward)
        assert all(lin.w.grad is not None for lin in layers)

    def test_grad_check_rejects_bad_step(self, rng):
        x = leaf(rng, 2)
        with pytest.raises(ValueError):
            grad_check(lambda t: sum_all(t), x, step=1e-2)


class TestFlopCounting:
    def test_matmul_flops(self, rng):
        from raypatch import flops
        a, b = Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((4, 5)))
        with flops.FlopCounter() as fc:
            T.matmul(a, b)
        assert fc.total == 2 * 3 * 4 * 5

    def test_conv_flops_and_stages(self, rng):
        from raypatch import flops
        x = Tensor(rng.standard_normal((2, 8, 8)))
        w = Tensor(rng.standard_normal((4, 3, 3, 2)))
        with flops.FlopCounter() as fc:
            with flops.stage("conv"):
                T.conv2d(x, w, stride=2)
        assert fc.total == 2 * 4 * 2 * 9 * 4 * 4
        assert fc.by_stage == {"conv": fc.total}
