"""Tensor core: forward ops against naive oracles, backward via grad_check."""

import numpy as np
import pytest

from raypatch import tensor as T
from raypatch.tensor import Tensor

from reference_impls import (
    conv2d_loops,
    layer_norm_naive,
    matmul_loops,
    softmax_rows_naive,
    upsample_bilinear2x_loops,
    upsample_nearest2x_loops,
)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def leaf(rng, *shape):
    return T.parameter(rng.standard_normal(shape))


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
        assert T.grad_check(lambda t: T.sum_all(T.matmul(t, b)), a) < 1e-5
        assert T.grad_check(lambda t: T.sum_all(T.matmul(a, t)), b) < 1e-5


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
        assert T.grad_check(lambda t: T.sum_all(T.mul(T.softmax_rows(t), w)), x) < 1e-5


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
            return T.sum_all(T.mul(T.layer_norm(args["x"], args["g"], args["b"]), w))

        assert T.grad_check(lambda t: loss_through(t, "x"), x) < 1e-5
        assert T.grad_check(lambda t: loss_through(t, "g"), gamma) < 1e-5
        assert T.grad_check(lambda t: loss_through(t, "b"), beta) < 1e-5


class TestConv2d:
    @pytest.mark.parametrize("stride", [1, 2])
    def test_against_six_loops(self, rng, stride):
        x = rng.standard_normal((2, 5, 6))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride).data
        np.testing.assert_allclose(got, conv2d_loops(x, w, b, stride=stride), atol=1e-12)

    def test_stride2_output_is_ceil_half(self, rng):
        x = Tensor(rng.standard_normal((1, 7, 10)))
        w = Tensor(rng.standard_normal((4, 1, 3, 3)))
        out = T.conv2d(x, w, stride=2)
        assert out.shape == (4, 4, 5)

    def test_delta_kernel_recovers_input(self, rng):
        # identity kernel: center tap 1, elsewhere 0
        x = rng.standard_normal((3, 6, 6))
        w = np.zeros((3, 3, 3, 3))
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        got = T.conv2d(Tensor(x), Tensor(w)).data
        np.testing.assert_array_equal(got, x)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_grads(self, rng, stride):
        x = leaf(rng, 2, 4, 5)
        w = leaf(rng, 3, 2, 3, 3)
        b = leaf(rng, 3)
        for t, f in [
            (x, lambda t: T.sum_all(T.conv2d(t, w, b, stride=stride))),
            (w, lambda t: T.sum_all(T.conv2d(x, t, b, stride=stride))),
            (b, lambda t: T.sum_all(T.conv2d(x, w, t, stride=stride))),
        ]:
            assert T.grad_check(f, t) < 1e-5


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
        assert T.grad_check(lambda t: T.sum_all(T.mul(T.upsample_nearest2x(t), w)), x) < 1e-5
        assert T.grad_check(lambda t: T.sum_all(T.mul(T.upsample_bilinear2x(t), w)), x) < 1e-5


class TestBatchNorm:
    def test_train_mode_normalizes(self, rng):
        x = rng.standard_normal((3, 8, 8)) * 4.0 + 2.0
        st = T.BatchNormState(3)
        out = T.batch_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), st, training=True).data
        np.testing.assert_allclose(out.mean(axis=(1, 2)), np.zeros(3), atol=1e-10)
        np.testing.assert_allclose(out.var(axis=(1, 2)), np.ones(3), atol=1e-3)

    def test_running_stats_closed_form(self, rng):
        # after t identical updates: mean_t = (1 - 0.9^t) mu, var_t = 0.9^t + (1 - 0.9^t) v
        x = rng.standard_normal((2, 4, 4)) * 3.0 + 1.5
        mu = x.mean(axis=(1, 2))
        v = x.var(axis=(1, 2))
        st = T.BatchNormState(2)
        g, b = Tensor(np.ones(2)), Tensor(np.zeros(2))
        steps = 7
        for _ in range(steps):
            T.batch_norm(Tensor(x), g, b, st, training=True)
        decay = 0.9 ** steps
        np.testing.assert_allclose(st.running_mean, (1 - decay) * mu, atol=1e-12)
        np.testing.assert_allclose(st.running_var, decay * 1.0 + (1 - decay) * v, atol=1e-12)

    def test_eval_after_constant_batch_is_affine(self, rng):
        # train long enough on one batch and eval reproduces the train output
        x = rng.standard_normal((2, 5, 5))
        st = T.BatchNormState(2)
        g, b = Tensor(np.ones(2)), Tensor(np.zeros(2))
        for _ in range(400):
            train_out = T.batch_norm(Tensor(x), g, b, st, training=True).data
        eval_out = T.batch_norm(Tensor(x), g, b, st, training=False).data
        np.testing.assert_allclose(eval_out, train_out, atol=1e-7)

    @pytest.mark.parametrize("training", [True, False])
    def test_grads(self, rng, training):
        x = leaf(rng, 2, 3, 4)
        gamma = leaf(rng, 2)
        beta = leaf(rng, 2)
        w = Tensor(rng.standard_normal((2, 3, 4)))

        def f(t, which):
            st = T.BatchNormState(2)  # fresh state: keep eval stats fixed at (0, 1)
            args = {"x": x, "g": gamma, "b": beta}
            args[which] = t
            out = T.batch_norm(args["x"], args["g"], args["b"], st, training=training)
            return T.sum_all(T.mul(out, w))

        assert T.grad_check(lambda t: f(t, "x"), x) < 1e-5
        assert T.grad_check(lambda t: f(t, "g"), gamma) < 1e-5
        assert T.grad_check(lambda t: f(t, "b"), beta) < 1e-5


class TestElementwise:
    def test_add_rejects_broadcast(self):
        with pytest.raises(T.DimensionError):
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))

    def test_scalar_ops(self, rng):
        x = rng.standard_normal((3, 3))
        np.testing.assert_allclose(T.mul(Tensor(x), 2.0).data, 2 * x)
        np.testing.assert_allclose(T.add(Tensor(x), -1.5).data, x - 1.5)

    @pytest.mark.parametrize("name", ["leaky_relu", "absolute", "mean_all", "take", "concat",
                                      "reshape", "transpose", "bias_add_rows"])
    def test_grads(self, rng, name):
        w = Tensor(rng.standard_normal((4, 6)))
        x = leaf(rng, 4, 6)
        cases = {
            "leaky_relu": lambda t: T.sum_all(T.mul(T.leaky_relu(t), w)),
            "absolute": lambda t: T.sum_all(T.mul(T.absolute(t), w)),
            "mean_all": lambda t: T.mean_all(T.mul(t, w)),
            "take": lambda t: T.sum_all(T.take(t, np.array([0, 5, 11, 23, 23]))),
            "concat": lambda t: T.sum_all(T.mul(T.concat([t, t], axis=1), w_cat)),
            "reshape": lambda t: T.sum_all(T.mul(T.reshape(t, (2, 12)), w_flat)),
            "transpose": lambda t: T.sum_all(T.mul(T.transpose(t, (1, 0)), w_t)),
            "bias_add_rows": lambda t: T.sum_all(T.mul(T.bias_add_rows(t, bias_r), w)),
        }
        bias_r = Tensor(rng.standard_normal(6))
        w_cat = Tensor(rng.standard_normal((4, 12)))
        w_flat = Tensor(rng.standard_normal((2, 12)))
        w_t = Tensor(rng.standard_normal((6, 4)))
        assert T.grad_check(cases[name], x) < 1e-5


class TestGraphSemantics:
    def test_fan_out_sums_contributions(self, rng):
        # y = x*x + x used twice: dy/dx = 2x + 1
        x = leaf(rng, 5)
        y = T.sum_all(T.add(T.mul(x, x), x))
        T.backward(y)
        np.testing.assert_allclose(x.grad, 2 * x.data + 1, atol=1e-12)

    def test_unused_branch_zero_grad(self, rng):
        x = leaf(rng, 3)
        z = leaf(rng, 3)
        _unused = T.absolute(z)
        y = T.sum_all(x)
        T.backward(y)
        np.testing.assert_array_equal(x.grad, np.ones(3))
        assert z.grad is None

    def test_no_grad_detaches(self, rng):
        x = leaf(rng, 3)
        with T.no_grad():
            y = T.mul(x, 2.0)
        assert not y.requires_grad
        loss = T.sum_all(x)
        T.backward(loss)
        assert x.grad is not None

    def test_backward_needs_scalar(self, rng):
        x = leaf(rng, 2, 2)
        y = T.mul(x, 3.0)
        with pytest.raises(T.DimensionError):
            T.backward(y)

    def test_grad_check_rejects_bad_step(self, rng):
        x = leaf(rng, 2)
        with pytest.raises(ValueError):
            T.grad_check(lambda t: T.sum_all(t), x, step=1e-2)


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
        w = Tensor(rng.standard_normal((4, 2, 3, 3)))
        with flops.FlopCounter() as fc:
            with flops.stage("conv"):
                T.conv2d(x, w, stride=2)
        assert fc.total == 2 * 4 * 2 * 9 * 4 * 4
        assert fc.by_stage == {"conv": fc.total}
