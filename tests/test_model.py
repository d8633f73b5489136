"""Model wiring: shapes, FLOP parity, gradients end to end, training dynamics."""

import numpy as np
import pytest

from raypatch import datasynth as ds
from raypatch import flops
from raypatch import model as M
from raypatch import tensor as T
from raypatch.costmodel import full_model_flops


def tiny_cfg(**kw):
    base = dict(height=8, width=8, k=2, d_model=16, heads=2, d_k=8, d_v=8,
                n_freq_origin=2, n_freq_dir=2, feature_channels=8,
                downsamplings=2, seed=0)
    base.update(kw)
    return M.ModelConfig(**base)


def scene_views(height=8, width=8, seed=1):
    return ds.render_scene_views(ds.generate_scene(seed), height, width)


class TestConfig:
    def test_rejects_non_power_of_two_k(self):
        with pytest.raises(M.ModelConfigError, match="power of two"):
            tiny_cfg(k=3)

    def test_rejects_k_not_dividing(self):
        with pytest.raises(M.ModelConfigError):
            M.ModelConfig(height=10, width=10, k=4, feature_channels=32)

    def test_rejects_feature_channels_not_divisible_by_k(self):
        with pytest.raises(M.ModelConfigError, match="feature_channels"):
            tiny_cfg(k=4, feature_channels=6)

    def test_rejects_unknown_decoder(self):
        with pytest.raises(M.ModelConfigError, match="decoder"):
            M.LightFieldModel(tiny_cfg(), "deconv")

    def test_tokens_per_view(self):
        assert tiny_cfg().tokens_per_view() == 4  # 8*8 / 4^2


class TestForward:
    @pytest.mark.parametrize("kind", ["raypatch", "pixel"])
    def test_output_shape(self, kind):
        cfg = tiny_cfg()
        m = M.LightFieldModel(cfg, kind)
        views = scene_views()
        inputs, targets = M.scene_to_views(views)
        z = m.encode(inputs, training=False)
        assert z.shape == (4, 16)
        out = m.decode(z, targets[0].intrinsics, targets[0].pose)
        assert out.shape == (4, 8, 8)

    def test_pixel_chunking_is_exact(self):
        cfg = tiny_cfg()
        m = M.LightFieldModel(cfg, "pixel")
        views = scene_views()
        inputs, targets = M.scene_to_views(views)
        with T.no_grad():
            z = m.encode(inputs)
            full = m.decode(z, targets[0].intrinsics, targets[0].pose)
            parts = m.decode(z, targets[0].intrinsics, targets[0].pose, chunk=7)
        np.testing.assert_allclose(parts.data, full.data, atol=1e-12)

    @pytest.mark.parametrize("kind,k", [("raypatch", 1), ("raypatch", 2),
                                        ("raypatch", 4), ("pixel", 1)])
    def test_instrumented_flops_match_layer_spec(self, kind, k):
        cfg = tiny_cfg(height=16, width=16, k=k, feature_channels=16)
        m = M.LightFieldModel(cfg, kind)
        views = scene_views(16, 16)
        inputs, targets = M.scene_to_views(views)
        T.tape_clear()
        with flops.FlopCounter() as fc:
            z = m.encode(inputs, training=True)
            m.decode(z, targets[0].intrinsics, targets[0].pose, training=True)
        analytic = full_model_flops(m.encoder.layer_spec(1) +
                                    m.decoder.layer_spec(cfg.tokens_per_view()))
        assert fc.total == pytest.approx(analytic, rel=1e-12)

    def test_query_count_drops_by_k_squared(self):
        views = scene_views(16, 16)
        inputs, targets = M.scene_to_views(views)
        counts = {}
        for k in (1, 4):
            m = M.LightFieldModel(tiny_cfg(height=16, width=16, k=k,
                                           feature_channels=16), "raypatch")
            with T.no_grad(), flops.FlopCounter() as fc:
                z = m.encode(inputs)
                m.decode(z, targets[0].intrinsics, targets[0].pose)
            counts[k] = fc.query_counts["decoder"]
        assert counts[1] == 256
        assert counts[1] == counts[4] * 16

    def test_same_seed_same_weights(self):
        a = M.LightFieldModel(tiny_cfg(), "raypatch")
        b = M.LightFieldModel(tiny_cfg(), "raypatch")
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_decoder_variants_share_encoder_init(self):
        a = M.LightFieldModel(tiny_cfg(), "raypatch")
        b = M.LightFieldModel(tiny_cfg(), "pixel")
        np.testing.assert_array_equal(a.encoder.convs[0].conv.w.data,
                                      b.encoder.convs[0].conv.w.data)


class TestLosses:
    def test_split_output_layout(self):
        arr = np.arange(4 * 2 * 3, dtype=np.float64).reshape(4, 2, 3)
        rgb, logd = M.split_output(T.Tensor(arr))
        np.testing.assert_array_equal(rgb.data, arr[:3])
        np.testing.assert_array_equal(logd.data, arr[3])

    def test_loss_depth_ignores_masked_pixels_exactly(self):
        rng = np.random.default_rng(0)
        depth = rng.uniform(1.0, 5.0, size=(4, 4)).astype(np.float64)
        depth[0, 0] = np.nan
        depth[3, 2] = np.nan
        pred = T.Tensor(rng.standard_normal((4, 4)))
        base = M.loss_depth(pred, depth).item()
        bumped = pred.data.copy()
        bumped[0, 0] += 100.0
        bumped[3, 2] -= 50.0
        assert M.loss_depth(T.Tensor(bumped), depth).item() == base

    def test_loss_depth_all_masked_returns_none(self):
        assert M.loss_depth(T.Tensor(np.zeros((2, 2))), np.full((2, 2), np.nan)) is None

    def test_loss_total_weighting(self):
        rng = np.random.default_rng(1)
        out = T.Tensor(rng.standard_normal((4, 3, 3)))
        image = rng.uniform(size=(3, 3, 3))
        depth = rng.uniform(1.0, 2.0, size=(3, 3))
        total, parts = M.loss_total(out, image, depth)
        assert total.item() == pytest.approx(parts["depth"] + M.RGB_WEIGHT * parts["rgb"])

    def test_psnr_known_values(self):
        target = np.zeros((3, 4, 4))
        assert M.psnr(target, target) == M.PSNR_CAP
        pred = np.full((3, 4, 4), 0.1)
        assert M.psnr(pred, target) == pytest.approx(20.0)

    def test_psnr_clamps_before_scoring(self):
        target = np.zeros((3, 2, 2))
        assert M.psnr(np.full((3, 2, 2), -7.0), target) == M.PSNR_CAP


class TestGradients:
    def _loss_fn(self, m, views):
        inputs, targets = M.scene_to_views(views)

        def f(_leaf):
            z = m.encode(inputs, training=True)
            out = m.decode(z, targets[0].intrinsics, targets[0].pose, training=True)
            total, _ = M.loss_total(out, targets[0].image, targets[0].depth)
            return total

        return f

    @pytest.mark.parametrize("kind", ["raypatch", "pixel"])
    def test_every_param_gets_grad(self, kind):
        m = M.LightFieldModel(tiny_cfg(), kind)
        views = scene_views()
        f = self._loss_fn(m, views)
        T.tape_clear()
        loss = f(None)
        T.backward(loss)
        for name, p in m.named_parameters():
            assert p.grad is not None, f"{name} got no gradient"

    @pytest.mark.parametrize("kind", ["raypatch", "pixel"])
    def test_end_to_end_gradcheck_small_leaves(self, kind):
        m = M.LightFieldModel(tiny_cfg(), kind)
        views = scene_views()
        f = self._loss_fn(m, views)
        named = dict(m.named_parameters())
        leaves = ["dec.embed.b", "enc.block0.ln1.gamma"]
        leaves.append("dec.final.b" if kind == "raypatch" else "dec.head2.b")
        for name in leaves:
            err = T.grad_check(f, named[name], step=1e-5)
            assert err <= 1e-4, f"{name}: rel err {err}"

    def test_end_to_end_gradcheck_input_image(self):
        m = M.LightFieldModel(tiny_cfg(), "raypatch")
        views = scene_views()
        img = T.parameter(views[0].image.astype(np.float64))
        targets = [v for v in views if v.role == 1]

        def f(leaf):
            z = m.encode([(leaf, views[0].intrinsics, views[0].pose)],
                         training=True)
            out = m.decode(z, targets[0].intrinsics, targets[0].pose, training=True)
            total, _ = M.loss_total(out, targets[0].image, targets[0].depth)
            return total

        assert T.grad_check(f, img, step=1e-5) <= 1e-4


class TestTraining:
    def test_adam_first_step_magnitude(self):
        p = T.parameter(np.zeros(3))
        p.grad = np.array([0.3, -0.2, 0.1])
        opt = M.Adam([("p", p)], lr=0.01, clip=1e9)
        opt.step()
        # bias-corrected first step is lr * sign(g) up to eps
        np.testing.assert_allclose(p.data, [-0.01, 0.01, -0.01], atol=1e-6)

    def test_adam_global_clip(self):
        p = T.parameter(np.zeros(4))
        p.grad = np.full(4, 1e6)
        opt = M.Adam([("p", p)], lr=0.01, clip=1.0)
        opt.step()
        # clipping rescales, Adam renormalizes; update must stay ~lr sized
        assert np.abs(p.data).max() <= 0.011

    def test_train_step_updates_params_and_running_stats(self):
        m = M.LightFieldModel(tiny_cfg(), "raypatch")
        views = scene_views()
        before = {n: p.data.copy() for n, p in m.named_parameters()}
        opt = M.Adam(m.named_parameters(), lr=1e-3)
        metrics = M.train_step(m, views, opt)
        assert np.isfinite(metrics["loss"])
        moved = [n for n, p in m.named_parameters()
                 if not np.array_equal(before[n], p.data)]
        assert len(moved) == len(before)
        for name, buf in m.named_buffers():
            if name.endswith("running_mean"):
                assert np.abs(buf).sum() > 0, name

    def test_evaluate_leaves_model_alone(self):
        m = M.LightFieldModel(tiny_cfg(), "raypatch")
        views = scene_views()
        # settle BN running stats so eval stats are sane
        opt = M.Adam(m.named_parameters(), lr=0.0)
        M.train_step(m, views, opt)
        before = {n: p.data.copy() for n, p in m.named_parameters()}
        agg = M.evaluate(m, [views])
        assert set(agg) == {"loss", "psnr"}
        assert len(T._tape) == 0
        for n, p in m.named_parameters():
            np.testing.assert_array_equal(before[n], p.data)

    def test_single_scene_overfit_smoke(self):
        cfg = tiny_cfg(height=16, width=16, k=2, d_model=32, d_k=16, d_v=16,
                       feature_channels=16, seed=3)
        m = M.LightFieldModel(cfg, "raypatch")
        views = scene_views(16, 16, seed=5)
        opt = M.Adam(m.named_parameters(), lr=3e-3)
        first = M.train_step(m, views, opt)["loss"]
        last = None
        for _ in range(40):
            last = M.train_step(m, views, opt)["loss"]
        assert last < 0.5 * first, f"no training progress: {first} -> {last}"
