"""Model wiring: shapes, FLOP parity, gradients end to end, training dynamics."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from raypatch import datasynth as ds
from raypatch import flops
from raypatch import geometry as G
from raypatch import model as M
from raypatch import tensor as T
from raypatch.blocks import uniform_init
from raypatch.costmodel import full_model_flops

from reference_impls import conv2d_loops, grad_check


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

    @pytest.mark.parametrize("h,w,k", [(32, 32, 5), (32, 32, 0), (16, 24, 7)])
    def test_rejects_bad_patch_grid(self, h, w, k):
        with pytest.raises(M.ModelConfigError, match=f"power of two, got {k}$"):
            tiny_cfg(height=h, width=w, k=k)

    def test_rejects_d_model_below_the_conv_schedule(self):
        with pytest.raises(M.ModelConfigError,
                           match=r"^d_model must be at least 2 \*\* downsamplings = 4, got 3$"):
            tiny_cfg(d_model=3)

    def test_rejects_k_not_dividing(self):
        with pytest.raises(M.ModelConfigError):
            M.ModelConfig(height=10, width=10, k=4, feature_channels=32)

    def test_rejects_feature_channels_not_divisible_by_k(self):
        with pytest.raises(M.ModelConfigError, match="feature_channels"):
            tiny_cfg(k=4, feature_channels=6)

    @pytest.mark.parametrize("downsamplings", [0, -1])
    def test_rejects_fewer_than_one_downsampling(self, downsamplings):
        with pytest.raises(M.ModelConfigError, match="downsamplings"):
            tiny_cfg(downsamplings=downsamplings)

    @pytest.mark.parametrize("field,value", [
        ("feature_channels", 0), ("n_freq_origin", -1), ("n_freq_dir", -1),
        ("enc_blocks", -1), ("dec_blocks", 0), ("height", 0), ("width", 0), ("height", -8),
        ("heads", 0), ("d_k", 0), ("d_v", -1), ("seed", -1)])
    def test_rejects_field_below_its_minimum(self, field, value):
        with pytest.raises(M.ModelConfigError, match=f"^{field} must be at least"):
            tiny_cfg(**{field: value})

    def test_rejects_empty_ray_encoding(self):
        with pytest.raises(M.ModelConfigError, match="n_freq_origin \\+ n_freq_dir"):
            tiny_cfg(n_freq_origin=0, n_freq_dir=0)

    def test_accepts_the_smallest_valid_fields(self):
        cfg = tiny_cfg(n_freq_origin=0, n_freq_dir=1, enc_blocks=0, dec_blocks=1)
        m = M.LightFieldModel(cfg, "raypatch")
        inputs, targets = M.scene_to_views(scene_views())
        with T.no_grad():
            out = m.decode(m.encode(inputs), targets[0].intrinsics, targets[0].pose)
        assert out.shape == (4, 8, 8)

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
        z = m.encode(inputs)
        assert z.shape == (4, 16)
        out = m.decode(z, targets[0].intrinsics, targets[0].pose)
        assert out.shape == (4, 8, 8)

    @pytest.mark.parametrize("kind,k,mode", [
        pytest.param(kind, k, mode, id=f"{kind}-{k}" + f"-{mode}" * bool(mode))
        for kind, k, mode in [("raypatch", 1, ""), ("raypatch", 2, ""),
                              ("raypatch", 4, ""), ("pixel", 1, ""),
                              ("raypatch", 1, "train_step"), ("raypatch", 4, "train_step"),
                              ("pixel", 1, "train_step"),
                              ("raypatch", 1, "no_grad_views"),
                              ("raypatch", 4, "no_grad_views"),
                              ("pixel", 1, "no_grad_views")]])
    def test_instrumented_flops_match_layer_spec(self, kind, k, mode):
        """One encode and one decode; a whole train step (one encode, two recorded
        decodes); or one encode and 1-3 no-grad decodes. Every encode projects
        its scene's K/V once, recorded or not."""
        cfg = tiny_cfg(height=16, width=16, k=k, feature_channels=16)
        m = M.LightFieldModel(cfg, kind)
        views = scene_views(16, 16)
        inputs, targets = M.scene_to_views(views)
        n_kv = cfg.tokens_per_view()
        T.tape_clear()
        if mode == "no_grad_views":
            for n_views in (1, 2, 3):
                with T.no_grad(), flops.FlopCounter() as fc:
                    z = m.encode(inputs)
                    for i in range(n_views):
                        m.decode(z, targets[i % 2].intrinsics, targets[i % 2].pose)
                analytic = full_model_flops(m.encoder.layer_spec(1) +
                                            m.decoder.layer_spec(n_kv, n_views))
                assert fc.total == pytest.approx(analytic, rel=1e-12), n_views
            return
        with flops.FlopCounter() as fc:
            if mode == "train_step":
                M.train_step(m, views, M.Adam(m.named_parameters(), 1e-4))
            else:
                z = m.encode(inputs)
                m.decode(z, targets[0].intrinsics, targets[0].pose)
        n_views = 2 if mode == "train_step" else 1  # a train step decodes both targets
        analytic = full_model_flops(m.encoder.layer_spec(1) +
                                    m.decoder.layer_spec(n_kv, n_views))
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
        np.testing.assert_array_equal(a.encoder.convs[0].w.data, b.encoder.convs[0].w.data)

    @pytest.mark.parametrize("conv", [M.Conv3x3, M.ConvBlock])
    def test_conv_weight_is_the_oihw_draw_stored_tap_major(self, conv):
        # the same values as a [c_out, c_in, 3, 3] draw, in conv2d's layout
        got = conv(np.random.default_rng(4), 3, 5, stride=2).w.data
        want = uniform_init(np.random.default_rng(4), 9 * 3, (5, 3, 3, 3)).transpose(0, 2, 3, 1)
        assert got.shape == (5, 3, 3, 3) and got.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(got, want)


class TestRayFeatures:
    """The encoder and decoders reach the ray encodings through the names
    ``raypatch.model`` binds: the benchmark's spans wrap those names."""

    @pytest.mark.parametrize("kind", ["raypatch", "pixel"])
    def test_encode_and_decode_call_the_bound_names(self, kind, monkeypatch):
        calls = {"ray_feature_map": 0, "build_queries": 0}
        for name in calls:
            def counted(*args, _fn=getattr(M, name), _name=name, **kw):
                calls[_name] += 1
                return _fn(*args, **kw)
            monkeypatch.setattr(M, name, counted)
        m = M.LightFieldModel(tiny_cfg(), kind)
        views = scene_views()
        z = m.encode([(v.image, v.intrinsics, v.pose) for v in views])
        assert calls == {"ray_feature_map": len(views), "build_queries": 0}
        m.decode(z, views[0].intrinsics, views[0].pose)
        assert calls == {"ray_feature_map": len(views), "build_queries": 1}

    def test_encoder_input_is_the_image_and_direction_channels(self, monkeypatch):
        seen = []
        conv2d = T.conv2d

        def recording(x, *args, **kw):
            seen.append((x.data.copy(), kw.get("uniform")))
            return conv2d(x, *args, **kw)

        monkeypatch.setattr(T, "conv2d", recording)
        view = scene_views()[0]
        M.LightFieldModel(tiny_cfg(), "raypatch").encode([(view.image, view.intrinsics, view.pose)])
        (x, uniform), *rest = seen
        dirs = G.ray_feature_map(view.intrinsics, view.pose, 8, 8, 2)
        np.testing.assert_array_equal(x, np.concatenate([view.image, dirs]))
        # the origin block that every query row of the view holds
        q = G.build_queries(view.intrinsics, view.pose, 8, 8, 2, 2, 2).data
        np.testing.assert_array_equal(np.broadcast_to(uniform, (16, 12)), q[:, :12])
        assert [u for _, u in rest] == [None] * len(rest)

    @pytest.mark.parametrize("f_origin,f_dir", [(2, 2), (0, 2), (2, 0)])
    def test_encode_equals_the_full_map_through_six_loops(self, monkeypatch, f_origin, f_dir):
        # the first conv run on the map with the origin's code broadcast to
        # every pixel, as channels after the directions, by the loop oracle
        m = M.LightFieldModel(tiny_cfg(n_freq_origin=f_origin, n_freq_dir=f_dir), "raypatch")
        inputs, _ = M.scene_to_views(scene_views())
        with T.no_grad():
            want = m.encode(inputs).data
        conv2d, calls = T.conv2d, []

        def full_map(x, w, b=None, stride=1, uniform=None):
            if uniform is None:
                return conv2d(x, w, b, stride)
            calls.append(len(uniform))
            o = np.broadcast_to(uniform[:, None, None], (len(uniform),) + x.shape[1:])
            return T.Tensor(conv2d_loops(np.concatenate([x.data, o]), w.data, stride=stride))

        monkeypatch.setattr(T, "conv2d", full_map)
        with T.no_grad():
            got = m.encode(inputs).data
        assert calls == [6 * f_origin]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_first_conv_weight_is_the_draw_with_the_origin_channels_last(self):
        cfg = tiny_cfg(n_freq_origin=3, n_freq_dir=2)
        w = M.LightFieldModel(cfg, "raypatch").encoder.convs[0].w.data
        # the draw's channel order is image, origin (18), direction (12)
        drawn = M.ConvBlock(np.random.default_rng(cfg.seed), 3 + 30, 8, stride=2).w.data
        assert w.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(
            w, np.concatenate([drawn[..., :3], drawn[..., 21:], drawn[..., 3:21]], axis=3))

    def test_rejects_an_image_of_the_wrong_shape(self):
        view = scene_views()[0]
        with pytest.raises(ValueError, match=r"input image must be \[3, 8, 8\], got \[1, 8, 8\]"):
            M.LightFieldModel(tiny_cfg(), "raypatch").encode(
                [(view.image[:1], view.intrinsics, view.pose)])


class TestReusedKV:
    """Every decode of a scene reads the K/V its encode projected."""

    @staticmethod
    def _setup(kind="raypatch", seed=1):
        m = M.LightFieldModel(tiny_cfg(), kind)
        inputs, targets = M.scene_to_views(scene_views(seed=seed))
        return m, inputs, targets

    def test_a_scene_is_its_tokens(self):
        m, inputs, _ = self._setup()
        with T.no_grad():
            z = m.encode(inputs)
            tokens = m.encoder(inputs)
        assert isinstance(z, T.Tensor) and z.shape == (4, 16)
        np.testing.assert_array_equal(z.data, tokens.data)
        assert len(z.kv) == len(m.decoder.blocks)

    @pytest.mark.parametrize("kind", ["raypatch", "pixel"])
    def test_every_decode_runs_the_view_flops_only(self, kind):
        m, inputs, targets = self._setup(kind)
        n_kv = m.cfg.tokens_per_view()
        kv = [layer for blk in m.decoder.blocks for layer in blk.mha.kv_cost(n_kv)]
        view = full_model_flops(m.decoder.layer_spec(n_kv, 1)) - full_model_flops(kv)
        with T.no_grad():
            z = m.encode(inputs)
            for t in targets + targets:
                with flops.FlopCounter() as fc:
                    m.decode(z, t.intrinsics, t.pose)
                assert fc.total == pytest.approx(view, rel=1e-12)

    @pytest.mark.parametrize("kind", ["raypatch", "pixel"])
    def test_reused_decode_is_bit_equal_to_first_and_recorded(self, kind):
        m, inputs, targets = self._setup(kind)
        t = targets[0]
        with T.no_grad():
            z = m.encode(inputs)
            first = m.decode(z, t.intrinsics, t.pose).data
            m.decode(z, targets[1].intrinsics, targets[1].pose)
            reused = m.decode(z, t.intrinsics, t.pose).data
        T.tape_clear()
        recorded = m.decode(z, t.intrinsics, t.pose).data
        T.tape_clear()
        np.testing.assert_array_equal(reused, first)
        np.testing.assert_array_equal(recorded, first)

    def test_a_scene_keeps_the_gradient_mode_of_its_encode(self):
        m, inputs, targets = self._setup()
        t = targets[0]
        named = dict(m.named_parameters())
        for recorded in (False, True):
            T.tape_clear()
            for _, p in m.named_parameters():
                p.grad = None
            if recorded:
                z = m.encode(inputs)
            else:
                with T.no_grad():
                    z = m.encode(inputs)
            assert z.requires_grad == recorded
            assert all(a.requires_grad == recorded for pair in z.kv for a in pair)
            total, _ = M.loss_total(m.decode(z, t.intrinsics, t.pose), t.image, t.depth)
            T.backward(total)
            assert named["dec.block0.mha.q.w"].grad is not None
            for name in ("dec.block0.mha.k.w", "dec.block1.mha.v.b", "enc.conv0.conv.w"):
                assert (named[name].grad is not None) == recorded, (name, recorded)

    def test_recorded_decode_after_no_grad_decode_gives_the_same_grads(self):
        grads = []
        for warm in (False, True):
            m, inputs, targets = self._setup()
            t = targets[0]
            T.tape_clear()
            z = m.encode(inputs)
            if warm:
                with T.no_grad():
                    m.decode(z, t.intrinsics, t.pose)
            out = m.decode(z, t.intrinsics, t.pose)
            total, _ = M.loss_total(out, t.image, t.depth)
            T.backward(total)
            grads.append({n: p.grad for n, p in m.named_parameters()
                          if n.startswith("dec.block") and ".mha." in n
                          and n.split(".mha.")[1][0] in "kv"})
        assert grads[0] and set(grads[0]) == set(grads[1])
        for name, g in grads[0].items():
            assert g is not None, name
            np.testing.assert_array_equal(grads[1][name], g, err_msg=name)

    def test_decode_after_a_kv_weight_change_reads_the_encode_time_kv(self):
        # the K/V are a snapshot like the tokens: only a new encode sees new weights
        m, inputs, targets = self._setup()
        t = targets[0]
        with T.no_grad():
            z = m.encode(inputs)
            before = m.decode(z, t.intrinsics, t.pose).data
        named = dict(m.named_parameters())
        rng = np.random.default_rng(7)
        for name in ("dec.block0.mha.k.w", "dec.block1.mha.v.b"):
            named[name].data += rng.standard_normal(named[name].shape)
        with T.no_grad():
            after = m.decode(z, t.intrinsics, t.pose).data
            again = m.decode(m.encode(inputs), t.intrinsics, t.pose).data
        np.testing.assert_array_equal(after, before)
        assert not np.allclose(again, before)

    def test_encode_after_weight_change_decodes_like_a_fresh_model(self):
        m, inputs, targets = self._setup()
        t = targets[0]
        named = dict(m.named_parameters())
        rng = np.random.default_rng(7)
        for name in ("dec.block0.mha.k.w", "dec.block1.mha.v.b"):
            named[name].data += rng.standard_normal(named[name].shape)
        fresh = M.LightFieldModel(m.cfg, "raypatch")
        for (_, a), (_, b) in zip(fresh.named_parameters(), m.named_parameters()):
            a.data[...] = b.data
        with T.no_grad():
            got = m.decode(m.encode(inputs), t.intrinsics, t.pose).data
            want = fresh.decode(fresh.encode(inputs), t.intrinsics, t.pose).data
        np.testing.assert_array_equal(got, want)

    def test_each_scene_decodes_with_its_own_kv(self):
        m, inputs_a, targets = self._setup(seed=1)
        inputs_b, _ = M.scene_to_views(scene_views(seed=2))
        t = targets[0]
        with T.no_grad():
            z_a, z_b = m.encode(inputs_a), m.encode(inputs_b)
            first = m.decode(z_a, t.intrinsics, t.pose).data
            other = m.decode(z_b, t.intrinsics, t.pose).data
            again = m.decode(z_a, t.intrinsics, t.pose).data
        assert not np.array_equal(other, first)
        np.testing.assert_array_equal(again, first)


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
            z = m.encode(inputs)
            out = m.decode(z, targets[0].intrinsics, targets[0].pose)
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
            err = grad_check(f, named[name], step=1e-5)
            assert err <= 1e-4, f"{name}: rel err {err}"

    @pytest.mark.parametrize("leaf", ["dec.block0.mha.v.b", "enc.block0.ln1.gamma"])
    def test_gradcheck_over_two_targets_of_one_scene(self, leaf):
        # both targets' K/V gradients sum in the scene before one projection backward
        m = M.LightFieldModel(tiny_cfg(), "raypatch")
        inputs, targets = M.scene_to_views(scene_views())
        assert len(targets) == 2

        def f(_leaf):
            z = m.encode(inputs)
            return T.add(*(M.loss_total(m.decode(z, t.intrinsics, t.pose), t.image, t.depth)[0]
                           for t in targets))

        assert grad_check(f, dict(m.named_parameters())[leaf], step=1e-5) <= 1e-4

    def test_end_to_end_gradcheck_first_conv_beta(self):
        # conv0's offset reaches the loss only through conv1's input gradient
        m = M.LightFieldModel(tiny_cfg(), "raypatch")
        f = self._loss_fn(m, scene_views())
        assert grad_check(f, dict(m.named_parameters())["enc.conv0.beta"], step=1e-5) <= 1e-4

    @pytest.mark.parametrize("kind", ["raypatch", "pixel"])
    def test_every_parameter_acts(self, kind):
        # a parameter the math cancels (a conv bias under instance norm, a
        # key bias under softmax) moves the output by rounding error only
        m = M.LightFieldModel(tiny_cfg(), kind)
        inputs, targets = M.scene_to_views(scene_views())
        t = targets[0]

        def render():
            with T.no_grad():  # encode again: a scene is a snapshot of the weights
                return m.decode(m.encode(inputs), t.intrinsics, t.pose).data

        base = render()
        rng = np.random.default_rng(3)
        idle = []
        for name, p in m.named_parameters():
            saved = p.data.copy()
            p.data += 0.1 * rng.standard_normal(p.shape)
            if np.abs(render() - base).max() <= 1e-6:
                idle.append(name)
            p.data[...] = saved
        assert idle == []


class TestGradientHandOver:
    """Handing fresh gradients over instead of copying them changes no bit."""

    @staticmethod
    def _step(kind):
        m = M.LightFieldModel(tiny_cfg(), kind)
        M.train_step(m, scene_views(), M.Adam(m.named_parameters(), lr=1e-3))
        return dict(m.named_parameters())

    @pytest.mark.parametrize("kind", ["raypatch", "pixel"])
    def test_grads_equal_the_copying_core(self, kind, monkeypatch):
        handed = self._step(kind)
        accumulate = T._accumulate
        monkeypatch.setattr(T, "_accumulate", lambda t, g, owned=False: accumulate(t, g))
        copied = self._step(kind)
        assert handed.keys() == copied.keys()
        for name, p in handed.items():
            np.testing.assert_array_equal(p.grad, copied[name].grad, err_msg=name)
            np.testing.assert_array_equal(p.data, copied[name].data, err_msg=name)

    @pytest.mark.parametrize("kind", ["raypatch", "pixel"])
    def test_no_grad_shares_memory(self, kind):
        params = list(self._step(kind).items())
        for i, (name, p) in enumerate(params):
            for other, q in params:
                assert not np.shares_memory(p.grad, q.data), (name, other)
            for other, q in params[i + 1:]:
                assert not np.shares_memory(p.grad, q.grad), (name, other)


class TestStepMemory:
    def test_pixel_train_step_peak_at_the_cli_default_config(self):
        # tracemalloc peak of one step at 32x32 with the CLI's default model.
        # While tape records and closures held whole tensors it was 54.1 MiB:
        # logits under softmax_rows, the fused Q/K/V under split, sublayer
        # outputs under add and layer_norm stayed alive until backward.
        tracemalloc = pytest.importorskip("tracemalloc")
        m = M.LightFieldModel(M.ModelConfig(height=32, width=32), "pixel")
        opt = M.Adam(m.named_parameters(), lr=3e-4)
        views = scene_views(32, 32)
        M.train_step(m, views, opt)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            M.train_step(m, views, opt)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 42 * 2**20, f"{peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("kind,most", [("raypatch", 143), ("pixel", 117)])
    def test_train_step_forward_records_at_most(self, kind, most):
        # the forward of a step at 32x32 with the CLI's default model: encode
        # the input view, decode and score both targets, sum the losses. An
        # attention call is two records, the keys' transpose and the op,
        # whatever its head count; splitting the heads into separate ops
        # would add 6 * heads per call. Each decoder block's K/V are three
        # records per encode; projected per decode they were 6 more.
        m = M.LightFieldModel(M.ModelConfig(height=32, width=32), kind)
        inputs, targets = M.scene_to_views(scene_views(32, 32))
        assert len(targets) == 2
        T.tape_clear()
        z = m.encode(inputs)
        T.add(*(M.loss_total(m.decode(z, v.intrinsics, v.pose), v.image, v.depth)[0]
                for v in targets))
        records = len(T._tape)
        T.tape_clear()
        assert records <= most


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


# CLI default config; 3 warmup steps, then the minor faults of 10 more, read
# in the process that ran them
_FAULTS_PER_STEP = """
import resource, sys
from raypatch import datasynth as ds, model as M
m = M.LightFieldModel(M.ModelConfig(height=32, width=32), sys.argv[1])
scenes = [ds.render_scene_views(ds.generate_scene(s), 32, 32) for s in (1, 2)]
opt = M.Adam(m.named_parameters(), lr=3e-4)
for i in range(3):
    M.train_step(m, scenes[i % 2], opt)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for i in range(10):
    M.train_step(m, scenes[i % 2], opt)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


@pytest.mark.skipif(not _has_mallopt(), reason="no glibc mallopt to keep heap pages")
class TestHeapReuse:
    """Importing raypatch keeps the heap pages a train step frees for the next step."""

    @pytest.mark.parametrize("kind", ["raypatch", "pixel"])
    def test_train_steps_fault_no_pages_back_in(self, kind):
        # a fresh process: glibc's default thresholds grow with what earlier
        # tests freed. With them a step took about 1,450 (raypatch) and
        # 6,000 (pixel) minor faults.
        src = str(Path(M.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", _FAULTS_PER_STEP, kind], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        faults = float(run.stdout)
        assert faults < 100, f"{faults:.0f} minor faults per train step"


class TestTraining:
    def test_adam_first_step_magnitude(self):
        p = T.parameter(np.zeros(3))
        p.grad = np.array([0.3, -0.2, 0.1])
        opt = M.Adam([("p", p)], lr=0.01)
        opt.step()
        # bias-corrected first step is lr * sign(g) up to eps
        np.testing.assert_allclose(p.data, [-0.01, 0.01, -0.01], atol=1e-6)

    def test_adam_global_clip(self):
        p = T.parameter(np.zeros(4))
        p.grad = np.full(4, 1e6)
        opt = M.Adam([("p", p)], lr=0.01)
        opt.step()
        # clipping rescales, Adam renormalizes; update must stay ~lr sized
        assert np.abs(p.data).max() <= 0.011

    def test_adam_updates_its_moments_in_place(self):
        p = T.parameter(np.zeros(3))
        opt = M.Adam([("p", p)], lr=0.01)
        m, v = opt.m[0], opt.v[0]
        for g in ([0.3, -0.2, 0.1], [-0.1, 0.4, 0.2]):
            p.grad = np.array(g)
            opt.step()
        # the same arrays: a per-step reallocation left peak RSS to chance
        assert opt.m[0] is m and opt.v[0] is v
        np.testing.assert_allclose(m, 0.1 * 0.9 * np.array([0.3, -0.2, 0.1])
                                   + 0.1 * np.array([-0.1, 0.4, 0.2]))

    def test_adam_refuses_a_gradient_norm_that_is_not_finite(self):
        # one infinite entry: the clip scale GRAD_CLIP / inf is 0, and inf * 0 is NaN
        p, q = T.parameter(np.ones(3)), T.parameter(np.ones(2))
        opt = M.Adam([("p", p), ("q", q)], lr=0.01)
        p.grad, q.grad = np.array([0.3, -0.2, 0.1]), np.array([0.5, 0.5])
        opt.step()
        before = [a.copy() for a in (p.data, q.data, *opt.m, *opt.v)]
        p.grad = np.array([np.inf, 0.0, 0.0])
        with pytest.raises(T.NumericError, match="^the gradient norm is not finite$"):
            opt.step()
        for want, got in zip(before, (p.data, q.data, *opt.m, *opt.v)):
            np.testing.assert_array_equal(got, want)
        assert opt.t == 1

    def test_train_step_updates_params(self):
        m = M.LightFieldModel(tiny_cfg(), "raypatch")
        views = scene_views()
        before = {n: p.data.copy() for n, p in m.named_parameters()}
        opt = M.Adam(m.named_parameters(), lr=1e-3)
        metrics = M.train_step(m, views, opt)
        assert np.isfinite(metrics["loss"])
        moved = [n for n, p in m.named_parameters()
                 if not np.array_equal(before[n], p.data)]
        assert len(moved) == len(before)

    @pytest.mark.parametrize("kind", ["raypatch", "pixel"])
    def test_no_grad_decode_is_the_trained_forward(self, kind):
        # inference runs the forward that training fits: norm statistics other
        # than each map's own cost the raypatch decoder up to 2.8 dB held out
        m = M.LightFieldModel(tiny_cfg(), kind)
        opt = M.Adam(m.named_parameters(), lr=1e-3)
        for seed in range(4):
            M.train_step(m, scene_views(seed=seed), opt)
        views = scene_views(seed=9)
        inputs, targets = M.scene_to_views(views)
        with T.no_grad():
            z = m.encode(inputs)
            quiet = [m.decode(z, v.intrinsics, v.pose).data for v in targets]
        T.tape_clear()
        z = m.encode(inputs)
        for v, want in zip(targets, quiet):
            assert m.decode(z, v.intrinsics, v.pose).data.tobytes() == want.tobytes()
        T.tape_clear()
        # train_step scores the forward it trains on before it updates
        psnr = 0.0
        for v, out in zip(targets, quiet):
            psnr += M.psnr(out[:3], v.image) / len(targets)
        assert M.train_step(m, views, opt)["psnr"] == psnr

    def test_evaluate_leaves_model_alone(self):
        m = M.LightFieldModel(tiny_cfg(), "raypatch")
        views = scene_views()
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
