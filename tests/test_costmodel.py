"""Closed-form cost model: published values, scaling laws, CSV output."""

import numpy as np
import pytest

from raypatch import costmodel as C

from reference_impls import reference_define_layers, reference_srt_layers

GIB = 2.0 ** 30


class TestMemoryFigures:
    def test_define_peak_bytes_exact(self):
        # 960x1280 pixel queries against 2048 latents, 8 heads, float32
        cfg = C.CostConfig("define", 960, 1280)
        assert C.peak_attention_bytes(cfg) == 80530636800.0
        assert C.peak_attention_bytes(cfg) / GIB == 75.0

    def test_rp_define_k16_peak_bytes_exact(self):
        cfg = C.CostConfig("rp-define", 960, 1280, k=16)
        assert C.decoder_queries(cfg) == 4800
        assert C.peak_attention_bytes(cfg) == 314572800.0
        assert abs(C.peak_attention_bytes(cfg) / GIB - 0.293) / 0.293 < 0.005

    def test_precision_scales_bytes(self):
        cfg4 = C.CostConfig("define", 960, 1280, bytes_per_element=4)
        cfg8 = C.CostConfig("define", 960, 1280, bytes_per_element=8)
        assert C.peak_attention_bytes(cfg8) == 2 * C.peak_attention_bytes(cfg4)


class TestScalingLaws:
    @pytest.mark.parametrize("family,k", [("rp-srt", 2), ("rp-srt", 4), ("rp-srt", 8),
                                          ("rp-define", 4), ("rp-define", 16)])
    def test_k_squared_law_exact(self, family, k):
        base = C.CostConfig(family[3:], 128, 128)
        rp = C.CostConfig(family, 128, 128, k=k)
        assert C.decoder_queries(base) == C.decoder_queries(rp) * k * k
        assert C.make_report(base).attn_flops_dec == C.make_report(rp).attn_flops_dec * k * k
        assert C.peak_attention_bytes(base) == C.peak_attention_bytes(rp) * k * k

    def test_srt_decoder_flops_exact(self):
        # 1228800 pixel queries against 19200 tokens, 8 heads, d_k = d_v = 64
        r = C.make_report(C.CostConfig("srt", 960, 1280))
        assert r.attn_flops_dec == 2.0 * 8 * 1228800 * 19200 * (64 + 64) == 48318382080000.0

    def test_encoder_term_unaffected_by_k(self):
        base = C.CostConfig("srt", 128, 128)
        rp = C.CostConfig("rp-srt", 128, 128, k=8)
        assert C.make_report(base).attn_flops_enc == C.make_report(rp).attn_flops_enc

    def test_srt_decoder_term_16x_on_resolution_doubling(self):
        for h, w in [(64, 64), (120, 160), (128, 256)]:
            a = C.make_report(C.CostConfig("srt", h, w)).attn_flops_dec
            b = C.make_report(C.CostConfig("srt", 2 * h, 2 * w)).attn_flops_dec
            assert b / a == 16.0

    def test_define_memory_slope_one_in_resolution(self):
        # fixed latent count: peak bytes grow linearly with the pixel count
        sizes = [(64, 64), (128, 128), (256, 256), (512, 512), (960, 1280)]
        reports = C.sweep(C.CostConfig("define", 64, 64), "resolution", sizes)
        pixels = np.array([r.height * r.width for r in reports], dtype=float)
        peak = np.array([r.peak_bytes for r in reports])
        slope = np.polyfit(np.log(pixels), np.log(peak), 1)[0]
        assert abs(slope - 1.0) < 0.01

    def test_srt_decoder_flops_slope_two_in_resolution(self):
        # pixel queries against hw/4^s tokens: quadratic in the pixel count
        sizes = [(64, 64), (128, 128), (256, 256), (512, 512)]
        reports = C.sweep(C.CostConfig("srt", 64, 64), "resolution", sizes)
        pixels = np.array([r.height * r.width for r in reports], dtype=float)
        flops = np.array([r.attn_flops_dec for r in reports])
        slope = np.polyfit(np.log(pixels), np.log(flops), 1)[0]
        assert abs(slope - 2.0) < 0.01

    def test_speedup_nondecreasing_in_k(self):
        base = C.make_report(C.CostConfig("srt", 128, 128)).attn_flops_dec
        speedups = []
        for k in (2, 4, 8, 16):
            rp = C.make_report(C.CostConfig("rp-srt", 128, 128, k=k)).attn_flops_dec
            speedups.append(base / rp)
        assert all(b > a for a, b in zip(speedups, speedups[1:]))


class TestValidation:
    def test_non_power_of_two_patch(self):
        with pytest.raises(C.CostConfigError):
            C.CostConfig("rp-srt", 120, 160, k=3)

    def test_unknown_family(self):
        with pytest.raises(C.CostConfigError):
            C.CostConfig("nerf", 64, 64)

    def test_patch_must_divide_image(self):
        with pytest.raises(C.CostConfigError):
            C.CostConfig("rp-srt", 100, 100, k=8)

    @pytest.mark.parametrize("field", ["heads", "d_k", "n_latent"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_size_below_one(self, field, value):
        with pytest.raises(C.CostConfigError, match=f"^{field} must be at least 1"):
            C.CostConfig("define", 64, 64, **{field: value})

    def test_tokens_after_downsampling(self):
        cfg = C.CostConfig("srt", 128, 128, n_views=2, downsamplings=3)
        assert C.encoder_tokens(cfg) == 2 * 128 * 128 // 64


class TestCsv:
    def test_header_and_shape(self):
        reports = C.sweep(C.CostConfig("rp-define", 960, 1280, k=16), "k", [1, 2, 4])
        text = C.reports_to_csv(reports)
        lines = text.split("\n")
        assert lines[0] == "family,N,h,w,k,heads,d_k,n_l,n_q_dec,n_kv_dec,attn_flops_dec,peak_bytes"
        assert len(lines) == 5 and lines[-1] == ""  # header + 3 rows + trailing LF

    def test_floats_full_precision(self):
        r = C.make_report(C.CostConfig("define", 960, 1280))
        text = C.reports_to_csv([r])
        row = text.split("\n")[1].split(",")
        assert float(row[-1]) == r.peak_bytes
        assert float(row[-2]) == r.attn_flops_dec

    def test_n_latent_blank_for_srt(self):
        r = C.make_report(C.CostConfig("srt", 64, 64))
        row = C.reports_to_csv([r]).split("\n")[1].split(",")
        assert row[7] == ""

    def test_lf_line_endings(self):
        text = C.reports_to_csv([C.make_report(C.CostConfig("srt", 64, 64))])
        assert "\r" not in text


class TestModelFlopAudit:
    def test_zero_layers(self):
        assert C.full_model_flops([]) == 0.0

    def test_linear_and_conv_pricing(self):
        assert C.LinearCost(10, 3, 7).flops() == 2 * 10 * 3 * 7
        assert C.ConvCost(8, 8, 4, 16).flops() == 2 * 8 * 8 * 4 * 16 * 9

    def test_published_srt_ratio_band(self):
        srt = C.full_model_flops(reference_srt_layers(120, 160))
        rp = C.full_model_flops(reference_srt_layers(120, 160, k=4))
        assert 5.5 <= srt / rp <= 8.5

    def test_published_define_ratio_band(self):
        de = C.full_model_flops(reference_define_layers(480, 640))
        rp = C.full_model_flops(reference_define_layers(480, 640, k=16))
        assert 8.0 <= de / rp <= 12.0

    def test_cnn_cost_block_count(self):
        # k = 8 -> 3 upsampling blocks, each: prelim conv + upsample + block conv,
        # plus the final conv
        layers = C.upsampling_cnn_cost(8, 64, 64, f=128, c_out=3)
        assert len(layers) == 3 * 3 + 1
        assert C.upsampling_cnn_cost(1, 64, 64, f=128, c_out=3)[0] == C.ConvCost(64, 64, 128, 3)
