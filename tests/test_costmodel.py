"""Costs priced from the executed model's layer specs: stage FLOPs and logit
bytes against execution, the paper's scaling laws and figures, the `cost`
CSV, and the per-layer vocabulary itself."""

import numpy as np
import pytest

from raypatch import cli
from raypatch import costmodel as C
from raypatch import datasynth as ds
from raypatch import flops
from raypatch import model as M
from raypatch import tensor as T

from reference_impls import reference_define_layers, reference_srt_layers

TINY = dict(height=16, width=16, d_model=16, heads=2, d_k=8, d_v=8, n_freq_origin=2,
            n_freq_dir=2, feature_channels=8, downsamplings=2)
TINY_FLAGS = ["--height", "16", "--width", "16", "--d-model", "16", "--heads", "2",
              "--d-k", "8", "--d-v", "8", "--freq-origin", "2", "--freq-dir", "2",
              "--feature-channels", "8", "--downsamplings", "2"]
# an SRT-scale attention stage: 8 heads, d_k = d_v = 64, 3 stride-2 stages
SRT = dict(heads=8, d_k=64, d_v=64, downsamplings=3)


def executed(decoder, k, monkeypatch):
    """FLOPs per stage of one encode of two rig views and one decode of the third
    at the tiny config, and the largest array softmax_rows is handed in the decode."""
    model = M.LightFieldModel(M.ModelConfig(k=k, **TINY), decoder)
    *inputs, target = ds.render_scene_views(ds.generate_scene(1), 16, 16)
    seen = []
    softmax_rows = T.softmax_rows

    def spy(x):
        seen.append(x.data.nbytes)
        return softmax_rows(x)

    with T.no_grad(), flops.FlopCounter() as fc:
        z = model.encode([(v.image, v.intrinsics, v.pose) for v in inputs])
        monkeypatch.setattr(T, "softmax_rows", spy)
        model.decode(z, target.intrinsics, target.pose)
    return fc.by_stage, max(seen)


def decoder_products(decoder, height, width, **fields):
    """FLOPs of the decoder's attention products for one view, from its layer spec."""
    cfg = M.ModelConfig(height=height, width=width, **fields)
    spec = M.LightFieldModel(cfg, decoder).decoder.layer_spec(cfg.tokens_per_view())
    return C.full_model_flops([layer for layer in spec if isinstance(layer, C.AttnProductCost)])


def priced(decoder, height, width, **fields):
    """(decoder queries, n_kv, FLOPs per stage, peak logit bytes) of one view."""
    return cli.price_model(M.ModelConfig(height=height, width=width, **fields), decoder, 1)


class TestStagesAgainstExecution:
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    @pytest.mark.parametrize("decoder", ["raypatch", "pixel"])
    def test_stage_flops_and_logit_bytes_equal_execution(self, monkeypatch, decoder, k):
        by_stage, largest_logits = executed(decoder, k, monkeypatch)
        n_q, n_kv, stages, peak = cli.price_model(M.ModelConfig(k=k, **TINY), decoder, 2)
        assert stages == by_stage
        assert peak == largest_logits
        assert n_kv == 2 * 16 * 16 // 16
        assert n_q == (256 // (k * k) if decoder == "raypatch" else 256)

    @pytest.mark.parametrize("decoder", ["raypatch", "pixel"])
    def test_cost_csv_prints_the_executed_numbers(self, monkeypatch, capsys, decoder):
        by_stage, largest_logits = executed(decoder, 2, monkeypatch)
        argv = ["cost", "--decoder", decoder, "--views", "2", "--k", "2", "--csv", "-"]
        assert cli.main(argv + TINY_FLAGS) == cli.EXIT_OK
        header, row, end = capsys.readouterr().out.split("\n")
        assert end == ""
        fields = dict(zip(header.split(","), row.split(",")))
        assert {s: float(fields[s + "_flops"]) for s in by_stage} == by_stage
        assert int(fields["decoder_peak_logit_bytes"]) == largest_logits
        if decoder == "pixel":
            assert float(fields["decoder_cnn_flops"]) == 0.0


class TestScalingLaws:
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_k_squared_law_exact(self, k):
        pixel_q, _, _, pixel_peak = priced("pixel", 128, 128, k=k)
        rp_q, _, _, rp_peak = priced("raypatch", 128, 128, k=k)
        assert pixel_q == rp_q * k * k
        assert pixel_peak == rp_peak * k * k
        assert (decoder_products("pixel", 128, 128, k=k)
                == decoder_products("raypatch", 128, 128, k=k) * k * k)

    def test_srt_decoder_flops_exact(self):
        # 1228800 pixel queries against 19200 tokens, 8 heads, d_k = d_v = 64
        flops_dec = decoder_products("pixel", 960, 1280, dec_blocks=1, **SRT)
        assert flops_dec == 2.0 * 8 * 1228800 * 19200 * (64 + 64) == 48318382080000.0

    def test_encoder_term_unaffected_by_k(self):
        _, _, pixel, _ = priced("pixel", 128, 128, k=1)
        _, _, rp, _ = priced("raypatch", 128, 128, k=8)
        for stage in ("encoder_conv", "encoder_attn"):
            assert pixel[stage] == rp[stage]

    def test_srt_decoder_term_16x_on_resolution_doubling(self):
        for h, w in [(64, 64), (120, 160), (128, 256)]:
            a = decoder_products("pixel", h, w)
            b = decoder_products("pixel", 2 * h, 2 * w)
            assert b / a == 16.0

    def test_srt_decoder_flops_slope_two_in_resolution(self):
        # pixel queries against hw/4^s tokens: quadratic in the pixel count
        sizes = [(64, 64), (128, 128), (256, 256), (512, 512)]
        pixels = np.array([h * w for h, w in sizes], dtype=float)
        dec = np.array([decoder_products("pixel", h, w) for h, w in sizes])
        slope = np.polyfit(np.log(pixels), np.log(dec), 1)[0]
        assert abs(slope - 2.0) < 0.01

    def test_speedup_nondecreasing_in_k(self):
        # the whole decoder, the upsampling CNN included
        def decoder_flops(decoder, k):
            stages = priced(decoder, 128, 128, k=k)[2]
            return stages["decoder_attn"] + stages.get("decoder_cnn", 0.0)

        base = decoder_flops("pixel", 1)
        speedups = [base / decoder_flops("raypatch", k) for k in (2, 4, 8, 16)]
        assert all(b > a for a, b in zip(speedups, speedups[1:]))


class TestCsv:
    SWEEP = ["cost", "--decoder", "pixel", "--sweep", "k", "--values", "1,2,4", "--csv"]

    def test_header_and_shape(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        assert cli.main(self.SWEEP + [str(path)]) == cli.EXIT_OK
        lines = path.read_text().split("\n")
        assert lines[0] == ("decoder,views,h,w,k,heads,d_k,n_q_dec,n_kv_dec,"
                            "encoder_conv_flops,encoder_attn_flops,decoder_attn_flops,"
                            "decoder_cnn_flops,decoder_peak_logit_bytes")
        assert len(lines) == 5 and lines[-1] == ""  # header + 3 rows + trailing LF
        assert [row.split(",")[4] for row in lines[1:4]] == ["1", "2", "4"]

    def test_floats_full_precision(self, capsys):
        assert cli.main(["cost", "--decoder", "pixel", "--dec-blocks", "1", "--heads", "8",
                         "--d-k", "64", "--d-v", "64", "--downsamplings", "3",
                         "--csv", "-"]) == cli.EXIT_OK
        row = capsys.readouterr().out.split("\n")[1].split(",")
        _, _, stages, peak = priced("pixel", 960, 1280, dec_blocks=1, **SRT)
        assert float(row[-3]) == stages["decoder_attn"]
        assert int(row[-1]) == peak == 8 * 1228800 * 19200

    def test_lf_line_endings(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        assert cli.main(self.SWEEP + [str(path)]) == cli.EXIT_OK
        assert b"\r" not in path.read_bytes()


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
