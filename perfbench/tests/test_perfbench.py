"""The benchmark's own checks, on tiny versions of its workloads.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

import harness
import hostspeed
import run
from raypatch import blocks, flops, model, tensor
from tracer import Tracer

TINY_MODEL = dict(k=2, d_model=16, heads=2, d_k=8, d_v=8, feature_channels=8,
                  downsamplings=2, enc_blocks=1, dec_blocks=1, n_freq_origin=2, n_freq_dir=2)
SEED = 3
SECONDS = 0.3
TINY_LR = 3e-3  # 12 steps at the workloads' rate barely move a tiny model


def tiny(name):
    return dataclasses.replace(harness.WORKLOADS[name], size=16, model=TINY_MODEL, scenes=5,
                               heldout=2, steps=12, warmup_steps=2, ring=2)


@pytest.fixture(scope="module", params=sorted(harness.WORKLOADS))
def runs(request, tmp_path_factory):
    """Two traced runs and one untraced run of a tiny workload, same seed."""
    wl = tiny(request.param)
    work = str(tmp_path_factory.mktemp(wl.name))
    traced = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "LR", TINY_LR)
        for _ in range(2):
            with Tracer() as tracer:
                out = harness.run(wl, SEED, SECONDS, work, tracer)
            traced.append((out, tracer, harness.per_layer(out, wl, tracer)))
        plain = harness.run(wl, SEED, SECONDS, work)
    return wl, traced, plain


def test_benchmark_json_contract():
    spec = run.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in harness.WORKLOADS.values()}
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in spec[group]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["better"] in ("lower", "higher")
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_result_schema_and_metric_names(runs):
    wl, traced, plain = runs
    spec = run.load_spec()
    for metrics, group in ((harness.end_to_end(plain), "end_to_end"),
                           (traced[0][2], "per_layer")):
        line = json.loads(json.dumps(run.result_line(metrics, spec[group],
                                                     plain.attempted, plain.failed)))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert [m["name"] for m in spec[group]] == list(line["metrics"])
        for name, entry in line["metrics"].items():
            assert set(entry) == {"value", "unit"}
            assert math.isfinite(entry["value"]), name
        assert line["correct"] is True
        assert line["attempted"] >= 1 and line["failed"] == 0
    for name, value in harness.end_to_end(plain).items():
        assert value > 0, name


def test_every_output_check_passed(runs):
    wl, traced, plain = runs
    for out in [plain] + [t[0] for t in traced]:
        assert out.failed == 0
        assert out.psnr_trained > out.psnr_untrained
        assert out.samples["render_view_s"] and out.samples["encode_s"]
        assert len(out.samples["train_step_s"]) == wl.steps - wl.warmup_steps
        assert len(out.samples["setup_s"]) == harness.ROUNDS + 1


def test_samples_are_scaled_by_a_recent_host_probe(runs):
    _, _, plain = runs
    host = plain.host
    assert host.probes and all(p > 0 for p in host.probes)
    for name, nominal in plain.samples.items():
        raw = plain.raw[name]
        assert len(raw) == len(nominal)
        lo, hi = hostspeed.NOMINAL_S / max(host.probes), hostspeed.NOMINAL_S / min(host.probes)
        for r, n in zip(raw, nominal):
            assert r * lo * (1 - 1e-12) <= n <= r * hi * (1 + 1e-12), name


def test_host_probe_is_refreshed_only_when_stale():
    host = hostspeed.HostSpeed()
    host.scale(1.0)
    host.scale(1.0)
    assert len(host.probes) == 1
    host._at -= 2 * hostspeed.PROBE_EVERY_S
    assert host.scale(2.0) == pytest.approx(2.0 * hostspeed.NOMINAL_S / host.probes[-1])
    assert len(host.probes) == 2


def test_numeric_errors_are_counted_not_raised(tmp_path, monkeypatch):
    """Every decode fails: the run ends, and each failed check is counted."""
    def failing_decode(*args, **kw):
        raise tensor.NumericError("injected")

    monkeypatch.setattr(harness, "LR", TINY_LR)
    monkeypatch.setattr(model.LightFieldModel, "decode", failing_decode)
    wl = tiny("train_raypatch")
    with Tracer() as tracer:
        out = harness.run(wl, SEED, SECONDS, str(tmp_path), tracer)
    assert out.failed >= 1 and out.attempted > out.failed
    assert not out.samples["train_step_s"] and not out.samples["render_view_s"]
    assert out.samples["encode_s"]


def test_self_time_within_duration(runs):
    _, traced, _ = runs
    tracer = traced[0][1]
    assert tracer.spans
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        duration = span[2] - span[1]
        assert -1e-9 <= self_s <= duration, span[0]


def test_stage_seconds_within_enclosing_encode_or_decode(runs):
    _, traced, _ = runs
    spans = traced[0][1].spans
    inside = {}
    for span in spans:
        if not span[0].startswith("stage."):
            continue
        parent = span[3]
        while spans[parent][0] not in ("model.encode", "model.decode"):
            parent = spans[parent][3]
            assert parent >= 0, "stage outside encode/decode"
        inside[parent] = inside.get(parent, 0.0) + span[2] - span[1]
    assert inside
    for idx, seconds in inside.items():
        assert seconds <= spans[idx][2] - spans[idx][1]


def test_counts_and_psnr_repeat_exactly(runs):
    _, traced, plain = runs
    (out_a, _, a), (out_b, _, b) = traced
    exact = [k for k in a if k.endswith((".gflop", "_calls", "_bytes", ".bytes"))] + [
        "tensor.op_calls", "blocks.kv_rows_projected", "model.decoder_queries",
        "costmodel.forward_gflop", "flops.parity"]
    for key in exact:
        assert a[key] == b[key], key
    assert a["tensor.op_calls"] > 0 and a["blocks.kv_rows_projected"] > 0
    assert out_a.psnr_trained == out_b.psnr_trained == plain.psnr_trained


def test_measured_logit_bytes_beside_analytic(runs):
    _, traced, _ = runs
    m = traced[0][2]
    assert m["tensor.peak_logit_bytes"] == m["costmodel.peak_logit_bytes"]
    assert m["tensor.decoder_peak_logit_bytes"] == m["costmodel.decoder_peak_logit_bytes"]


def test_tracer_restores_the_program():
    originals = (tensor.matmul, tensor.backward, flops.stage, model.build_queries,
                 blocks.MultiHeadAttention.__call__, model.LightFieldModel.decode)
    with Tracer():
        assert tensor.matmul is not originals[0]
    assert (tensor.matmul, tensor.backward, flops.stage, model.build_queries,
            blocks.MultiHeadAttention.__call__, model.LightFieldModel.decode) == originals


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(harness.__file__.rsplit(os.sep, 1)[0], tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "render",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
