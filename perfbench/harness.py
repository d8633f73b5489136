"""The raypatch benchmark pipeline and the metrics it reports.

Every workload runs the same closed loop, with one caller and no think time:

* set-up: render the procedural dataset to a file, load it, build the model
  and its optimizer, save the model as a checkpoint and load it back (the
  model that trains is the loaded one);
* evaluate the untrained model on the held-out scenes;
* ``ROUNDS`` rounds of: train a share of the fixed step budget, save the
  model and load it back, render with the loaded model for a share of
  ``seconds`` (per scene, encode the rig views once, then decode a ring of
  novel views without gradient recording), and time one more set-up;
* evaluate the trained model on the held-out scenes.

The step budget is fixed, so held-out PSNR repeats exactly for a seed.
Rounds spread each metric's samples over the whole run, so a slow spell of
a shared host moves a statistic less than it would move one long phase. With
a tracer, each train step, encode and view is a request whose spans and
counters give the per-layer metrics.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from raypatch import checkpoint as ck
from raypatch import costmodel as cm
from raypatch import datasynth as ds
from raypatch import model as M
from raypatch import tensor as T

from hostspeed import HostSpeed

# largest |reloaded - saved| over a decoded view: the checkpoint stores f32
# weights, which moves float64 outputs of order 1 by about 1e-7
RELOAD_TOL = 1e-4
RING_PHASE_DEG = 15.0  # keeps ring poses off the rig's 0/120/240 degree views
STAGES = ("encoder_conv", "encoder_attn", "decoder_attn", "decoder_cnn")
OVERHEAD_PAIRS = 10
ROUNDS = 8
LR = 3e-4  # Adam learning rate of every workload


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    decoder: str
    size: int            # image height = width
    model: dict          # ModelConfig overrides
    scenes: int          # dataset size; the last ``heldout`` scenes are held out
    heldout: int
    steps: int           # training step budget
    warmup_steps: int    # leading steps left out of the timed samples
    ring: int            # novel views rendered per scene encode
    main: tuple          # request kinds whose layers the per-layer metrics describe


TOY = {}  # the CLI's default model: 32x32, k=4, d_model 64, 2 heads
RENDER = dict(k=8, d_model=256, heads=4, d_k=64, d_v=64, downsamplings=3)

WORKLOADS = {w.name: w for w in (
    Workload("train_raypatch",
             "toy RayPatch training: Python/tape-bound step, backward and Adam are a large share",
             "raypatch", 32, TOY, scenes=52, heldout=12, steps=240, warmup_steps=3,
             ring=8, main=("step",)),
    Workload("train_pixel",
             "per-pixel baseline at the same budget: decoder attention under grad dominates",
             "pixel", 32, TOY, scenes=52, heldout=12, steps=240, warmup_steps=3,
             ring=8, main=("step",)),
    Workload("render",
             "encode once, render many 128x128 views without grad: BLAS-bound, K/V re-projection",
             "raypatch", 128, RENDER, scenes=14, heldout=8, steps=32, warmup_steps=2,
             ring=12, main=("encode", "view")),
)}


@dataclass
class Outcome:
    """What one run measured: failure counts, timing samples, scalars.

    ``samples`` are in nominal seconds (see hostspeed.py), ``raw`` in wall
    seconds."""

    attempted: int = 0
    failed: int = 0
    samples: dict = field(default_factory=lambda: {
        "setup_s": [], "train_step_s": [], "encode_s": [], "render_view_s": []})
    raw: dict = field(default_factory=lambda: {
        "setup_s": [], "train_step_s": [], "encode_s": [], "render_view_s": []})
    host: HostSpeed = field(default_factory=HostSpeed)
    psnr_untrained: float = math.nan
    psnr_trained: float = math.nan
    overhead_frac: float = math.nan
    model: object = None       # the reloaded, trained model that rendered
    views_per_encode: int = 0  # encoder inputs per encode in the main phase

    def check(self, ok):
        self.attempted += 1
        self.failed += not ok
        return ok

    def sample(self, name, seconds):
        self.raw[name].append(seconds)
        self.samples[name].append(self.host.scale(seconds))


def _finite(values):
    return all(math.isfinite(v) for v in values)


def _image_ok(out, size):
    return out.shape == (4, size, size) and bool(np.all(np.isfinite(out.data)))


def _ring_poses(n):
    return [ds.rig_pose(RING_PHASE_DEG + 360.0 * i / n) for i in range(n)]


def _scope(tracer, kind, index):
    return tracer.request_scope(kind, index) if tracer else nullcontext()


def _setup(wl, seed, workdir, out, tracer):
    """One timed set-up; returns (scenes, model, optimizer)."""
    data_path = os.path.join(workdir, "scenes.rpds")
    ckpt_path = os.path.join(workdir, "initial.rpck")
    with _scope(tracer, "setup", len(out.samples["setup_s"])):
        t0 = time.perf_counter()
        ds.make_dataset(data_path, wl.scenes, wl.size, wl.size, seed * 1000)
        _, scenes = ds.load_dataset(data_path)
        cfg = M.ModelConfig(height=wl.size, width=wl.size, seed=seed, **wl.model)
        ck.save_checkpoint(ckpt_path, M.LightFieldModel(cfg, wl.decoder))
        model, _ = ck.load_checkpoint(ckpt_path)
        opt = M.Adam(model.named_parameters(), lr=LR)
        dt = time.perf_counter() - t0
    out.sample("setup_s", dt)
    return scenes, model, opt


def _evaluate(model, held, out):
    try:
        res = M.evaluate(model, held)
    except T.NumericError:
        out.check(False)
        return math.nan
    out.check(_finite(res.values()))
    return res["psnr"]


def _train(model, opt, train_scenes, steps, wl, out, tracer):
    for step in steps:
        views = train_scenes[step % len(train_scenes)]
        with _scope(tracer, "step", step):
            t0 = time.perf_counter()
            try:
                res = M.train_step(model, views, opt)
            except T.NumericError:
                res = None
            dt = time.perf_counter() - t0
        if out.check(res is not None and _finite(res.values())) and step >= wl.warmup_steps:
            out.sample("train_step_s", dt)


def _check_reload(model, loaded, probe, wl, out):
    """The reloaded model must decode the probe scene's first ring view alike."""
    inputs = [(v.image, v.intrinsics, v.pose) for v in probe]
    intr, pose = ds.rig_intrinsics(wl.size, wl.size), _ring_poses(wl.ring)[0]
    try:
        with T.no_grad():
            a = model.decode(model.encode(inputs), intr, pose)
            b = loaded.decode(loaded.encode(inputs), intr, pose)
    except T.NumericError:
        out.check(False)
        return
    out.check(_image_ok(b, wl.size)
              and float(np.max(np.abs(a.data - b.data))) <= RELOAD_TOL)


class _Renderer:
    """Render-phase state carried from one round's slice to the next."""

    def __init__(self, scenes, wl, out, tracer):
        self.scenes, self.wl, self.out, self.tracer = scenes, wl, out, tracer
        self.intr = ds.rig_intrinsics(wl.size, wl.size)
        self.poses = _ring_poses(wl.ring)
        self.encodes = 0
        self.z = None  # the last scene's tokens

    def _encode(self, model, views):
        return model.encode([(v.image, v.intrinsics, v.pose) for v in views])

    def render(self, model, seconds):
        """Encode scenes and decode their rings for ``seconds``, at least one scene."""
        out, poses = self.out, self.poses
        n_kv = len(self.scenes[0]) * model.cfg.tokens_per_view()
        with T.no_grad():
            if not self.encodes:  # warmup, not timed
                try:
                    model.decode(self._encode(model, self.scenes[0]), self.intr, poses[0])
                except T.NumericError:
                    out.check(False)
            start = time.perf_counter()
            while True:
                i = self.encodes
                self.encodes += 1
                with _scope(self.tracer, "encode", i):
                    t0 = time.perf_counter()
                    try:
                        z = self._encode(model, self.scenes[i % len(self.scenes)])
                    except T.NumericError:
                        z = None
                    dt = time.perf_counter() - t0
                if out.check(z is not None and z.shape == (n_kv, model.cfg.d_model)
                             and bool(np.all(np.isfinite(z.data)))):
                    self.z = z
                    out.sample("encode_s", dt)
                    for j, pose in enumerate(poses):
                        with _scope(self.tracer, "view", i * len(poses) + j):
                            t0 = time.perf_counter()
                            try:
                                img = model.decode(z, self.intr, pose)
                            except T.NumericError:
                                img = None
                            dt = time.perf_counter() - t0
                        if out.check(img is not None and _image_ok(img, self.wl.size)):
                            out.sample("render_view_s", dt)
                if time.perf_counter() - start >= seconds:
                    return


def _overhead(tracer, iterate, out):
    """Median traced over median untraced time of one iteration, minus 1, at least 0.

    A traced iteration runs in a request scope of its own kind, so it pays the
    per-request bookkeeping that the traced main phase pays."""
    tracer.uninstall()
    off, on = [], []
    for p in range(2 * OVERHEAD_PAIRS):
        traced = p % 4 in (1, 2)  # off/on, then on/off, to cancel drift
        if traced:
            tracer.install()
        with _scope(tracer if traced else None, "overhead", p):
            t0 = time.perf_counter()
            try:
                iterate(p)
            except T.NumericError:
                out.check(False)
            dt = time.perf_counter() - t0
        (on if traced else off).append(dt)
        if traced:
            tracer.uninstall()
    tracer.install()
    return max(statistics.median(on) / statistics.median(off) - 1.0, 0.0)


def run(wl, seed, seconds, workdir, tracer=None):
    """Run workload ``wl`` once; the tracer, if given, must be installed."""
    out = Outcome()
    tmp = tempfile.mkdtemp(dir=workdir)
    try:
        scenes, model, opt = _setup(wl, seed, tmp, out, tracer)
        train_scenes, held = scenes[:-wl.heldout], scenes[-wl.heldout:]
        with _scope(tracer, "eval", 0):
            out.psnr_untrained = _evaluate(model, held, out)
        renderer = _Renderer(scenes, wl, out, tracer)
        ckpt_path = os.path.join(tmp, "trained.rpck")
        for r in range(ROUNDS):
            _train(model, opt, train_scenes,
                   range(wl.steps * r // ROUNDS, wl.steps * (r + 1) // ROUNDS), wl, out, tracer)
            with _scope(tracer, "checkpoint", r):
                ck.save_checkpoint(ckpt_path, model)
                loaded, _ = ck.load_checkpoint(ckpt_path)
                if r == ROUNDS - 1:
                    _check_reload(model, loaded, held[0], wl, out)
            renderer.render(loaded, seconds / ROUNDS)
            try:
                _setup(wl, seed, tmp, out, tracer)  # timed again, result dropped
            except T.NumericError:
                out.check(False)
        with _scope(tracer, "eval", 1):
            out.psnr_trained = _evaluate(model, held, out)
        # beating the untrained model on the same held-out scenes
        out.check(out.psnr_trained > out.psnr_untrained)
        out.model = loaded
        out.views_per_encode = (len(M.scene_to_views(scenes[0])[0]) if wl.main == ("step",)
                                else len(scenes[0]))
        if tracer is not None and wl.main == ("step",):
            out.overhead_frac = _overhead(tracer, lambda p: M.train_step(
                model, train_scenes[p % len(train_scenes)], opt), out)
        elif tracer is not None and renderer.z is not None:
            with T.no_grad():
                out.overhead_frac = _overhead(tracer, lambda p: loaded.decode(
                    renderer.z, renderer.intr, renderer.poses[p % len(renderer.poses)]), out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _p(values, q):
    return float(np.percentile(values, q)) if values else math.nan


def _mean(values):
    return statistics.fmean(values) if values else math.nan


def end_to_end(out):
    s = out.samples
    busy = sum(s["encode_s"]) + sum(s["render_view_s"])
    return {
        "setup_s": _p(s["setup_s"], 50),
        "train_step_s.p50": _p(s["train_step_s"], 50),
        "train_step_s.p90": _p(s["train_step_s"], 90),
        "heldout_psnr_db": out.psnr_trained,
        "encode_s.p50": _p(s["encode_s"], 50),
        "render_view_s.p50": _p(s["render_view_s"], 50),
        "render_view_s.p90": _p(s["render_view_s"], 90),
        "views_per_s": _ratio(len(s["render_view_s"]), busy),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _median(values):
    """Median, or 0.0 when the layer never ran in the workload (such as the
    pixel decoder's missing CNN stage); per-layer metrics may read 0."""
    return statistics.median(values) if values else 0.0


def _ratio(a, b):
    return a / b if b else math.nan


def per_layer(out, wl, tracer):
    """Per-layer metrics of one traced run (see README for each definition)."""
    reqs = list(tracer.requests.values())
    main = [r for r in reqs if r.kind in wl.main]
    counted = [r for r in reqs if r.kind == wl.main[-1]]  # a train step or a view
    steps = [r for r in reqs if r.kind == "step"]

    def secs(name, pool=main):
        """Median over requests that ran ``name`` of its summed span seconds."""
        return _median([r.seconds[name] for r in pool if r.calls[name]])

    def per_request(values):
        return _ratio(sum(values), len(counted))

    def calls(name):
        return _median([end - start for n, start, end, _, _ in tracer.spans if n == name])

    model = out.model
    n_views = out.views_per_encode
    enc_spec = model.encoder.layer_spec(n_views)
    dec_spec = model.decoder.layer_spec(n_views * model.cfg.tokens_per_view())
    enc_flops, dec_flops = cm.full_model_flops(enc_spec), cm.full_model_flops(dec_spec)

    def analytic(pool):
        return sum(r.calls["model.encode"] * enc_flops + r.calls["model.decode"] * dec_flops
                   for r in pool)

    def logit_bytes(spec):
        return max((8 * layer.n_q * layer.n_kv for layer in spec
                    if isinstance(layer, cm.AttnProductCost)), default=0)

    m = {
        "tensor.backward_s": secs("tensor.backward", steps),
        "tensor.op_calls": per_request(r.counts["tensor.op_calls"] for r in counted),
        "tensor.matmul_calls": per_request(r.counts["tensor.matmul_calls"] for r in counted),
        "tensor.peak_logit_bytes": max(r.peak_logit_bytes for r in main),
        "tensor.decoder_peak_logit_bytes": max(r.decoder_peak_logit_bytes for r in main),
        "costmodel.peak_logit_bytes": logit_bytes(enc_spec + dec_spec),
        "costmodel.decoder_peak_logit_bytes": logit_bytes(dec_spec),
        "model.adam_step_s": secs("model.adam_step", steps),
        "model.encode_s": secs("model.encode"),
        "model.decode_s": secs("model.decode"),
        "model.loss_s": secs("model.loss", steps),
        "model.evaluate_s": calls("model.evaluate"),
        "model.decoder_queries": per_request(r.decoder_queries for r in counted),
    }
    for stage in STAGES:
        name = "stage." + stage
        t = secs(name)
        gflop = _median([r.flops_by_stage.get(stage, 0.0) / 1e9 for r in main
                         if r.calls[name]])
        m[name + "_s"] = t
        m[name + ".gflop"] = gflop
        m[name + ".gflop_per_s"] = gflop / t if t else 0.0  # 0: the stage never ran
    m.update({
        "blocks.mha_calls": per_request(r.counts["blocks.mha_calls"] for r in counted),
        "blocks.mha_s": secs("blocks.mha", counted),
        "blocks.kv_rows_projected": per_request(
            r.counts["blocks.kv_rows_projected"] for r in counted),
        "costmodel.forward_gflop": _ratio(analytic(counted), len(counted)) / 1e9,
        "flops.parity": _ratio(sum(r.flops_total for r in main), analytic(main)),
        "geometry.build_queries_s": secs("geometry.build_queries"),
        "geometry.ray_feature_map_s": secs("geometry.ray_feature_map"),
        "datasynth.make_dataset_s": calls("datasynth.make_dataset"),
        "datasynth.load_dataset_s": calls("datasynth.load_dataset"),
        "datasynth.render_scene_views_s": calls("datasynth.render_scene_views"),
        "checkpoint.save_s": calls("checkpoint.save"),
        "checkpoint.load_s": calls("checkpoint.load"),
        "checkpoint.bytes": tracer.checkpoint_bytes,
        "trace.overhead_frac": out.overhead_frac,
    })
    return m


def sample_summary(out):
    """Count, median, mean and p90 of every timing, nominal and raw, for the
    record line."""
    return {name: {"n": len(v), "p50": _p(v, 50), "mean": _mean(v), "p90": _p(v, 90),
                   "raw_p50": _p(out.raw[name], 50), "raw_p90": _p(out.raw[name], 90)}
            for name, v in out.samples.items()}
