"""Spans and counters recorded around calls into raypatch's public entry points.

While installed, a ``Tracer`` replaces module and class attributes of
``raypatch`` with thin wrappers; ``uninstall`` puts the originals back. The
program itself is not edited, so a span covers one call into a layer as the
caller sees it. Internal calls are caught too wherever the package looks a
name up at call time (``T.matmul``, ``self.mha(...)``, ``flops.stage``).

A span is ``[name, start, end, parent, request]``: ``parent`` indexes the
enclosing span (-1 at the top) and ``request`` names the unit of work it
belongs to, such as ``step/17`` or ``view/42``. Spans stay in memory and are
written out once, when the run ends.

Wrapped entry points and what they record:

* ``LightFieldModel.encode/decode``, ``Adam.step``, ``model.loss_total``,
  ``model.evaluate``: spans ``model.*``;
* ``tensor.backward``: span ``tensor.backward``;
* every public op of ``raypatch.tensor``: the count ``tensor.op_calls``
  (``tensor.matmul_calls`` for matmul); ``softmax_rows`` also records the
  byte size of its input, the logit matrix;
* ``flops.stage``: spans ``stage.<name>``;
* ``MultiHeadAttention.__call__``: span ``blocks.mha`` and the counts
  ``blocks.mha_calls`` and ``blocks.kv_rows_projected`` (n_kv x heads);
* ``build_queries`` and ``ray_feature_map`` as ``raypatch.model`` binds them:
  spans ``geometry.*``;
* ``datasynth.make_dataset/load_dataset/render_scene_views`` and
  ``checkpoint.save_checkpoint/load_checkpoint``: spans, plus the size of
  the last checkpoint written.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from collections import defaultdict

from raypatch import blocks, checkpoint, datasynth, flops, model, tensor

# public functions of raypatch.tensor that are not tensor ops
NOT_OPS = frozenset({"backward", "tape_clear", "parameter", "grad_check", "global_grad_norm"})

OUTSIDE = "outside"  # request id of spans opened outside any request


class Request:
    """Everything one unit of work (a train step, an encode, a view) recorded."""

    def __init__(self, kind):
        self.kind = kind
        self.seconds = defaultdict(float)  # span name -> summed duration
        self.calls = defaultdict(int)      # span name -> number of spans
        self.counts = defaultdict(int)     # counter name -> total
        self.peak_logit_bytes = 0
        self.decoder_peak_logit_bytes = 0
        self.flops_by_stage = {}
        self.flops_total = 0.0
        self.decoder_queries = 0


class _StageSpan:
    """``flops.stage`` context that also opens a ``stage.<name>`` span."""

    __slots__ = ("tracer", "inner", "name", "idx")

    def __init__(self, tracer, inner, name):
        self.tracer, self.inner, self.name = tracer, inner, name

    def __enter__(self):
        self.idx = self.tracer._open(self.name)
        self.inner.__enter__()
        return self

    def __exit__(self, *exc):
        self.inner.__exit__(*exc)
        self.tracer._close(self.idx)
        return False


class _RequestScope:
    def __init__(self, tracer, kind, index):
        self.tracer, self.kind, self.index = tracer, kind, index

    def __enter__(self):
        tr = self.tracer
        rid = f"{self.kind}/{self.index}"
        self.req = tr.requests[rid] = Request(self.kind)
        tr.current, tr.request = self.req, rid
        self.counter = flops.FlopCounter().__enter__()
        self.idx = tr._open("request." + self.kind)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr._close(self.idx)
        self.counter.__exit__(*exc)
        self.req.flops_by_stage = dict(self.counter.by_stage)
        self.req.flops_total = self.counter.total
        self.req.decoder_queries = self.counter.query_counts.get("decoder", 0)
        tr.current, tr.request = tr.outside, OUTSIDE
        return False


class Tracer:
    def __init__(self):
        self.spans = []
        self.requests = {}
        self.outside = Request(OUTSIDE)
        self.current = self.outside
        self.request = OUTSIDE
        self.checkpoint_bytes = 0
        self._stack = []
        self._decode_depth = 0
        self._saved = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        span = self.spans[idx]
        span[2] = end = time.perf_counter()
        self._stack.pop()
        self.current.seconds[span[0]] += end - span[1]
        self.current.calls[span[0]] += 1

    def request_scope(self, kind, index):
        """Attribute everything until exit to request ``kind/index``."""
        return _RequestScope(self, kind, index)

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _spanned(self, owner, attr, name):
        fn = vars(owner)[attr]
        tracer = self

        def wrapper(*args, **kw):
            idx = tracer._open(name)
            try:
                return fn(*args, **kw)
            finally:
                tracer._close(idx)

        self._patch(owner, attr, wrapper)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()  # leave the program as it was
            raise
        return self

    def _install(self):
        tracer = self
        for owner, attr, name in (
                (model.LightFieldModel, "encode", "model.encode"),
                (model.Adam, "step", "model.adam_step"),
                (model, "loss_total", "model.loss"),
                (model, "evaluate", "model.evaluate"),
                (model, "build_queries", "geometry.build_queries"),
                (model, "ray_feature_map", "geometry.ray_feature_map"),
                (tensor, "backward", "tensor.backward"),
                (datasynth, "make_dataset", "datasynth.make_dataset"),
                (datasynth, "load_dataset", "datasynth.load_dataset"),
                (datasynth, "render_scene_views", "datasynth.render_scene_views"),
                (checkpoint, "load_checkpoint", "checkpoint.load")):
            self._spanned(owner, attr, name)

        decode = vars(model.LightFieldModel)["decode"]

        def decode_wrapper(*args, **kw):
            idx = tracer._open("model.decode")
            tracer._decode_depth += 1
            try:
                return decode(*args, **kw)
            finally:
                tracer._decode_depth -= 1
                tracer._close(idx)

        self._patch(model.LightFieldModel, "decode", decode_wrapper)

        save = vars(checkpoint)["save_checkpoint"]

        def save_wrapper(path, *args, **kw):
            idx = tracer._open("checkpoint.save")
            try:
                return save(path, *args, **kw)
            finally:
                tracer._close(idx)
                tracer.checkpoint_bytes = os.path.getsize(path)

        self._patch(checkpoint, "save_checkpoint", save_wrapper)

        stage = vars(flops)["stage"]
        self._patch(flops, "stage", lambda name: _StageSpan(tracer, stage(name), "stage." + name))

        mha_call = vars(blocks.MultiHeadAttention)["__call__"]

        def mha_wrapper(mha, x_q, x_kv, *args, **kw):
            counts = tracer.current.counts
            counts["blocks.mha_calls"] += 1
            counts["blocks.kv_rows_projected"] += x_kv.shape[0] * mha.cfg.heads
            idx = tracer._open("blocks.mha")
            try:
                return mha_call(mha, x_q, x_kv, *args, **kw)
            finally:
                tracer._close(idx)

        self._patch(blocks.MultiHeadAttention, "__call__", mha_wrapper)

        for name, fn in list(vars(tensor).items()):
            if (name.startswith("_") or name in NOT_OPS or not inspect.isfunction(fn)
                    or fn.__module__ != tensor.__name__):
                continue
            self._patch(tensor, name, self._op_counter(name, fn))

    def _op_counter(self, name, fn):
        tracer = self
        if name == "softmax_rows":
            def softmax_wrapper(x):
                req = tracer.current
                req.counts["tensor.op_calls"] += 1
                nbytes = x.data.nbytes
                req.peak_logit_bytes = max(req.peak_logit_bytes, nbytes)
                if tracer._decode_depth:
                    req.decoder_peak_logit_bytes = max(req.decoder_peak_logit_bytes, nbytes)
                return fn(x)
            return softmax_wrapper
        key = "tensor.matmul_calls" if name == "matmul" else None

        def op_wrapper(*args, **kw):
            counts = tracer.current.counts
            counts["tensor.op_calls"] += 1
            if key:
                counts[key] += 1
            return fn(*args, **kw)
        return op_wrapper

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output --------------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the part of it that child spans cover."""
        children = defaultdict(list)
        for span in self.spans:
            if span[3] >= 0:
                children[span[3]].append((span[1], span[2]))
        out = []
        for idx, (_, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(idx, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            out.append((end - start) - covered)
        return out

    def write(self, path):
        """Write every span, with its self time, as JSON."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [{"name": name, "start": start - t0, "end": end - t0, "parent": parent,
                 "request": request, "self_s": self_s}
                for (name, start, end, parent, request), self_s
                in zip(self.spans, self.self_times())]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh)
