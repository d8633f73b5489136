"""Instrumented FLOP counters for executed tensor ops.

Convention: one multiply-accumulate = 2 FLOPs. Only dense arithmetic that the
analytic cost model also prices is counted (matrix products, convolutions,
bilinear interpolation at 8 FLOPs per output element). Elementwise glue such
as activations, normalization statistics and residual adds is excluded on
both sides so instrumented and analytic totals stay comparable.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

_counters: list["FlopCounter"] = []
_stages: list[str] = []  # the open stages, innermost last
_lock = threading.Lock()  # branch workers (tensor._branches) add FLOPs too


class FlopCounter:
    """Collects FLOPs while active, attributed to the innermost open stage."""

    def __init__(self):
        self.total = 0.0
        self.by_stage: dict[str, float] = {}
        self.query_counts: dict[str, int] = {}

    def __enter__(self):
        _counters.append(self)
        return self

    def __exit__(self, *exc):
        _counters.remove(self)
        return False


@contextmanager
def stage(name):
    """Attribute the FLOPs counted inside to ``name`` on all active counters."""
    _stages.append(name)
    try:
        yield
    finally:
        _stages.pop()


def add_flops(flops):
    with _lock:
        for c in _counters:
            c.total += flops
            if _stages:
                c.by_stage[_stages[-1]] = c.by_stage.get(_stages[-1], 0.0) + flops


def count_queries(name, n):
    """Record that a decoder issued ``n`` attention queries (for query-count audits)."""
    for c in _counters:
        c.query_counts[name] = c.query_counts.get(name, 0) + n
