"""A host-speed reference that puts wall times on one scale across runs.

On a shared VM the host's speed is not constant: for tens of seconds at a
time it runs about a third slower, then fast again. The switch moves a
run's medians by that third, which is wider than any useful regression
bound. ``HostSpeed`` times a fixed BLAS kernel that does not call the
program, about every ``PROBE_EVERY_S`` seconds, and ``scale`` turns a wall
time into *nominal seconds*: the wall time times ``NOMINAL_S`` over the
kernel's latest time. A raypatch step or view and this kernel slow down
alike (within about 5% when the host switches), so a nominal time stays
put while the raw time jumps. A change to the program does not touch the
kernel, so it shows in nominal time in full.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 2.5e-3    # the kernel's time on the fast state of a 2-vCPU VM, OpenBLAS 0.3.31
PROBE_EVERY_S = 0.1   # largest age of the probe that scales a sample
REPEATS = 3           # kernel runs per probe; the probe keeps the fastest


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(20230516)
        self._small = rng.standard_normal((96, 96))
        self._large = rng.standard_normal((256, 256))
        self.probes = []    # seconds of each probe's fastest kernel run
        self._at = -np.inf  # perf_counter time of the latest probe

    def _kernel(self):
        y = self._small
        for _ in range(30):
            y = np.tanh(y @ self._small * 0.01)
        return (self._large @ self._large) @ self._large

    def probe(self):
        best = np.inf
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - t0)
        self.probes.append(best)
        self._at = time.perf_counter()

    def scale(self, seconds):
        """``seconds`` of wall time in nominal seconds, by a probe at most
        ``PROBE_EVERY_S`` old; call it right after the timed work ends."""
        if time.perf_counter() - self._at > PROBE_EVERY_S:
            self.probe()
        return seconds * NOMINAL_S / self.probes[-1]

    def summary(self):
        """Count and median, fastest and slowest of the probes, for the record line."""
        p = self.probes
        return {"n": len(p), "nominal_s": NOMINAL_S,
                "p50": statistics.median(p) if p else None,
                "min": min(p, default=None), "max": max(p, default=None)}
