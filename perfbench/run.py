"""Run one workload of the raypatch benchmark and print its result as JSON.

Run from the root of a checkout; the program is imported from ./src:

    python3 perfbench/run.py --workload render --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json. ``--trace 1``
runs the same pipeline with spans and counters around raypatch's layers,
reports the per-layer metrics and writes the spans to
``.perfbench/traces/<workload>-seed<seed>.json``. The last line of standard
output is the result; the line before it records the environment and the
sample count, median, mean and p90 of each timing. Exit code 2 means the arguments or the
checkout are unusable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys

# One BLAS thread, set before numpy is first imported. On a 2-vCPU VM a
# second thread gains little at these sizes, and waking it can stall a
# matrix product for a whole scheduler tick (16 ms against 0.5 ms).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def environment(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)), "seed": seed}


def result_line(metrics, spec_metrics, attempted, failed):
    """The final JSON line; a metric that is not finite makes the run incorrect."""
    units = {m["name"]: m["unit"] for m in spec_metrics}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json "
                           f"{sorted(units)}")
    finite = all(math.isfinite(v) for v in metrics.values())
    return {"correct": failed == 0 and finite, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name] if math.isfinite(metrics[name]) else None,
                               "unit": units[name]} for name in units}}


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "raypatch", "__init__.py")):
        print(f"error: no raypatch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import harness
    from tracer import Tracer

    wl = harness.WORKLOADS[args.workload]
    os.makedirs(WORKDIR, exist_ok=True)
    if args.trace:
        with Tracer() as tracer:
            out = harness.run(wl, args.seed, args.seconds, WORKDIR, tracer)
        tracer.write(os.path.join(WORKDIR, "traces", f"{wl.name}-seed{args.seed}.json"))
        metrics, spec_metrics = harness.per_layer(out, wl, tracer), spec["per_layer"]
    else:
        out = harness.run(wl, args.seed, args.seconds, WORKDIR)
        metrics, spec_metrics = harness.end_to_end(out), spec["end_to_end"]
    record = {"workload": wl.name, "seconds": args.seconds, "trace": args.trace,
              "env": environment(args.seed), "samples": harness.sample_summary(out),
              "host_probe_s": out.host.summary(),
              "heldout_psnr_untrained_db": out.psnr_untrained}
    print(json.dumps(record))
    print(json.dumps(result_line(metrics, spec_metrics, out.attempted, out.failed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
