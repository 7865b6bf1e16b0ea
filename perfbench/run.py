#!/usr/bin/env python3
"""Benchmark for nvscatter: one workload per process.

    python3 perfbench/run.py --workload scan-ab-n128 --seed 1 --seconds 30

Run from the repository root.  The program is imported from ./src.  A run
times whole rounds of its workload until the next round would end after
--seconds (at least one round), checks the outputs, and prints one JSON
object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs one untraced and
one traced round on the same inputs and reports the per-layer metrics.
Outputs, configs and the span trace go to .perfbench-out/<workload>/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("scan-ab-n128", "det-n128", "verify-dbar-n64")


def process_age() -> float:
    """Seconds since this process was started, interpreter start included."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def timed_round(wl, k):
    t = time.perf_counter()
    result = wl.round(k)
    return result, time.perf_counter() - t


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "nvscatter" / "__init__.py").is_file():
        print(f"error: no nvscatter sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from tracer import Tracer
    import workloads

    out_dir = ROOT / ".perfbench-out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](out_dir, args.seed)
    tracer = Tracer() if args.trace else None

    with tracer.active() if tracer else contextlib.nullcontext():
        wl.setup()
    setup_s = process_age()

    results, walls = [], []
    if tracer:
        result, untraced = timed_round(wl, 0)
        results.append(result)
        with tracer.active():
            result, traced = timed_round(wl, 0)
        results.append(result)
        tracer.dump(out_dir / "trace.json")
    else:
        start = time.perf_counter()
        while True:
            result, wall = timed_round(wl, len(results))
            results.append(result)
            walls.append(wall)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(walls) > args.seconds:
                break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops = [wl.operations(r) for r in results]
    checks = wl.checks(results)
    for c in checks:
        print(f"check {c.name:28s} residual={c.residual:.3e} tol={c.tol:.0e} "
              f"{'ok' if c.ok else 'FAIL'}", file=sys.stderr)

    if tracer:
        metrics = tracer.metrics(traced - untraced)
    else:
        wall_s = statistics.median(walls)
        metrics = {"wall_s": (wall_s, "s"),
                   "lambda_per_s": (wl.lambdas_per_round / wall_s, "1/s"),
                   "peak_rss_mb": (peak_mb, "MB"),
                   "setup_s": (setup_s, "s")}
    print(json.dumps({
        "correct": all(c.ok for c in checks),
        "attempted": sum(a for a, _ in ops),
        "failed": sum(f for _, f in ops),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
