"""Benchmark of qlin: four workloads, end-to-end metrics or a traced run.

    python3 bench/run.py --workload check-long --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all          # every workload in turn

Each workload runs single-threaded in fresh processes started here
(bench/worker.py), so peak RSS belongs to that workload alone.  Every
time is scaled to the reference speed of calibration.py.  Set-up time
is measured from process start to the worker's READY line, on
SETUP_SAMPLES processes started before and after the measured one, each
scaled by the calibration units it runs right after set-up, and
reported as their median.  With --trace 0
the last line of output is one JSON object holding every end-to-end
metric; with --trace 1 untraced rounds and then one traced round run,
and the object holds the per-layer metrics and the tracing overhead.
Any result that misses its frozen expectation makes the run exit 1; a
missing program source makes it exit 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("check-long", "check-pending", "sweep-grid", "divergence")
SETUP_SAMPLES = 11
TIMEOUT_S = 170


class WorkerFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, trace: int, setup_only: bool = False):
    """Run bench/worker.py once; (set-up seconds at the reference speed,
    its JSON result or None)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    # a fixed hash seed keeps set and dict layouts alike from run to run
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.time()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerFailed(f"{workload}: worker ran past {TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"{workload}: worker exited with code {proc.returncode}")
    lines = out.splitlines()
    ready = [float(line.split()[1]) for line in lines if line.startswith("READY ")]
    unit = [float(line.split()[1]) for line in lines if line.startswith("UNIT ")]
    if not ready or not unit:
        raise WorkerFailed(f"{workload}: worker never reported READY and UNIT")
    result = json.loads(lines[-1]) if not setup_only else None
    return (ready[0] - started) * calibration.scale(unit), result


def hd_quantile(xs, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of xs: a mean of all the
    order statistics weighted by the Beta(p(n+1), (1-p)(n+1)) mass of
    their rank's share of [0, 1].  It moves less than one order
    statistic when a new seed reshuffles which history sits at the rank,
    and falls back to that one value for a single sample."""
    xs = sorted(xs)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64  # midpoint rule within each rank's share
    total = est = 0.0
    for i, x in enumerate(xs):
        w = sum(math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log(1 - t))
                for t in ((i + (j + 0.5) / steps) / n for j in range(steps)))
        total += w
        est += w * x
    return est / total


def percentile_metrics(latencies):
    ms = [x * 1000 for x in latencies]
    return hd_quantile(ms, 0.5), hd_quantile(ms, 0.9)


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Untraced run plus set-up probes: the end-to-end metrics."""
    # set-up probes on both sides of the timed run, so that a slow stretch
    # of the machine on one side does not set the figure
    def probes(n):
        return [spawn(workload, seed, seconds, 0, setup_only=True)[0] for _ in range(n)]
    setups = probes(SETUP_SAMPLES // 2)
    setup, res = spawn(workload, seed, seconds, 0)
    setups += [setup] + probes(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)
    p50, p90 = percentile_metrics(res["latencies_s"])
    n = len(res["latencies_s"])
    beyond = n - sum(1 for x in res["latencies_s"] if x * 1000 <= p90)
    print(f"{workload} seed={seed}: {n} operations, {res['rounds']} round(s), "
          f"{res['attempted']} calls; calibration unit {res['unit_s'] * 1000:.4g} ms "
          f"(reference {calibration.REFERENCE_UNIT_S * 1000:.4g} ms)")
    lines = [
        ("wall_s", res["wall_s"], "s", "sum of the operations' median calls"),
        ("verdict_ms_p50", p50, "ms", f"n={n}"),
        ("verdict_ms_p90", p90, "ms", f"n={n}, {beyond} beyond"),
        ("peak_rss_mib", res["peak_rss_mib"], "MiB", "ru_maxrss of the worker"),
        ("setup_s", statistics.median(setups), "s", f"median of {len(setups)} starts"),
    ]
    for name, value, unit, note in lines:
        print(f"  {name} {value:.6g} {unit} ({note})")
    error_rate = res["failed"] / res["attempted"]
    print(f"  error_rate {error_rate:.6g} ratio ({res['failed']}/{res['attempted']})")
    for err in res["errors"]:
        print(f"  MISMATCH {err}")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for name, value, unit, _ in lines}}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_us_per_" in name or ".us_per_" in name:
        return "us"
    return "ratio" if name.endswith("_per_verdict") else "count"


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    """Untraced rounds for reference, then one traced round, in one worker."""
    _, res = spawn(workload, seed, seconds, 1)
    layers = res["layers"]
    print(f"{workload} seed={seed}: traced round {res['round_s']:.6g} s, overhead "
          f"{layers['trace.overhead_s']:.6g} s against the median of "
          f"{res['untraced_rounds']} untraced round(s)")
    for name, value in layers.items():
        print(f"  {name} {value:.6g} {layer_unit(name)}")
    for err in res["errors"]:
        print(f"  MISMATCH {err}")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {name: {"value": value, "unit": layer_unit(name)}
                        for name, value in layers.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    run = measure_traced if args.trace else measure
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run(name, args.seed, args.seconds)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}:{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
