"""Run the benchmark repeatedly and report each metric's spread.

    python3 bench/stability.py --runs 10 [--workload check-long] [--same-seed] [--write]

Run i uses seed i (1..runs), or seed 1 every time with --same-seed, which
leaves only the machine's own variation.  Each round of runs goes once
through every workload chosen, so the workloads share the machine's slow
and fast stretches instead of each getting its own.  For every workload
and end-to-end metric it prints the median and the distance between the
first and third quartiles (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound from BENCHMARK.json.  With --write the
figures and the machine they came from go into bench/baseline.json,
under "seed_to_seed" or "same_seed"; without --same-seed one traced run
of seed 1 per workload goes there as "per_layer".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--same-seed", action="store_true")
    p.add_argument("--workload", action="append",
                   help="repeatable; default every workload in BENCHMARK.json")
    p.add_argument("--write", action="store_true")
    args = p.parse_args(argv)
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    seeds = [1] * args.runs if args.same_seed else list(range(1, args.runs + 1))
    started = time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime())
    values: dict[str, dict[str, list[float]]] = {name: {} for name in names}
    for seed in seeds:
        for name in names:
            res = run_once(name, seed, 0)
            for metric, v in res["metrics"].items():
                values[name].setdefault(metric, []).append(v["value"])
            print(f"{name} seed={seed} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "cpu": cpu_model(), "platform": platform.platform(),
           "recorded": [started, time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime())],
           "seeds": seeds, "run_seconds": SPEC["run_seconds"]}
    report = {}
    for name in names:
        stats = {}
        for metric, vals in values[name].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            stats[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "values": vals}
            flag = "" if spread < bounds[metric] / 3 else "  <-- above a third of the bound"
            print(f"  {name} {metric}: median {med:.4g} spread {spread:.3f} "
                  f"(bound {bounds[metric]}){flag}", flush=True)
        key = "same_seed" if args.same_seed else "seed_to_seed"
        report[name] = {key: {"environment": env, "metrics": stats}}
        if args.write and not args.same_seed:
            traced = run_once(name, 1, 1)
            report[name]["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
    if args.write:
        path = BENCH / "baseline.json"
        workloads = json.loads(path.read_text())["workloads"] if path.exists() else {}
        for name, entry in report.items():
            workloads.setdefault(name, {}).update(entry)
        path.write_text(json.dumps({"workloads": workloads}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
