"""Repeat runs over several seeds and record medians, quartiles and spreads.

    python3 perfbench/baseline.py [--out FILE]

Each workload runs RUNS times untraced, seeds 1..RUNS, then once traced
(seed 0).  For every end-to-end metric the spread is the distance
between the first and third quartile over the median; it is compared
with a third of the metric's bound in BENCHMARK.json.  The exit code is
1 if any run failed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=ROOT,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["exit_code"] = proc.returncode
    result["seed"] = seed
    return result


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    record = {
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "platform": platform.platform()},
        "run_seconds": seconds,
        "workloads": {},
    }
    ok = True
    for name in (w["name"] for w in bench["workloads"]):
        runs = [run_once(name, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        summary = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                               "bound": bound, "values": values}
            flag = "" if spread < bound / 3 else "  <-- spread above bound/3"
            print(f"{name:18s} {metric:12s} median {med:.6g}  spread {spread:.4f} (bound {bound}){flag}",
                  flush=True)
        entry = {"untraced": summary,
                 "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs]}
        ok &= all(r["correct"] and r["exit_code"] == 0 for r in runs)
        traced = run_once(name, 0, seconds, 1)
        ok &= traced["correct"] and traced["exit_code"] == 0
        entry["traced"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][name] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
