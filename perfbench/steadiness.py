#!/usr/bin/env python3
"""Steadiness check: runs workloads over several seeds and reports spread.

    python3 perfbench/steadiness.py --runs 10 [--workloads serve,table1]

For every workload it runs perfbench/run.py once per seed (seeds 1..N,
untraced, run_seconds from BENCHMARK.json) and prints, per end-to-end
metric, the median, the quartiles (statistics.quantiles(values, n=4))
and the interquartile spread as a share of the median, next to the
metric's bound. A spread above bound / 3 is flagged; setup_s is shown
but only its median matters for regressions.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args()

    flagged = False
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = proc.stdout.strip().split("\n")[-1]
            if proc.returncode != 0 or not last.startswith("{"):
                print("%s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
                sys.stdout.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                sys.exit(1)
            result = json.loads(last)
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (n, m["value"]) for n, m in result["metrics"].items())),
                flush=True)
        for metric in spec["end_to_end"]:
            v = values[metric["name"]]
            q1, q2, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / q2
            mark = ""
            if metric["name"] != "setup_s" and spread > metric["bound"] / 3:
                mark = "  <-- above bound/3"
                flagged = True
            print("  %-11s %-12s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%% "
                  "(bound %g%%)%s" % (workload, metric["name"], q2, q1, q3,
                                      100 * spread, 100 * metric["bound"], mark),
                  flush=True)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
