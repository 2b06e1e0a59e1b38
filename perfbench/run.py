#!/usr/bin/env python3
"""Builds perfbench from this checkout and runs one workload.

    python3 perfbench/run.py --workload leaderboard --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout. The first run configures and builds
the tsad library and the perfbench program into .bench_build/perfbench
(about 30 s on 4 cores); later runs only rebuild what changed. The last
line of stdout is the result JSON: the end-to-end metrics named in
BENCHMARK.json with --trace 0, every per-layer metric with --trace 1
(a layer the workload does not touch reads 0).

--workload all runs every workload in turn and prints each one's
headline numbers and result line; it is for reading, not for comparing runs.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(BUILD_DIR, "out")
WORKLOADS = ["leaderboard", "table1", "serve", "discovery"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the perfbench program; returns its path."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed; see " + log_path)
    return os.path.join(BUILD_DIR, "perfbench")


def commit():
    """The checkout's git commit, or "unknown" when it is not a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(binary, args, sha):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", sha, "--out", OUT_DIR]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(lines[-1] + "\n")
        fail("no result line (exit code %d)" % proc.returncode)

    # Report exactly the metrics BENCHMARK.json declares for this mode.
    measured = result["metrics"]
    metrics = {}
    for decl in benchmark_spec()["per_layer" if args.trace else "end_to_end"]:
        name = decl["name"]
        if name in measured:
            if measured[name]["unit"] != decl["unit"]:
                fail("metric %s measured in %s, declared in %s"
                     % (name, measured[name]["unit"], decl["unit"]))
            metrics[name] = measured[name]
        elif args.trace:
            metrics[name] = {"value": 0, "unit": decl["unit"]}
        else:
            fail("workload %s did not measure %s" % (args.workload, name))
    extra = sorted(set(measured) - set(metrics))
    if extra:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(extra))
    result["metrics"] = metrics
    print(json.dumps(result))
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    sha = commit()
    if args.workload != "all":
        sys.exit(run_one(binary, args, sha))
    status = 0
    for workload in WORKLOADS:
        args.workload = workload
        status |= run_one(binary, args, sha)
    sys.exit(status)


if __name__ == "__main__":
    main()
