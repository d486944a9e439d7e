#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in perfbench/README.md, or `all` to run every
workload in turn, each in its own process. The build lives in
.bench_build/perfbench under the repository root and is reused by later
runs. Build output goes to standard error; the last line of standard output
is the binary's JSON result.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["paper-table1", "stream-overload", "shard-wide",
             "closed-loop-cache"]
# A run measures for --seconds and adds its checks; anything far beyond
# that is a hang.
RUN_TIMEOUT_S = 170


def environment():
    """The environment of every child, with temporary files kept under the
    build directory."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures (once) and builds the binary; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("Makefile", "build.ninja"))
    if not configured:
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=environment(),
                                  stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            print(f"cannot run {cmd[0]}: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"build step failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def run_binary(args, workload):
    """Runs the binary on one workload; returns (exit code, stdout)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(BUILD, "out")]
    with subprocess.Popen(cmd, cwd=ROOT, env=environment(),
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"{workload}: no result within {RUN_TIMEOUT_S} s",
                  file=sys.stderr)
            return 1, ""
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 1

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        code, out = run_binary(args, workload)
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            print(f"{workload}: perfbench exited with {code}", file=sys.stderr)
            return 1
        if len(workloads) == 1:
            sys.stdout.write(out)
            return 0
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
