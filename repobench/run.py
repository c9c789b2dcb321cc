#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds repobench (and the calipers library it drives) from this source
tree, then runs one workload:

    python3 repobench/run.py --workload mem-sweep --seed 1 --seconds 12 --trace 0

Run from the repository root.  Build output goes to stderr and to
.bench_build/repobench/; the last stdout line is the benchmark's JSON
result.  `--selftest` builds and runs the benchmark's own arithmetic
tests instead.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "repobench")
WORKLOADS = ["mem-sweep", "net-ingest", "analyst-serve", "pmu-audit"]


def build(targets):
    """Configures until a configure succeeds, then builds `targets`."""
    os.makedirs(BUILD, exist_ok=True)
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in generated):
        cmd = ["cmake", "-S", os.path.relpath(HERE, ROOT), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, cwd=ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets,
                   check=True, stdout=sys.stderr, cwd=ROOT)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    try:
        build(["repobench_selftest"] if args.selftest else ["repobench"])
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"repobench: build failed: {err}", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(BUILD, "repobench_selftest")],
                              cwd=ROOT).returncode
    cmd = [os.path.join(BUILD, "repobench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--out", os.path.join(BUILD, "runs")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
