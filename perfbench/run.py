#!/usr/bin/env python3
"""Builds olapidx's benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is advise-d16, serve-dashboard or service-drift (see README.md), or
all to run the three in turn. The first run configures and builds into
$CARGO_TARGET_DIR (default .bench_build) under the repository root; later
runs rebuild incrementally. Build output goes to stderr. The benchmark's own
output goes to stdout; the last line of each workload's output is its JSON
result. The exit code is nonzero when the build, an output check or a
metric's sample count fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_SOURCE = ROOT / "perfbench"
WORKLOADS = ("advise-d16", "serve-dashboard", "service-drift")


def build(build_dir: Path, jobs: int) -> bool:
    steps = []
    if not (build_dir / "Makefile").exists():
        steps.append(["cmake", "-S", str(BENCH_SOURCE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", str(jobs)])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("error: " + " ".join(step) + " failed", file=sys.stderr)
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    out_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out_dir.is_absolute():
        out_dir = ROOT / out_dir
    build_dir = out_dir / "perfbench"
    if not build(build_dir, len(os.sched_getaffinity(0))):
        return 1

    work_dir = out_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        command = [str(build_dir / "perfbench"),
                   "--workload", workload,
                   "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", args.trace,
                   "--work-dir", str(work_dir)]
        if args.trace == "1":
            trace_dir = out_dir / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            command += ["--trace-file", str(
                trace_dir / f"{workload}.seed{args.seed}.spans.jsonl")]
        sys.stdout.flush()
        code = subprocess.run(command, cwd=ROOT).returncode
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
