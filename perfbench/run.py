#!/usr/bin/env python3
"""Build the repo benchmark from source and run it.

    python3 perfbench/run.py --workload sweep|coverage \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The program is built with dune into
$CARGO_TARGET_DIR (default _build); the build log goes to stderr, so the
last stdout line is the benchmark's JSON result. Exits non-zero, with no
result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SEED = 0xCA57ED


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or "_build"


def build(target):
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("run.py: dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = [dune, "build", "--root", ".", "--build-dir", build_dir(),
           "--profile", "release", target]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("run.py: build failed")
    return os.path.join(build_dir(), "default", target)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=["sweep", "coverage"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int,
                   help="measured time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true",
                   help="run the benchmark's own tests at reduced size")
    args = p.parse_args()
    if not args.selftest and args.workload is None:
        p.error("--workload is required")
    if not os.path.isfile("dune-project"):
        sys.exit("run.py: run from the root of a checkout (no dune-project here)")
    if args.seconds is None:
        with open("BENCHMARK.json") as f:
            args.seconds = json.load(f)["run_seconds"]
    target = os.path.join(HERE, "selftest.exe" if args.selftest else "bench.exe")
    exe = build(target)
    work_dir = os.path.join(build_dir(), "perfbench-work")
    os.makedirs(work_dir, exist_ok=True)
    if args.selftest:
        cmd = [exe, "--work-dir", work_dir, "--benchmark-json", "BENCHMARK.json"]
    else:
        cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    try:
        rc = subprocess.run(cmd, timeout=min(170, args.seconds + 120)).returncode
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark timed out")
    sys.exit(rc)


if __name__ == "__main__":
    main()
