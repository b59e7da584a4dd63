#!/usr/bin/env python3
"""Builds the end-to-end benchmark and runs one workload.

    python3 e2ebench/run.py --workload <solve|serve|grow|restart> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build); the benchmark writes its store and span files
under .bench_work. The last line of stdout is the JSON result; the exit
code is the benchmark's (1 when a correctness check fails, 2 when the
build or the arguments fail).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Each run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: the benchmark did not build", file=sys.stderr)
        return 2
    exe = os.path.join(target, "release", "sns-e2ebench")
    try:
        run = subprocess.run([exe, *sys.argv[1:]], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: the run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
