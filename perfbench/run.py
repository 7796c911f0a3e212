#!/usr/bin/env python3
"""Build `soc` and the benchmark from source, then run one benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload solve_projected|ingest_mix|batch_exact \
        --seed N --seconds S --trace 0|1

Both programs build in release mode into $CARGO_TARGET_DIR (default
`.bench_build` at the repository root). Build output goes to standard
error; the benchmark's report, ending in one JSON line, goes to standard
output. A failed build exits nonzero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(args, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def main():
    target = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    )
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("perfbench: no Cargo.toml at the repository root", file=sys.stderr)
        return 1
    if not build(["-p", "soc-cli", "--bin", "soc"], target):
        return 1
    if not build(["--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")], target):
        return 1
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--soc",
        os.path.join(release, "soc"),
        "--out-dir",
        os.path.join(target, "perfbench"),
    ]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
