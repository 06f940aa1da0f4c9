#!/usr/bin/env python3
"""Build and run the qsim-rs benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark binary (its own Cargo workspace in this directory)
and the `qsim_serve` binary from the repository's workspace, both in
release mode under $CARGO_TARGET_DIR (default `.bench_build`), then runs
the benchmark with the given arguments. Build output goes to stderr; the
benchmark's last stdout line is its JSON result. The exit code is the
benchmark's: 0 when every correctness check passed, non-zero otherwise.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "qsim-cli", "--bin", "qsim_serve"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    for needed in ("Cargo.toml", "crates", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found in {ROOT}: run from a full checkout")
    args = sys.argv[1:]
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    build(target_dir)
    cmd = [
        os.path.join(target_dir, "release", "perfbench"),
        *args,
        "--serve-bin", os.path.join(target_dir, "release", "qsim_serve"),
        "--out-dir", os.path.join(target_dir, "perfbench"),
    ]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
