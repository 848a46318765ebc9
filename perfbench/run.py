#!/usr/bin/env python3
"""Build the server binaries and the benchmark from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload cold_decide --seed 1 --seconds 10 --trace 0

Build output goes to standard error; the benchmark's last line of standard
output is one JSON object (see perfbench/README.md).  The target directory is
$CARGO_TARGET_DIR, or .bench_build when it is unset.

    python3 perfbench/run.py --write-benchmark-json

rewrites BENCHMARK.json from the benchmark's own metric and workload tables.
"""

import os
import subprocess
import sys


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--bin", "nonrec-serve", "--bin", "nonrec-route"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    if not os.path.isfile("Cargo.toml") or not os.path.isfile(os.path.join("perfbench", "Cargo.toml")):
        sys.exit("perfbench: run from the repository root (Cargo.toml and perfbench/ not found)")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target)
    binary = os.path.join(target, "release", "perfbench")
    if sys.argv[1:] == ["--write-benchmark-json"]:
        text = subprocess.run([binary, "--describe"], check=True, stdout=subprocess.PIPE, text=True).stdout
        with open("BENCHMARK.json", "w") as out:
            out.write(text)
        return 0
    args = sys.argv[1:] + [
        "--bin-dir", os.path.join(target, "release"),
        "--out-dir", os.path.join(target, "perfbench"),
    ]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
