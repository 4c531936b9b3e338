#!/usr/bin/env python3
"""Builds the THEMIS benchmark and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is a Cargo package of its
own (perfbench/Cargo.toml, path dependencies on ../crates); this script
builds it in release mode into $CARGO_TARGET_DIR (default .bench_build),
then runs the binary with the same arguments. Build output goes to
stderr; the last line on stdout is the benchmark's JSON result. When the
build or the run fails, the script exits non-zero without a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "themis-perfbench")
    scratch = os.path.join(target, "perfbench-scratch")
    sys.stdout.flush()
    return subprocess.run([exe, *sys.argv[1:], "--scratch", scratch], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
