#!/usr/bin/env python3
"""Builds the FlexLog benchmark and runs it; see README.md.

Run from the repository root:

    python3 perfbench/run.py --workload append_path --seed 1 --seconds 15 --trace 0

The benchmark is built with cargo into $CARGO_TARGET_DIR (default
.bench_build). Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result. The exit code is the benchmark's, or the
build's when the build fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode or 1
    child = subprocess.Popen([os.path.join(target, "release", "flexlog-perfbench")] + sys.argv[1:])

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
