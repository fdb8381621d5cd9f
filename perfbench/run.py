#!/usr/bin/env python3
"""Builds emumap and the benchmark runner from source, then runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: paper-torus-low, paper-switched-high, serve-churn, oracle-smoke.
With --trace 0 the run drives the shipped `emumap` binary end to end; with
--trace 1 it measures each layer in-process. Build output goes to
$CARGO_TARGET_DIR (default .bench_build); the last line of standard output
is the JSON result. Exits non-zero, printing no result, if the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "emumap-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    release = os.path.join(target, "release")
    runner = [
        os.path.join(release, "emumap-perfbench"),
        "--emumap", os.path.join(release, "emumap"),
        "--state", os.path.join(target, "perfbench"),
    ] + sys.argv[1:]
    sys.exit(subprocess.run(runner, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
