#!/usr/bin/env python3
"""Builds the `ivy` CLI and the benchmark binary, then runs the benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload prove-cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload serve-warm --seed 1 --selftest

Build output goes to $CARGO_TARGET_DIR, or `.bench_build` when unset.
The benchmark's last line of standard output is the result object; build
logs go to standard error. Exits non-zero, printing no result, when the
repository's crates are missing or anything fails to build.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        (os.path.join(ROOT, "crates", "serve", "Cargo.toml"), ["--bin", "ivy"]),
        (os.path.join(HERE, "Cargo.toml"), []),
    ]
    for manifest, extra in builds:
        if not os.path.isfile(manifest):
            sys.stderr.write("perfbench: missing %s; run from a full checkout\n" % manifest)
            return 2
        cmd = ["cargo", "build", "--release", "--quiet", "--manifest-path", manifest] + extra
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return 2
    bench = os.path.join(target, "release", "ivy-perfbench")
    ivy = os.path.join(target, "release", "ivy")
    args = [bench, "--root", ROOT, "--ivy", ivy] + sys.argv[1:]
    return subprocess.run(args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
