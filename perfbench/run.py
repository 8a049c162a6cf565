#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim-full --seed 1 --seconds 20 --trace 0

It builds the release `hetmem-fleet` and `hetmem-serve` binaries and the
`perfbench` package into $CARGO_TARGET_DIR (default `.bench_build`), then
replaces itself with `perfbench`, passing every argument through. Build
output goes to stderr, so the last stdout line is the benchmark's result.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates"))):
        print("perfbench: no Cargo.toml and crates/ beside perfbench/; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "hetmem-bench",
         "--bin", "hetmem-fleet", "--bin", "hetmem-serve"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    binary = os.path.join(release, "perfbench")
    os.chdir(root)
    os.execv(binary, [binary, "--bin-dir", release,
                      "--out-dir", os.path.join(root, ".bench_out")] + sys.argv[1:])
    return 1


if __name__ == "__main__":
    sys.exit(main())
