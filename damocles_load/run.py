#!/usr/bin/env python3
"""Builds damocles_server and damocles_load from source, then runs one
benchmark run and passes its result line through.

Run from the repository root:

    python3 damocles_load/run.py --workload tracking_storm --seed 1 --seconds 10 --trace 0

Both binaries go to $CARGO_TARGET_DIR/release (default: .bench_build in the
current directory), where damocles_load finds the server next to itself.
Build output goes to standard error; the last line of standard output is
the result JSON. Every other argument is damocles_load's (see its --help).
"""

import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    env["CARGO_TARGET_DIR"] = str(target)
    builds = [
        ["--manifest-path", str(ROOT / "Cargo.toml"), "--bin", "damocles_server"],
        ["--manifest-path", str(BENCH / "Cargo.toml"), "--bin", "damocles_load"],
    ]
    for build in builds:
        cargo = ["cargo", "build", "--release", "--offline", "--quiet", *build]
        done = subprocess.run(cargo, env=env, stdout=sys.stderr, check=False)
        if done.returncode != 0:
            print(f"error: {' '.join(cargo)} failed", file=sys.stderr)
            return done.returncode or 1
    exe = target / "release" / "damocles_load"
    return subprocess.run([str(exe), *sys.argv[1:]], env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
