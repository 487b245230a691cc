#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `perfbench/` (a package of its own) in release mode with cargo,
offline, into $CARGO_TARGET_DIR (default `.bench_build`), then runs the
binary with the same arguments. The binary's last stdout line is the
JSON result; build output goes to stderr. Exits non-zero without a
result when the sources are missing or the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The binary must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def main() -> int:
    os.chdir(ROOT)
    for needed in ("crates", "vendor", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(needed):
            print(f"error: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    try:
        return subprocess.run([exe] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: the benchmark did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
