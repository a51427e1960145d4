#!/usr/bin/env python3
"""Build the e2e benchmark from source and run it once.

Usage, from the repository root:

    python3 bench/e2e/run.py --workload NAME --seed N --seconds T --trace 0|1

The first call configures and builds bench/e2e (and the simulator sources it
compiles) into $CARGO_TARGET_DIR/e2e, or .bench_build/e2e when that variable
is unset; later calls only rebuild what changed. Build output goes to
standard error, so the last line of standard output is the benchmark's JSON
result. The benchmark's exit code is passed through.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2e"


def main() -> int:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"run.py: no simulator sources in {ROOT / 'src'}; run it from a "
              "full checkout of the repository", file=sys.stderr)
        return 2
    build = build_dir()
    steps = []
    if not (build / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build), "--target", "e2e",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print(f"run.py: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return 2
    return subprocess.run([str(build / "e2e"), *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
