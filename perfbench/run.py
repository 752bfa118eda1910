#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources, then runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test

The first form runs one workload in one process (see main.cc) and
passes its output through: the last line of stdout is the JSON result.
--test builds and runs the tests of the benchmark's own checks.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/
perfbench), relative to the repository root; outputs (span files, the
temporary store) go to .bench_out/. Build output goes to stderr.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no program sources at %s" % (ROOT / "src"))
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", target,
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return build_dir / target


def main(argv):
    if argv == ["--test"]:
        return subprocess.run([str(build("perfbench_checks_test"))]).returncode
    binary = build("oodb_perfbench")
    sys.stdout.flush()
    return subprocess.run([str(binary)] + argv + ["--out", ".bench_out"],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
