#!/usr/bin/env python3
"""Builds the statement-path benchmark from this checkout and runs it.

    python3 stmtbench/run.py --workload point_hot --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR when
that is set (relative paths are taken from the checkout root), otherwise to
.bench_build; build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. Exits non-zero, printing no
result, when the library sources are missing or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "server.cc")):
        print("stmtbench: library sources not found under src/",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("stmtbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    out = build_dir()
    if not build(out):
        return 1
    sys.stdout.flush()
    return subprocess.run([os.path.join(out, "stmtbench")] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
