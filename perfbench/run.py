#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <protocol_1m|stream_serve|fleet_64> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test        # build and run the benchmark's tests

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) as a Release CMake tree of perfbench/CMakeLists.txt, which
compiles the library from src/. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/; run from a "
             "full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    # Compiler temporaries stay inside the build tree.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step = ["cmake", "--build", build_dir, "--target", target, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, target)


def main(argv):
    if argv == ["--test"]:
        binary = build("perfbench_tests")
        sys.exit(subprocess.run([binary]).returncode)
    if "--workload" not in argv:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> "
             "--trace <0|1>")
    binary = build("perfbench")
    sys.stdout.flush()
    os.execv(binary, [binary] + argv)


if __name__ == "__main__":
    main(sys.argv[1:])
