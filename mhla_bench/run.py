#!/usr/bin/env python3
"""Build and run the MHLA end-to-end benchmark.

Usage (from the root of a source checkout):

    python3 mhla_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds mhla_bench/ (which builds the library under ../src) in Release into
$CARGO_TARGET_DIR or .bench_build/, then runs one workload.  Build output
goes to a log file in the build directory, so the last line of standard
output is the benchmark's JSON result.  Exits non-zero, printing no result,
when the build or the run fails.  Extra flags (--golden-dir, --setup-reps)
pass through to the benchmark binary.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "mhla_bench")


def build(out_dir):
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out_dir, "--target", "mhla_bench", "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("mhla_bench: build failed (log: %s)\n" % log_path)
                return False
    return True


def main(argv):
    out_dir = build_dir()
    if not build(out_dir):
        return 2
    binary = os.path.join(out_dir, "mhla_bench")
    args = [binary] + argv
    if "--golden-dir" not in argv:
        args += ["--golden-dir", os.path.join(HERE, "golden")]
    args += ["--trace-dir", os.path.join(os.path.dirname(out_dir), "traces")]
    return subprocess.call(args, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
