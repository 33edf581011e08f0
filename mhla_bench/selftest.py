#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

Usage (from the root of a source checkout):

    python3 mhla_bench/selftest.py [--seed N]

1. Runs every workload of BENCHMARK.json briefly, untraced and traced, on
   one seed, and asserts that each run reports exactly the metrics
   BENCHMARK.json names (end-to-end, resp. per-layer) with no failed op.
2. Corrupts one value in a copy of each golden file and asserts that the
   workload checked against it now reports failed ops, so the output checks
   are not vacuous.

Exits 0 when every assertion holds.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SHORT = ["--seconds", "1", "--setup-reps", "1"]


def run(workload, seed, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)] + SHORT + list(extra)
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        raise AssertionError("%s trace=%d exited %d:\n%s" %
                             (workload, trace, out.returncode, out.stderr[-3000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


def corrupt(golden_dir, name):
    """Change the last mantissa digit of one value in the file's first item."""
    path = os.path.join(golden_dir, name)
    with open(path) as f:
        lines = f.read().splitlines()
    row = next(i for i, line in enumerate(lines) if line and not line.startswith("#"))
    fields = lines[row].split(" ")
    col = next(i for i, field in enumerate(fields) if field.startswith("0x1.") and "p" in field)
    mantissa, exponent = fields[col].split("p")
    digit = "1" if mantissa[-1] != "1" else "2"
    fields[col] = mantissa[:-1] + digit + "p" + exponent
    lines[row] = " ".join(fields)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result = run(workload, seed, trace)
            names = set(result["metrics"])
            assert names == expected[trace], "%s trace=%d metrics differ: %s" % (
                workload, trace, sorted(names ^ expected[trace]))
            assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, \
                "%s trace=%d: %d of %d ops failed" % (
                    workload, trace, result["failed"], result["attempted"])
            print("ok   %-15s trace=%d  attempted=%d  error_rate=0" %
                  (workload, trace, result["attempted"]))

    build = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    corrupted = os.path.join(ROOT, build, "selftest_golden")  # an absolute build wins
    for workload, golden in (("pipeline_sweep", "pipeline_sweep.golden"),
                             ("exact_search", "exact_search.golden")):
        shutil.rmtree(corrupted, ignore_errors=True)
        shutil.copytree(os.path.join(HERE, "golden"), corrupted)
        corrupt(corrupted, golden)
        result = run(workload, seed, 0, ["--golden-dir", corrupted])
        assert not result["correct"] and result["failed"] > 0, \
            "%s passed against a corrupted %s" % (workload, golden)
        print("ok   %-15s corrupted %s -> %d of %d ops failed" %
              (workload, golden, result["failed"], result["attempted"]))
    shutil.rmtree(corrupted, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
