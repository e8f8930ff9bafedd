#!/usr/bin/env python3
"""Smoke test of the repository benchmark at toy size.

    python3 perfbench/smoke.py [--workload NAME]

For each workload it runs run.py with --toy and asserts that
  * an untraced run reports every end-to-end metric of BENCHMARK.json and a
    traced run every per-layer metric, each with its unit;
  * the deterministic metrics (exchange bytes, final loss, validation
    top-1, virtual makespan) repeat exactly for one seed;
  * a second seed also passes every output check.
Exits non-zero on the first failed assertion.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train-pls-compute", "train-gs-io", "exchange-virtual-1k")
DETERMINISTIC = {
    "train-pls-compute": ("exchange_bytes_per_epoch", "final_loss", "val_top1"),
    "train-gs-io": ("exchange_bytes_per_epoch", "final_loss", "val_top1"),
    "exchange-virtual-1k": ("exchange_bytes_per_epoch", "exchange_makespan_virtual_ms"),
}


def run(workload, seed, trace, emit_all=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--toy"]
    if emit_all:
        cmd += ["--emit", "all"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit("FAIL %s seed %d trace %d: exit %d\n%s" % (
            workload, seed, trace, p.returncode, p.stderr[-2000:]))
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("FAIL %s: result keys %s" % (workload, sorted(result)))
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit("FAIL %s seed %d: checks failed %s" % (
            workload, seed, {k: result[k] for k in ("attempted", "failed")}))
    return result["metrics"]


def expect_named(workload, metrics, wanted):
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got.get("unit") != m["unit"] or not isinstance(
                got.get("value"), (int, float)):
            sys.exit("FAIL %s: metric %s missing or malformed: %r" % (
                workload, m["name"], got))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [args.workload] if args.workload else WORKLOADS:
        expect_named(workload, run(workload, 1, 0), spec["end_to_end"])
        expect_named(workload, run(workload, 2, 1), spec["per_layer"])
        first = run(workload, 1, 1, emit_all=True)
        again = run(workload, 1, 1, emit_all=True)
        for name in DETERMINISTIC[workload]:
            a, b = first[name]["value"], again[name]["value"]
            if a != b:
                sys.exit("FAIL %s: %s differs between runs of one seed: %r vs %r"
                         % (workload, name, a, b))
        print("ok %s (%s repeat exactly)" % (workload, ", ".join(DETERMINISTIC[workload])))
    print("smoke: all workloads passed")


if __name__ == "__main__":
    main()
