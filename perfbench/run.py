#!/usr/bin/env python3
"""Repository benchmark: measured PLS epochs on the real dshuf stack.

    python3 perfbench/run.py --workload train-pls-compute --seed 7 \
        --seconds 30 --trace 0

Builds perfbench/ (and the library sources it compiles) into
.bench_build/perfbench, runs one workload for --seconds of measured time,
and prints a report, a run manifest, and as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json from an
untraced run; --trace 1 adds a traced phase, checks its Chrome trace with
dshuf_trace --check, and reports the per-layer metrics. A per-layer
metric of a layer the workload never calls reads 0. The process exits
non-zero when any output check fails, and without a result when the
sources or the build are missing.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
STORES = os.path.join(ROOT, ".bench_build", "stores")
WORKLOADS = ("train-pls-compute", "train-gs-io", "exchange-virtual-1k")
RUN_TIMEOUT_S = 170
# Two rank threads plus their two BatchLoader producers: the train
# workloads already use four threads, so the task scheduler must stay off.
THREAD_BUDGET = 4


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def dshuf_env():
    env = {k: v for k, v in sorted(os.environ.items()) if k.startswith("DSHUF_")}
    workers = env.get("DSHUF_WORKERS")
    if workers is not None:
        try:
            extra = int(workers)
        except ValueError:
            extra = 0
        if extra > 1:
            fail("DSHUF_WORKERS=%s would start %d scheduler workers on top of "
                 "the benchmark's %d threads; unset it"
                 % (workers, extra, THREAD_BUDGET))
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "shuffle", "mpi_exchange.hpp")):
        fail("no dshuf sources under %s/src; run from a source checkout" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(THREAD_BUDGET, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def source_sha256():
    """Digest of the sources the benchmark builds (the checkout may not be
    a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for top in ("src", "tools/dshuf_trace", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def filesystem_of(path):
    """fstype of the longest /proc/mounts mount point containing path."""
    best, fstype = "", None
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) >= 3 and (path == parts[1] or path.startswith(
                        parts[1].rstrip("/") + "/")) and len(parts[1]) > len(best):
                    best, fstype = parts[1], parts[2]
    except OSError:
        pass
    return fstype


def sweep_stale_stores():
    """Remove store directories left by runs that were killed."""
    if not os.path.isdir(STORES):
        return
    for name in os.listdir(STORES):
        pid = name[len("run-"):] if name.startswith("run-") else ""
        alive = False
        if pid.isdigit():
            try:
                os.kill(int(pid), 0)
                alive = True
            except OSError:
                alive = False
        if not alive:
            shutil.rmtree(os.path.join(STORES, name), ignore_errors=True)


def run_binary(cmd, store_root):
    """Run perfbench_run; always stops it and removes its stores."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        shutil.rmtree(store_root, ignore_errors=True)
        sys.exit(128 + signum)

    old = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    finally:
        for s, h in old.items():
            signal.signal(s, h)
        shutil.rmtree(store_root, ignore_errors=True)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true",
                    help="toy-sized inputs (the smoke test)")
    ap.add_argument("--emit", choices=("auto", "all"), default="auto",
                    help="all: report every measured figure (the smoke test)")
    args = ap.parse_args()

    env = dshuf_env()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    build()

    sweep_stale_stores()
    store_root = os.path.join(STORES, "run-%d" % os.getpid())
    os.makedirs(store_root, exist_ok=True)
    trace_out = os.path.join(BUILD, "traces", "%s-seed%d.json" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench_run"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--store-root", store_root,
           "--trace-out", trace_out]
    if args.toy:
        cmd.append("--toy")
    store_fs = filesystem_of(store_root)
    rc, out = run_binary(cmd, store_root)

    raw = None
    for line in out.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            raw = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            print(line)
    if rc != 0 or raw is None:
        fail("perfbench_run exited with %d" % rc, 1)

    attempted, failed = raw["attempted"], raw["failed"]
    if args.trace:
        check = subprocess.run([os.path.join(BUILD, "dshuf_trace"),
                                "--trace=" + trace_out, "--check"],
                               capture_output=True, text=True)
        print(check.stdout.strip())
        attempted += 1
        if check.returncode != 0:
            failed += 1
            print("perfbench: trace check failed: " + check.stderr.strip(),
                  file=sys.stderr)

    if args.emit == "all":
        measured = raw["metrics"]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        metrics = {k: {"value": v, "unit": units.get(k, "")} for k, v in measured.items()}
    else:
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        metrics = {}
        for m in wanted:
            value = raw["metrics"].get(m["name"])
            if value is None:
                if not args.trace:
                    fail("workload %s did not measure %s" % (args.workload, m["name"]), 1)
                value = 0.0  # a layer this workload never calls
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    bad = sorted(k for k, v in metrics.items() if not math.isfinite(v["value"]))
    if bad:
        fail("non-finite metric values: " + ", ".join(bad), 1)

    manifest = {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "workload": args.workload,
        "config": raw["config"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "store_filesystem": store_fs,
        "dshuf_env": env,
    }
    print("manifest " + json.dumps(manifest, sort_keys=True))
    correct = raw["correct"] and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
