#!/usr/bin/env python3
"""Builds and runs the proximity-detection benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --steadiness K [--seconds S]
    python3 perfbench/run.py --selftest

Run from the repository root. The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}; lines before it
starting with '#' describe the machine and the checks.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at the repository root")
    with open(path) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the driver; returns its path."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("library source '%s' not found next to perfbench/" % needed)
    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_dir)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench_driver",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench_driver")


def run_driver(driver, args):
    """Runs the driver and returns its JSON document (its last stdout line)."""
    try:
        proc = subprocess.run([driver] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out after %d s" % DRIVER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("driver exited with code %d" % proc.returncode)
    return json.loads(lines[-1])


def source_digest():
    """sha256 over the library and benchmark sources (the checkout a run
    measures need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in sorted(paths):
            if "__pycache__" in p:
                continue
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except OSError:
        return "none"


def metric_errors(doc, spec, trace):
    """Names printed vs names declared, with units."""
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in doc["metrics"].items()}
    errors = []
    for name, unit in printed.items():
        if name not in declared:
            errors.append("metric %s is not in BENCHMARK.json" % name)
        elif declared[name] != unit:
            errors.append("metric %s unit %s, BENCHMARK.json says %s"
                          % (name, unit, declared[name]))
    for name in declared:
        if name not in printed:
            errors.append("metric %s in BENCHMARK.json was not printed" % name)
    return errors


def bench_args(workload, seed, seconds, trace, extra=()):
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace)]
    if trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        args += ["--spans", os.path.join(out_dir, "spans-%s.csv" % workload)]
    return args + list(extra)


def run_once(driver, spec, workload, seed, seconds, trace):
    doc = run_driver(driver, bench_args(workload, seed, seconds, trace))
    errors = metric_errors(doc, spec, trace)
    for e in errors:
        log("perfbench: " + e)
    checks = doc["checks"]
    machine = dict(doc["machine"], git_commit=git_commit(),
                   source_sha256=source_digest())
    print("# machine: " + json.dumps(machine))
    print("# checks: " + json.dumps(checks))
    if not trace:
        t = doc["tail"]
        print("# epoch_ms_tail: p%g of %d steady epochs (%d above it)"
              % (t["percentile"], t["samples"], t["above"]))
    else:
        print("# spans: .bench_out/spans-%s.csv" % workload)
    correct = checks["correct"] and not errors
    result = {"correct": correct, "attempted": doc["attempted"],
              "failed": doc["failed"], "metrics": doc["metrics"]}
    print(json.dumps(result), flush=True)
    return result


def steadiness(driver, spec, workload, runs, first_seed, seconds, trace):
    """k runs on k seeds; per metric the median, quartiles and spread
    against its bound, worst first."""
    values = {}
    for i in range(runs):
        seed = first_seed + i
        doc = run_driver(driver, bench_args(workload, seed, seconds, trace))
        if not doc["checks"]["correct"]:
            fail("seed %d failed its checks: %s" % (seed, doc["checks"]), 1)
        for k, v in doc["metrics"].items():
            values.setdefault(k, []).append(v["value"])
        log("  seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in doc["metrics"].items())))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    rows = []
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        share = spread / bound if bound else None
        rows.append((share if share is not None else -1, name, med, q1, q3,
                     spread, bound))
    rows.sort(reverse=True)
    print("%-26s %14s %14s %14s %8s %6s %7s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "/bound"))
    for share, name, med, q1, q3, spread, bound in rows:
        print("%-26s %14.6g %14.6g %14.6g %8.4f %6s %7s" % (
            name, med, q1, q3, spread, "-" if bound is None else bound,
            "-" if share < 0 else "%.2f" % share))
    bounded = [r for r in rows if r[0] >= 0]
    if bounded:
        worst = bounded[0]
        verdict = "BREAKS its bound" if worst[0] > 1 else "within its bound"
        print("first to break: %s (spread %.4f = %.2f of bound %s) -- %s"
              % (worst[1], worst[5], worst[0], worst[6], verdict))


def selftest(driver, spec):
    """Wrapper transparency (the driver's own checks), metric names and
    units against BENCHMARK.json, and tail support, on small instances."""
    ok = subprocess.run([driver, "--selftest"], cwd=ROOT).returncode == 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            doc = run_driver(driver, bench_args(
                w["name"], 7, 0, trace, ["--users", "400", "--epochs", "20"]))
            errors = metric_errors(doc, spec, trace)
            if not doc["checks"]["correct"]:
                errors.append("checks failed: %s" % doc["checks"])
            if not trace and doc["tail"]["above"] < 10:
                errors.append("tail p%g has only %d samples above it"
                              % (doc["tail"]["percentile"],
                                 doc["tail"]["above"]))
            tag = "%s trace=%d" % (w["name"], trace)
            print(("ok   " if not errors else "FAIL ") + tag +
                  ": metric names and units match BENCHMARK.json")
            for e in errors:
                print("     " + e)
            ok &= not errors
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, metavar="K",
                   help="run K seeds and report each metric's spread")
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if not a.selftest and a.workload not in names:
        fail("--workload must be one of %s" % ", ".join(names))
    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
    driver = build()
    if a.selftest:
        sys.exit(0 if selftest(driver, spec) else 1)
    if a.steadiness:
        steadiness(driver, spec, a.workload, a.steadiness, a.seed, seconds,
                   a.trace)
        return
    result = run_once(driver, spec, a.workload, a.seed, seconds, a.trace)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
