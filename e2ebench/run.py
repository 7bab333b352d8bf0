#!/usr/bin/env python3
"""End-to-end benchmark of PARALLOL.

    python3 e2ebench/run.py --workload oneshot_cli --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds lolrun, lolserve and the workload
runner (e2e_bench) optimized into .bench_build/, runs one workload for
--seconds, checks every op's output against e2ebench/expected/, and prints
the metrics BENCHMARK.json names: with --trace 0 the end-to-end ones of
--workload; with --trace 1 the per-layer ones, named <workload>.<layer>,
of every workload, each traced for a third of --seconds, so that each
layer is measured on the workload whose ops pass through it. The last
line of stdout is the result as JSON; the lines before it give
provenance and each metric by name with its unit. See e2ebench/README.md
for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

ROOT = benchlib.ROOT
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(ROOT, ".bench_work")
EXPECTED_DIR = os.path.join(ROOT, "e2ebench", "expected")
SUBCOMMAND = {"oneshot_cli": "oneshot", "nbody_jit": "nbody",
          "classroom_service": "classroom"}
OPTIMIZED_TYPES = ("Release", "RelWithDebInfo")
# The timed phase is cut into windows of WINDOW_S seconds. Other tenants
# of a shared host only ever slow the program down, in bursts that can
# cover most of a run; so each end-to-end timing is taken over the ops of
# the run's fastest windows (most ops completed) pooled: the fastest
# FASTEST_SHARE of them, and more while the pool holds under MIN_POOL_OPS
# ops, so that its p90 keeps at least 10 samples beyond it.
WINDOW_S = 1.0
FASTEST_SHARE = 0.2
MIN_POOL_OPS = 110


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the optimized tree; exits non-zero
    when the sources are missing or do not build."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no source tree at %s: the benchmark builds the program from "
             "source" % ROOT)
    os.makedirs(WORK_DIR, exist_ok=True)
    log_path = os.path.join(WORK_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "e2ebench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j",
                  str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def cmake_cache(key):
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def source_digest():
    """SHA-256 over the files that make up the program under test; the
    checkout the benchmark runs in need not be a git repository."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools"):
        for d, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(d, f) for f in files]
    for p in sorted(paths):
        h.update(os.path.relpath(p, ROOT).encode() + b"\0")
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        return p.stdout.strip() if p.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def provenance():
    """Build facts; refuses to go on from an unoptimized tree."""
    info = json.loads(subprocess.run(
        [os.path.join(BUILD_DIR, "e2e_bench"), "build-info"],
        capture_output=True, text=True, check=True).stdout)
    build_type = cmake_cache("CMAKE_BUILD_TYPE")
    if build_type not in OPTIMIZED_TYPES or not info["optimized"]:
        fail("refusing to report from an unoptimized build (CMAKE_BUILD_TYPE="
             "'%s'); remove %s and run again" % (build_type, BUILD_DIR))
    return {"git_sha": git_sha(), "source_sha256": source_digest(),
            "cmake_build_type": build_type, "compiler": info["compiler"],
            "nproc": os.cpu_count(), "machine": platform.machine()}


def per_layer_value(raw, name):
    """A layer metric of one workload: a one-off value from its set-up,
    else the mean over its traced ops (an op without the span counts 0).
    Means keep the ledger additive: the span means plus the unattributed
    mean equal the mean op time, trace.op_ms."""
    if name in raw["layer"]:
        return raw["layer"][name]
    traced = raw["traced"]
    op_ms = statistics.fmean(t["op_ms"] for t in traced)
    if name == "trace.op_ms":
        return op_ms
    if name == "trace.overhead_ms":
        return op_ms - statistics.fmean(raw["lat_ms"])
    if not any(name in t["spans"] or name in t["extra"] for t in traced):
        raise KeyError("no traced op of %s reports %s" % (raw["workload"], name))
    return statistics.fmean(t["spans"].get(name, t["extra"].get(name, 0.0))
                            for t in traced)


def run_workload(workload, args, seconds):
    """One e2e_bench workload run; returns its raw samples."""
    cmd = [os.path.join(BUILD_DIR, "e2e_bench"), SUBCOMMAND[workload],
           "--bin", os.path.join(BUILD_DIR, "parallol"),
           # Relative to the repository root (the working directory), so
           # the daemon's socket path stays within the 108-byte limit of a
           # Unix socket address wherever the checkout lives.
           "--work", os.path.relpath(os.path.join(WORK_DIR, workload), ROOT),
           "--expected", EXPECTED_DIR, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace)]
    p = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=seconds + 150)
    if p.returncode != 0 or not p.stdout.strip():
        sys.stderr.write(p.stderr[-4000:])
        fail("e2e_bench failed on %s (exit %d)" % (workload, p.returncode))
    raw = json.loads(p.stdout.strip().splitlines()[-1])
    if raw["attempted"] < 1:
        fail("no op completed in %s" % workload)
    return raw


def fastest_windows(lat_ms, done_s, timed_s):
    """The latencies of the ops that completed in the timed phase's
    fastest windows, pooled, and the seconds those windows cover."""
    k = max(1, int(timed_s / WINDOW_S))
    window_s = timed_s / k
    groups = [[] for _ in range(k)]
    for ms, t in zip(lat_ms, done_s):
        groups[min(k - 1, int(t / window_s))].append(ms)
    groups.sort(key=len, reverse=True)
    pool, used = [], 0
    for g in groups:
        if used >= max(1, round(FASTEST_SHARE * k)) and len(pool) >= MIN_POOL_OPS:
            break
        pool += g
        used += 1
    return pool, used * window_s


def end_to_end(raw):
    """p50, p90 (nearest rank) and ops per second over the fastest
    windows of the run, so that contention from other tenants of the
    host, which can only slow ops down, moves them as little as it can."""
    pool, pool_s = fastest_windows(raw["lat_ms"], raw["done_s"], raw["timed_s"])
    p90, beyond = benchlib.nearest_rank(pool, 90)
    if beyond < 10:
        print("warning: only %d samples beyond p90" % beyond, file=sys.stderr)
    return {"latency_ms.p50": benchlib.nearest_rank(pool, 50)[0],
            "latency_ms.p90": p90,
            "throughput_ops_s": len(pool) / pool_s,
            "peak_rss_mb": raw["peak_rss_mb"],
            "setup_s": statistics.median(raw["setup_s"])}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SUBCOMMAND))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    os.chdir(ROOT)
    spec = benchlib.load_spec(ROOT)
    build()
    prov = provenance()
    prov.update(load_before=os.getloadavg(), seed=args.seed,
                trace=args.trace, seconds=args.seconds)
    if args.trace:
        workloads = [w["name"] for w in spec["workloads"]]
        seconds = args.seconds / len(workloads)
    else:
        workloads, seconds = [args.workload], args.seconds
    raws = {}
    for w in workloads:
        raws[w] = run_workload(w, args, seconds)
        prov[w] = {"ops_attempted": raws[w]["attempted"],
                   "ops_untraced": len(raws[w]["lat_ms"]),
                   "ops_traced": len(raws[w]["traced"]),
                   "op_mix": raws[w]["info"]}
    prov["load_after"] = os.getloadavg()
    print("# provenance " + json.dumps(prov, sort_keys=True))
    for w in workloads:
        for why in raws[w]["failures"]:
            print("# failed op in %s: %s" % (w, why))

    if args.trace:
        defs = spec["per_layer"]
        values = {}
        for d in defs:
            w, layer = d["name"].split(".", 1)
            values[d["name"]] = per_layer_value(raws[w], layer)
    else:
        defs = spec["end_to_end"]
        values = end_to_end(raws[args.workload])
    metrics = {}
    for d in defs:
        metrics[d["name"]] = {"value": values[d["name"]], "unit": d["unit"]}
        print("# %-36s %16.6f %s" % (d["name"], values[d["name"]], d["unit"]))
    attempted = sum(r["attempted"] for r in raws.values())
    failed = sum(r["failed"] for r in raws.values())
    print("# %-36s %16.6f %s" % ("fail_ratio", failed / attempted, "ratio"))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
