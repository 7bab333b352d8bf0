#!/usr/bin/env python3
"""Parent-vs-change comparator for the end-to-end benchmark.

    python3 e2ebench/compare.py --parent DIR --change DIR

DIR is the root of a checkout of each commit; both must carry the same
benchmark code. For each workload it runs 10 pairs of runs, one seed
per pair (seeds 1..10), alternating which side runs first, and prints
one row per end-to-end metric:

  gain          the change wins at least 9 of 10 pairs (ties count for
                neither) and the medians differ by more than the
                parent's own spread (q3 - q1);
  regression    the change's median is worse than the parent's by more
                than the metric's bound in BENCHMARK.json;
  unresolved    the parent's spread exceeds the bound, unless every run
                of the change reads better than every run of the parent;
  within bound  otherwise.

The exit status is 1 when any row is a regression or a run fails its
output checks.
"""

import argparse
import hashlib
import math
import os
import sys

import benchlib

PAIRS = 10


def bench_digest(root):
    h = hashlib.sha256()
    files = [os.path.join(root, "BENCHMARK.json")]
    for d, dirs, names in os.walk(os.path.join(root, "e2ebench")):
        dirs[:] = [x for x in dirs if x != "__pycache__"]
        files += [os.path.join(d, n) for n in names]
    for p in sorted(files):
        h.update(os.path.relpath(p, root).encode() + b"\0")
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(parent, change, d):
    """Classifies one metric from paired runs (parent[i] and change[i]
    ran with the same seed). Returns (verdict, wins)."""
    p_q1, p_med, p_q3 = benchlib.quartiles(parent)
    _, c_med, _ = benchlib.quartiles(change)
    wins = sum(better(c, p, d["better"]) for p, c in zip(parent, change))
    all_better = all(better(c, p, d["better"]) for c in change for p in parent)
    if benchlib.spread(parent) > d["bound"] and not all_better:
        return "unresolved", wins
    if (wins >= math.ceil(0.9 * len(parent)) and
            abs(c_med - p_med) > p_q3 - p_q1 and
            better(c_med, p_med, d["better"])):
        return "gain", wins
    if benchlib.worse_by(p_med, c_med, d["better"]) > d["bound"]:
        return "regression", wins
    return "within bound", wins


def main():
    spec = benchlib.load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    if bench_digest(parent) != bench_digest(change):
        sys.exit("compare.py: the two checkouts carry different benchmark "
                 "code; measure both with the same e2ebench/ and "
                 "BENCHMARK.json")

    failed = False
    for w in args.workloads.split(","):
        runs = {parent: [], change: []}
        for i in range(PAIRS):
            seed = 1 + i
            order = (parent, change) if i % 2 == 0 else (change, parent)
            for root in order:
                r = benchlib.run_once(w, seed, spec["run_seconds"], 0,
                                      root=root)
                if not r["correct"]:
                    print("%s seed %d in %s: %d of %d ops failed" %
                          (w, seed, root, r["failed"], r["attempted"]))
                    failed = True
                runs[root].append({k: v["value"]
                                   for k, v in r["metrics"].items()})
        print("\n%s (%d pairs, seeds 1..%d)" % (w, PAIRS, PAIRS))
        print("  %-18s %28s %28s %6s  %s" %
              ("metric", "parent median [q1, q3]", "change median [q1, q3]",
               "wins", "verdict"))
        for d in spec["end_to_end"]:
            pv = [r[d["name"]] for r in runs[parent]]
            cv = [r[d["name"]] for r in runs[change]]
            v, wins = verdict(pv, cv, d)
            failed |= v == "regression"
            pq, cq = benchlib.quartiles(pv), benchlib.quartiles(cv)
            print("  %-18s %10.4f [%7.4g, %7.4g] %10.4f [%7.4g, %7.4g] "
                  "%3d/%-2d  %s (%s, bound %.0f%%)" %
                  (d["name"], pq[1], pq[0], pq[2], cq[1], cq[0], cq[2], wins,
                   PAIRS, v, d["unit"], 100 * d["bound"]))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
