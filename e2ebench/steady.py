#!/usr/bin/env python3
"""Steadiness check: runs each workload N times, each with another seed,
and prints per end-to-end metric the spread of its values (distance
between the first and third quartile, as a share of the median) against
the metric's bound in BENCHMARK.json, and the workload's fail_ratio.

    python3 e2ebench/steady.py --runs 10 [--workloads oneshot_cli,nbody_jit]
    python3 e2ebench/steady.py --runs 1     # every workload once

Each run lasts run_seconds of BENCHMARK.json. A spread below a third of
the bound is "steady"; a spread above the bound fails the check and the
exit status is 1. So does any run that reports a wrong output.
--out FILE saves every run's metrics as JSON.
"""

import argparse
import json
import sys

import benchlib


def check(values_by_metric, spec):
    """Rows of (name, unit, q1, median, q3, spread, bound, verdict) and
    whether every spread that must hold does."""
    rows, ok = [], True
    for d in spec["end_to_end"]:
        vals = values_by_metric[d["name"]]
        q1, med, q3 = benchlib.quartiles(vals)
        sp = benchlib.spread(vals)
        if sp < d["bound"] / 3:
            verdict = "steady"
        elif sp <= d["bound"]:
            verdict = "within bound"
        else:
            verdict = "TOO NOISY"
            ok = False
        rows.append((d["name"], d["unit"], q1, med, q3, sp, d["bound"], verdict))
    return rows, ok


def main():
    spec = benchlib.load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--out")
    args = ap.parse_args()

    all_ok, saved = True, {}
    for w in args.workloads.split(","):
        runs, attempted, failed = [], 0, 0
        for i in range(args.runs):
            seed = 1 + i
            r = benchlib.run_once(w, seed, spec["run_seconds"], 0)
            attempted += r["attempted"]
            failed += r["failed"]
            if not r["correct"]:
                print("%s seed %d: %d of %d ops failed" %
                      (w, seed, r["failed"], r["attempted"]))
                all_ok = False
            runs.append({k: v["value"] for k, v in r["metrics"].items()})
            print("%s seed %d: %s" % (w, seed, json.dumps(runs[-1])),
                  file=sys.stderr)
        saved[w] = runs
        values = {d["name"]: [r[d["name"]] for r in runs]
                  for d in spec["end_to_end"]}
        rows, ok = check(values, spec)
        all_ok &= ok
        print("\n%s (%d runs, seeds 1..%d, %d s each)" %
              (w, args.runs, args.runs, spec["run_seconds"]))
        print("  %-18s %12s %12s %12s %8s %7s  %s" %
              ("metric", "q1", "median", "q3", "spread", "bound", "verdict"))
        for name, unit, q1, med, q3, sp, bound, verdict in rows:
            print("  %-18s %12.4f %12.4f %12.4f %7.2f%% %6.0f%%  %s (%s)" %
                  (name, q1, med, q3, 100 * sp, 100 * bound, verdict, unit))
        print("  %-18s %12.6f of %d ops (ratio)" %
              ("fail_ratio", failed / attempted, attempted))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(saved, f, indent=1)
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
