"""Shared pieces of the end-to-end benchmark: metric definitions from
BENCHMARK.json, percentiles, and running one benchmark invocation."""

import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def nearest_rank(values, pct):
    """The pct-th percentile by nearest rank, and how many samples lie
    strictly beyond it."""
    s = sorted(values)
    k = max(1, math.ceil(pct / 100.0 * len(s)))
    return s[k - 1], len(s) - k


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def worse_by(parent, change, better):
    """How much worse `change` is than `parent`, as a share of `parent`
    (negative when it is better)."""
    d = (change - parent) / abs(parent)
    return d if better == "lower" else -d


def run_once(workload, seed, seconds, trace, root=ROOT):
    """Runs the benchmark once in `root` and returns its parsed result
    line; raises RuntimeError when it fails or prints no result."""
    cmd = [sys.executable, os.path.join(root, "e2ebench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError("%s failed (exit %d): %s" %
                           (" ".join(cmd), p.returncode, p.stderr[-2000:]))
    return json.loads(lines[-1])
