#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the program it measures).

    python3 e2ebench/test_bench.py

Builds the benchmark if needed, then runs short workloads (1-2 s each).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402

ROOT = benchlib.ROOT
BENCH = os.path.join(run.BUILD_DIR, "e2e_bench")
EXPECTED = run.EXPECTED_DIR
TEST_WORK = os.path.join(run.WORK_DIR, "tests")


def bench(*args):
    p = subprocess.run([BENCH, *args], cwd=ROOT, capture_output=True,
                       text=True, timeout=120, check=True)
    return p.stdout


def workload(name, trace, expected=EXPECTED, seconds=2):
    cmd = {"oneshot_cli": "oneshot", "nbody_jit": "nbody",
           "classroom_service": "classroom"}[name]
    out = bench(cmd, "--bin", os.path.join(run.BUILD_DIR, "parallol"),
                "--work", os.path.join(TEST_WORK, name), "--expected",
                expected, "--seed", "5", "--seconds", str(seconds),
                "--trace", str(trace))
    return json.loads(out.strip().splitlines()[-1])


def plan(name, seed, n):
    return bench("plan", name, str(seed), str(n)).splitlines()


def corrupted_copy(files):
    """A copy of the expected outputs with one character changed in each
    of `files`."""
    os.makedirs(TEST_WORK, exist_ok=True)
    d = tempfile.mkdtemp(dir=TEST_WORK)
    dst = os.path.join(d, "expected")
    shutil.copytree(EXPECTED, dst)
    for f in files:
        path = os.path.join(dst, f)
        with open(path) as fh:
            text = fh.read()
        i = text.index("] ") + 2
        with open(path, "w") as fh:
            fh.write(text[:i] + ("X" if text[i] != "X" else "Y") + text[i + 1:])
    return dst


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.chdir(ROOT)
        run.build()

    def test_corrupted_expected_output_fails_every_op(self):
        r = workload("nbody_jit", 0, corrupted_copy(["nbody_32x10.np2.out"]))
        self.assertGreater(r["attempted"], 0)
        self.assertEqual(r["failed"], r["attempted"])  # fail_ratio 1

    def test_corrupted_file_fails_only_its_program(self):
        r = workload("oneshot_cli", 0, corrupted_copy(["ring.np2.out"]))
        rings = sum(1 for line in plan("oneshot_cli", 5, r["attempted"])
                    if line.split()[1] == "ring")
        self.assertGreater(rings, 0)
        self.assertEqual(r["failed"], rings)

    def test_uncorrupted_run_is_correct(self):
        r = workload("classroom_service", 0, seconds=1)
        self.assertEqual(r["failed"], 0)
        self.assertGreater(r["attempted"], 100)

    def test_same_seed_same_sequence_other_seed_same_mix(self):
        for name, n in (("oneshot_cli", 700), ("classroom_service", 2000)):
            a, b, c = plan(name, 7, n), plan(name, 7, n), plan(name, 8, n)
            self.assertEqual(a, b)
            self.assertNotEqual(a, c)

            def mix(ops):
                counts = {}
                for op in ops:
                    kind, prog = op.split()[:2]
                    key = kind if kind != "repeat" else kind + " " + prog
                    counts[key] = counts.get(key, 0) + 1
                return counts
            self.assertEqual(mix(a), mix(c))
        shares = mix(plan("classroom_service", 3, 2000))
        self.assertEqual(shares["variant"], 300)
        self.assertEqual(shares["compile_error"], 200)
        self.assertEqual(shares["runaway"], 100)

    def test_traced_spans_and_unattributed_sum_to_op_wall_time(self):
        for name in ("oneshot_cli", "nbody_jit", "classroom_service"):
            r = workload(name, 1, seconds=3)
            self.assertEqual(r["failed"], 0, name)
            self.assertGreater(len(r["traced"]), 0, name)
            self.assertGreater(len(r["lat_ms"]), 0, name)  # overhead baseline
            for t in r["traced"]:
                spans = t["spans"]
                self.assertIn("trace.unattributed_ms", spans)
                self.assertAlmostEqual(sum(spans.values()), t["op_ms"],
                                       delta=1e-3, msg=name)
                for k, v in spans.items():
                    self.assertGreaterEqual(v, -0.05, "%s %s" % (name, k))

    def test_traced_run_reports_every_per_layer_metric(self):
        p = subprocess.run([sys.executable, "e2ebench/run.py", "--workload",
                            "oneshot_cli", "--seed", "2", "--seconds", "3",
                            "--trace", "1"], cwd=ROOT, capture_output=True,
                           text=True, timeout=300, check=True)
        r = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertTrue(r["correct"])
        spec = benchlib.load_spec()
        self.assertEqual(sorted(r["metrics"]),
                         sorted(d["name"] for d in spec["per_layer"]))
        for d in spec["per_layer"]:
            if d["unit"] == "ms" and not d["name"].endswith("overhead_ms"):
                self.assertGreater(r["metrics"][d["name"]]["value"], 0,
                                   d["name"])

    def test_no_result_without_sources(self):
        d = tempfile.mkdtemp(dir=TEST_WORK)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
        shutil.copytree(os.path.join(ROOT, "e2ebench"),
                        os.path.join(d, "e2ebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = subprocess.run([sys.executable, "e2ebench/run.py", "--workload",
                            "nbody_jit", "--seed", "1", "--seconds", "1",
                            "--trace", "0"], cwd=d, capture_output=True,
                           text=True, timeout=60)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"metrics"', p.stdout)


class StatisticsTest(unittest.TestCase):
    def test_nearest_rank_percentile(self):
        vals = list(range(1, 101))
        self.assertEqual(benchlib.nearest_rank(vals, 50), (50, 50))
        self.assertEqual(benchlib.nearest_rank(vals, 90), (90, 10))

    def test_slow_stretches_do_not_move_the_timings(self):
        def closed_loop(slow_until_s):
            """10 s of 10 ms ops, one at a time; ops that start before
            slow_until_s take three times as long."""
            lat, done, t = [], [], 0.0
            while True:
                ms = 30.0 if t < slow_until_s else 10.0
                if t + ms / 1e3 > 10.0:
                    break
                t += ms / 1e3
                lat.append(ms)
                done.append(t)
            return run.end_to_end({"lat_ms": lat, "done_s": done,
                                   "timed_s": 10.0, "peak_rss_mb": 1.0,
                                   "setup_s": [1.0]})
        calm = closed_loop(0.0)
        self.assertEqual(calm["latency_ms.p90"], 10.0)
        self.assertAlmostEqual(calm["throughput_ops_s"], 100.0, delta=1.0)
        for slow_s in (2.0, 7.0):  # a burst, and most of the run
            bursty = closed_loop(slow_s)
            self.assertEqual(bursty["latency_ms.p50"], calm["latency_ms.p50"])
            self.assertEqual(bursty["latency_ms.p90"], calm["latency_ms.p90"])
            self.assertAlmostEqual(bursty["throughput_ops_s"],
                                   calm["throughput_ops_s"], delta=1.0)

    def test_fastest_windows_keep_enough_ops_for_p90(self):
        done = [(i + 0.5) / 20 for i in range(200)]  # 10 s, 20 ops/s
        pool, pool_s = run.fastest_windows([1.0] * 200, done, 10.0)
        self.assertGreaterEqual(len(pool), run.MIN_POOL_OPS)
        self.assertEqual(len(pool) / pool_s, 20.0)
        done = [(i + 0.5) / 1000 for i in range(10000)]  # 10 s, 1000 ops/s
        pool, pool_s = run.fastest_windows([1.0] * 10000, done, 10.0)
        self.assertEqual(pool_s, 2.0)  # FASTEST_SHARE of 10 windows

    def test_comparator_verdicts(self):
        d = {"name": "latency_ms.p50", "better": "lower", "bound": 0.1}
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        self.assertEqual(compare.verdict(parent, [v * 0.8 for v in parent],
                                         d)[0], "gain")
        self.assertEqual(compare.verdict(parent, [v * 1.2 for v in parent],
                                         d)[0], "regression")
        self.assertEqual(compare.verdict(parent, parent, d)[0],
                         "within bound")
        noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        self.assertEqual(compare.verdict(noisy, [v * 0.95 for v in noisy],
                                         d)[0], "unresolved")
        self.assertEqual(compare.verdict(noisy, [50] * 10, d)[0], "gain")


if __name__ == "__main__":
    unittest.main()
