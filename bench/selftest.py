"""Self-test of the benchmark at its smallest size.

    python3 bench/selftest.py

Run from the repository root.  It checks that each reference rejects a
deliberately wrong answer, that BENCHMARK.json and the harness agree on
every metric name and unit, that a one-pass run of each workload prints
every metric with its unit and records the machine and the commit, and
that the harness fails without a source tree.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path
from types import SimpleNamespace

import oracles as O
import run
from hostspeed import REFERENCE_S, HostSpeed
from tracing import PER_LAYER
from workloads import WORKLOADS

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_SPEC = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def fresh_finspace():
    sys.path.insert(0, str(ROOT / "src"))
    return run.import_finspace()


class References(unittest.TestCase):
    """Every oracle accepts the program's answer and rejects a wrong one."""

    @classmethod
    def setUpClass(cls):
        cls.fs = fresh_finspace()

    def test_headline_rejects_a_wrong_table_value(self):
        wl = WORKLOADS["headline"]
        rows = [{"name": k, "computed": v, "expected": v} for k, v in O.PAPER_TABLE.items()]

        def outcomes(rows, code=0):
            return wl.check(None, (code, json.dumps({"rows": rows}) + "\n"))

        self.assertEqual(set(outcomes(rows)), {"ok"})
        wrong = [dict(r) for r in rows]
        wrong[2]["computed"] = 3  # tc(S1_4) = 2 in the paper
        wrong[2]["expected"] = 3  # the program's own column is not the reference
        self.assertEqual(outcomes(wrong).count("wrong"), 1)
        self.assertIn("wrong", outcomes(rows[:-1]))
        self.assertIn("wrong", outcomes(rows + [{"name": "tc, half-size 9", "computed": 1}]))
        self.assertEqual(set(wl.check(None, (2, ""))), {"undecided"})

    def test_witness_sweep_rejects_a_failed_check_or_wrong_tc(self):
        wl = WORKLOADS["witness-sweep"]
        self.assertEqual(wl.check(5, (True, True, 1)), ["ok", "ok"])
        self.assertEqual(wl.check(5, (False, True, 1)), ["wrong", "ok"])
        self.assertEqual(wl.check(5, (True, True, 2)), ["ok", "wrong"])

    def test_step_degree(self):
        self.assertEqual(O.step_degree(tuple(range(8)), 4), 1)
        self.assertEqual(O.step_degree(tuple(reversed(range(8))), 4), -1)
        self.assertEqual(O.step_degree((0,) * 8, 2), 0)
        self.assertEqual(O.step_degree((0, 1, 2, 3, 0, 1, 2, 3), 2), 2)

    def test_circle_maps_reject_flipped_answers(self):
        wl = WORKLOADS["circle-maps"]
        queries = wl.generate(self.fs, 7)
        for q in queries[:: len(queries) // 12]:
            deg, same, status = wl.query(self.fs, q)
            self.assertEqual(wl.check(q, (deg, same, status)), ["ok"] * 3)
            flipped = "not_homotopic" if status == "homotopic" else "homotopic"
            self.assertEqual(
                wl.check(q, (deg + 1, not same, flipped)), ["wrong"] * 3
            )

    def test_poset_maps_reject_flipped_verdicts_and_loose_fences(self):
        wl = WORKLOADS["poset-maps"]
        queries = [  # the pairs whose homotopy class is small, for speed
            q for q in wl.generate(self.fs, 7)
            if O.MoveGraph(q.down_x, q.down_y).connected(q.f, q.g, 50) is not None
        ]
        seen = set()
        for q in queries:
            v = wl.query(self.fs, q)
            self.assertEqual(wl.check(q, v), ["ok"])
            flipped = SimpleNamespace(
                status="not_homotopic" if v.status == "homotopic" else "homotopic",
                fence=[], fence_space=None, target=None, core_old_ids=None,
            )
            self.assertEqual(wl.check(q, flipped), ["wrong"])
            full = [tuple(t) for t in v.fence] if v.core_old_ids is None else []
            if v.status == "homotopic" and len(full) >= 2:
                seen.add("fence")
                for fence in (full[1:], full[:-1], [q.g], full[::-1]):
                    loose = SimpleNamespace(**{**vars(v), "fence": fence})
                    self.assertEqual(wl.check(q, loose), ["wrong"], fence)
            seen.add(v.status)
        self.assertTrue({"fence", "homotopic", "not_homotopic"} <= seen, seen)


class HostSpeedScaling(unittest.TestCase):
    """Times are scaled by the host speed sampled during them."""

    def test_scales_by_the_samples_during_a_time_or_the_nearest(self):
        speed = HostSpeed()
        speed.times = [i / 10 for i in range(1, 21)]
        speed.durations = [REFERENCE_S * (1 if t < 1 else 2) for t in speed.times]
        self.assertEqual(speed.factor(1.2, 1.9), 0.5)  # 8 samples, all slow
        self.assertEqual(speed.factor(0.52, 0.53), 1.0)  # 0.3 .. 0.7
        self.assertEqual(speed.factor(0.93, 0.94), 1.0)  # 0.7 .. 1.1: 3 fast, 2 slow
        self.assertEqual(speed.factor(5, 6), 0.5)  # the last 5
        self.assertEqual(speed.scale(3.0, 1.2, 1.9), 1.5)
        # 20 samples, 9 fast and 11 slow: two cut at each end, then the mean
        self.assertAlmostEqual(speed.factor(0.05, 2.05), (9 * 0.5 + 7 * 1) / 16)

    def test_samples_on_a_timer_and_accounts_for_them(self):
        with HostSpeed() as speed:
            end = time.perf_counter() + 0.45
            while time.perf_counter() < end:
                pass
        self.assertGreaterEqual(len(speed.times), 3)
        self.assertAlmostEqual(speed.paused, sum(speed.durations))
        n = len(speed.times)
        time.sleep(0.25)
        self.assertEqual(len(speed.times), n, "the timer outlived the block")


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


class Harness(unittest.TestCase):
    """One-pass runs print every metric with its unit and the environment."""

    def test_spec_matches_the_harness(self):
        self.assertEqual(set(PER_LAYER_SPEC), set(PER_LAYER))
        for name, unit in PER_LAYER_SPEC.items():
            self.assertEqual(unit, run.layer_unit(name), name)
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]), sorted(WORKLOADS))

    def check_output(self, proc, expected):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
        for name, unit in expected.items():
            pattern = rf"^{re.escape(name)} \S+ {re.escape(unit)}\b"
            self.assertTrue(any(re.match(pattern, line) for line in lines), name)
        env = json.loads(next(l for l in lines if l.startswith("env "))[4:])
        self.assertGreaterEqual(env["nproc"], 1)
        for key in ("python", "platform", "source_sha256"):
            self.assertTrue(env[key], key)
        self.assertIn("commit", env)
        if (ROOT / ".git").exists():
            self.assertRegex(env["commit"], r"^[0-9a-f]{40}$")
        return lines

    def test_every_workload_prints_every_metric(self):
        for name in WORKLOADS:
            with self.subTest(workload=name, trace=0):
                lines = self.check_output(
                    run_bench("--workload", name, "--seed", "3", "--seconds", "0", "--trace", "0"),
                    END_TO_END,
                )
                self.assertTrue(any(l.startswith("failed_ratio ") for l in lines))
            with self.subTest(workload=name, trace=1):
                self.check_output(
                    run_bench("--workload", name, "--seed", "3", "--seconds", "0", "--trace", "1"),
                    PER_LAYER_SPEC,
                )

    def test_fails_without_sources(self):
        bare = ROOT / ".bench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench("--workload", "headline", "--seed", "1", "--seconds", "1", cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
