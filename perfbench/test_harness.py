"""Smoke test of the benchmark harness at tiny sizes (about 10 seconds).

    python3 perfbench/test_harness.py

Standard library only; pytest collects it too when given the path.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import env  # noqa: E402

env.use_checkout_library()

import inputs  # noqa: E402
import layers  # noqa: E402
import make_reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, span_cost_s  # noqa: E402

REF = inputs.load_reference()


class TestInputs(unittest.TestCase):
    def test_stream_depends_on_the_seed_only(self):
        a, b = inputs.query_stream(REF, 7), inputs.query_stream(REF, 7)
        self.assertEqual(a, b)
        self.assertNotEqual(a, inputs.query_stream(REF, 8))

    def test_stream_mix_is_fixed(self):
        for seed in (1, 2, 3):
            kinds = [q.kind for q in inputs.query_stream(REF, seed)]
            self.assertEqual(kinds[:2], ["pinned", "pinned"])
            self.assertEqual(kinds.count("large"), inputs.LARGE_PER_STREAM)
            self.assertEqual(kinds.count("sweep"), len(REF["queries"]["sweep"]))
            self.assertEqual(len(kinds), len(inputs.query_stream(REF, 1)))

    def test_every_query_names_its_reference(self):
        qref = REF["queries"]
        for q in inputs.query_stream(REF, 5):
            pool = {"sweep": "sweep", "large": "large"}.get(q.kind, "small")
            self.assertIn(q.key, qref[pool])
            self.assertEqual(inputs._canonical_key(q.p, q.q), q.key)


class TestChecks(unittest.TestCase):
    def test_reference_census_matches_expected_table(self):
        expected = make_reference.expected_table()
        self.assertEqual(make_reference.census_mismatches(REF["census"]["stdout"], expected), [])
        self.assertEqual(sorted(expected), list(range(3, 15)))

    def test_witness_check_catches_a_wrong_value(self):
        from dataclasses import replace

        from twobridge import c2, canonicalize

        res = c2(canonicalize(13, 5))
        self.assertIsNone(workloads.witness_problem(res, "13/8", 6, 7))
        self.assertIsNotNone(workloads.witness_problem(res, "13/4", 6, 7))
        wrong = replace(res, value=6, base_crossing=6)
        self.assertIsNotNone(workloads.witness_problem(wrong, "13/8", 6, 7))

    def test_small_pass_is_correct(self):
        stream = [q for q in inputs.query_stream(REF, 3) if q.kind != "sweep"][:40]
        with workloads.Deadline(workloads.DEADLINE_S) as deadline:
            out = workloads.queries_pass(REF, stream, deadline)
        self.assertEqual((out.attempted, out.failed, out.deadline_missed), (40, 0, 0))
        self.assertEqual(len(out.ops), 40)

    def test_changed_reference_counts_as_failed(self):
        q = inputs.query_stream(REF, 3)[0]
        ref = json.loads(json.dumps(REF))
        ref["queries"]["small"][q.key][5] = "0" * 16
        with workloads.Deadline(workloads.DEADLINE_S) as deadline:
            out = workloads.queries_pass(ref, [q], deadline)
        self.assertEqual(out.failed, 1)

    def test_deadline_interrupts_and_expires_quietly(self):
        def spin():
            while True:
                pass

        with workloads.Deadline(0.05) as deadline:
            res, secs = deadline.call(spin)
            self.assertIs(res, workloads.DeadlineExceeded)
            self.assertLess(secs, 1.0)
            res, _ = deadline.call(lambda: 42)
            self.assertEqual(res, 42)
            time.sleep(0.1)  # no timer is left to fire


class TestSpans(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tr = Tracer("w")
        with tr.span("outer"):
            with tr.span("inner"):
                time.sleep(0.02)
        own = tr.self_times()
        self.assertGreaterEqual(own["inner"], 0.02)
        self.assertLess(own["outer"], own["inner"])
        self.assertEqual([s[3] for s in tr.spans], [None, 0])

    def test_span_cost_is_small_and_positive(self):
        self.assertTrue(0 < span_cost_s(batch=100, batches=3) < 1e-3)


class TestLayers(unittest.TestCase):
    def test_cache_hits_count_only_untouched_files(self):
        env.OUT.mkdir(exist_ok=True)
        cache = Path(tempfile.mkdtemp(prefix="hits-", dir=env.OUT))
        try:
            for name in ("a", "b", "c"):
                (cache / name).write_text(name)
            marks = layers._stamp(str(cache))
            (cache / "b").write_text("b")  # rewritten in place, same bytes
            (cache / "new").write_text("c")
            (cache / "new").replace(cache / "c")  # replaced, same bytes
            self.assertEqual(layers._untouched(str(cache), marks), 1)
        finally:
            shutil.rmtree(cache)


class TestCommand(unittest.TestCase):
    def test_percentile_ranks_failures_last(self):
        ops = sorted([(False, 0.5), (True, 0.1), (False, 0.2)])
        self.assertEqual(run.nearest_rank(ops, 50), (False, 0.5))
        self.assertEqual(run.nearest_rank(ops, 95), (True, 0.1))

    def test_per_op_scales_each_pass_and_takes_medians(self):
        a = workloads.PassResult(ops=[(False, 0.25, 0.125), (False, 0.25, 0.0)])
        b = workloads.PassResult(ops=[(False, 0.75, 0.375), (True, 0.5, 0.0)])
        self.assertEqual(run.per_op([a, b], [2.0, 4.0]),
                         [(False, 1.75, 0.875), (True, 1.25, 0.0)])

    def test_last_line_follows_the_declared_metrics(self):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "3",
             "--seconds", "1", "--trace", "0"],
            cwd=env.ROOT, capture_output=True, text=True, timeout=120,
        )
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), set(run.declared_units(False)))

    def test_fails_without_the_library(self):
        env.OUT.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=env.OUT))
        try:
            shutil.copy(env.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(env.ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
