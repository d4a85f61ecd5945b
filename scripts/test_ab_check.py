#!/usr/bin/env python3
"""Unit tests of ab_check.py's decision on synthetic runs.

Run with ``python3 scripts/test_ab_check.py``. Only the standard library is
used; nothing is built or run.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ab_check  # noqa: E402

BENCH = ab_check.load_benchmark(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

# Per-run noise of a quiet metric: within ±3%, so its spread is far inside
# every bound.
QUIET = [1.00, 0.98, 1.02, 0.99, 1.03]


def run(scale=None, correct=True, failed=0, drop=(), returncode=0):
    """One synthetic `--workload all` run: every workload reports every
    end-to-end metric at 100 (1 for success_rate), times `scale(workload,
    metric)`; `drop` removes (workload, metric) pairs, or whole workloads
    given as (workload, None)."""
    results = {}
    for w in (w["name"] for w in BENCH["workloads"]):
        if (w, None) in drop:
            continue
        metrics = {}
        for m in (m["name"] for m in BENCH["end_to_end"]):
            if (w, m) in drop:
                continue
            base = 1.0 if m == "success_rate" else 100.0
            metrics[m] = {"value": base * (scale(w, m) if scale else 1.0), "unit": "x"}
        results[w] = {"correct": correct, "attempted": 1000, "failed": failed, "metrics": metrics}
    return {"returncode": returncode, "results": results}


def runs(factors, **kwargs):
    """One run per factor, every metric scaled by it (success_rate stays 1)."""
    return [run(lambda w, m, f=f: 1.0 if m == "success_rate" else f, **kwargs) for f in factors]


def verdicts(rows):
    return {(w, m): v for w, m, *_, v in rows}


class Decide(unittest.TestCase):
    def test_a_a_passes(self):
        rows, problems = ab_check.decide(BENCH, runs(QUIET), runs(reversed(QUIET)))
        self.assertEqual(problems, [])
        self.assertEqual(set(verdicts(rows).values()), {"ok"})
        self.assertEqual(len(rows), len(BENCH["workloads"]) * len(BENCH["end_to_end"]))

    def test_slower_op_p50_fails(self):
        def slow(f):
            return lambda w, m: 1.5 * f if (w, m) == ("mine_dense", "op_p50_ms") else f

        change = [run(slow(f)) for f in QUIET]
        rows, problems = ab_check.decide(BENCH, runs(QUIET), change)
        self.assertEqual(verdicts(rows)[("mine_dense", "op_p50_ms")], "regressed")
        self.assertEqual(len(problems), 1)
        self.assertIn("mine_dense op_p50_ms", problems[0])

    def test_lower_throughput_fails(self):
        def slow(f):
            return lambda w, m: f / 1.5 if (w, m) == ("serve_classify", "rps") else f

        rows, problems = ab_check.decide(BENCH, runs(QUIET), [run(slow(f)) for f in QUIET])
        self.assertEqual(verdicts(rows)[("serve_classify", "rps")], "regressed")
        self.assertEqual(len(problems), 1)

    def test_wide_parent_spread_is_unresolved(self):
        # stream_clicks op_p99_ms: interquartile range 0.3 of the median.
        wide = [0.8, 0.85, 1.0, 1.15, 1.3]

        def with_wide(f):
            return lambda w, m: f if (w, m) == ("stream_clicks", "op_p99_ms") else 1.0

        parent = [run(with_wide(f)) for f in wide]
        change = [run(with_wide(f)) for f in reversed(wide)]
        rows, problems = ab_check.decide(BENCH, parent, change)
        self.assertEqual(problems, [])
        self.assertEqual(verdicts(rows)[("stream_clicks", "op_p99_ms")], "unresolved")
        self.assertEqual(verdicts(rows)[("stream_clicks", "op_p50_ms")], "ok")

    def test_only_separated_runs_decide_a_wide_spread(self):
        wide = [0.8, 0.85, 1.0, 1.15, 1.3]
        self.assertEqual(ab_check.judge("lower", 0.25, wide, [0.5, 0.6, 0.7]), "ok")
        self.assertEqual(ab_check.judge("lower", 0.25, wide, [0.5, 0.6, 0.9]), "unresolved")
        self.assertEqual(ab_check.judge("lower", 0.25, wide, [1.4, 1.5, 1.6]), "regressed")
        # The median moved beyond the bound, but the runs overlap.
        self.assertEqual(
            ab_check.judge("lower", 0.25, wide, [0.9, 1.3, 1.35, 1.4, 1.5]), "unresolved"
        )
        self.assertEqual(ab_check.judge("higher", 0.25, wide, [0.5, 0.6, 0.7]), "regressed")

    def test_missing_metric_fails(self):
        change = runs(QUIET, drop={("serve_classify", "rps")})
        rows, problems = ab_check.decide(BENCH, runs(QUIET), change)
        self.assertNotIn(("serve_classify", "rps"), verdicts(rows))
        self.assertEqual(len(problems), 1)
        self.assertIn("serve_classify rps", problems[0])

    def test_missing_workload_fails(self):
        change = runs(QUIET, drop={("stream_clicks", None)})
        _, problems = ab_check.decide(BENCH, runs(QUIET), change)
        self.assertEqual(len(problems), 1)
        self.assertIn("stream_clicks: missing", problems[0])

    def test_a_failed_op_fails(self):
        change = runs(QUIET)
        change[2]["results"]["serve_classify"]["failed"] = 1
        _, problems = ab_check.decide(BENCH, runs(QUIET), change)
        self.assertEqual(len(problems), 1)
        self.assertIn("serve_classify: failed share", problems[0])

    def test_fewer_failed_ops_than_the_parent_pass(self):
        parent = runs(QUIET)
        parent[0]["results"]["serve_classify"]["failed"] = 3
        _, problems = ab_check.decide(BENCH, parent, runs(QUIET))
        self.assertEqual(problems, [])

    def test_incorrect_output_fails(self):
        _, problems = ab_check.decide(BENCH, runs(QUIET), runs(QUIET, correct=False))
        self.assertEqual(len(problems), len(QUIET) * len(BENCH["workloads"]))

    def test_nonzero_exit_fails(self):
        change = runs(QUIET)
        change[1] = {"returncode": 1, "results": {}}
        _, problems = ab_check.decide(BENCH, runs(QUIET), change)
        self.assertIn("change run 2 exited with status 1", problems)


class Helpers(unittest.TestCase):
    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(ab_check.spread([1, 2, 3, 4, 5]), 2 / 3)
        self.assertEqual(ab_check.spread([7.0]), 0.0)
        self.assertEqual(ab_check.spread([0, 0, 0]), 0.0)

    def test_build_command_drops_the_run_arguments(self):
        command = ["cargo", "run", "--release", "--manifest-path", "b/Cargo.toml", "--", "-x"]
        self.assertEqual(
            ab_check.build_command(command),
            ["cargo", "build", "--release", "--manifest-path", "b/Cargo.toml"],
        )
        self.assertIsNone(ab_check.build_command(["./bench", "-x"]))


if __name__ == "__main__":
    unittest.main()
