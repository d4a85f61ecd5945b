#!/usr/bin/env python3
"""Unit tests for scripts/bench_gate.py — run with ``python3 scripts/test_bench_gate.py``.

Covers the gate's verdicts (pass, regression, shrunk grid) and, most
importantly, its error reporting: a bench row missing an identity field or
the gated metric must produce an actionable message naming the missing
field, never a bare ``KeyError`` traceback. Only the standard library is
used, matching bench_gate.py itself.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_gate.py")


def kernel_doc(rows):
    return {"bench": "match_kernel", "rows": rows}


def kernel_row(symbols=8, length=4, candidates=16, kernel="trie", evals=1000.0):
    return {
        "symbols": symbols,
        "len": length,
        "candidates": candidates,
        "kernel": kernel,
        "evals_per_sec": evals,
    }


class GateHarness(unittest.TestCase):
    def run_gate(self, baseline_doc, current_doc, *extra):
        with tempfile.TemporaryDirectory() as tmp:
            base = os.path.join(tmp, "base.json")
            cur = os.path.join(tmp, "cur.json")
            with open(base, "w") as f:
                json.dump(baseline_doc, f)
            with open(cur, "w") as f:
                json.dump(current_doc, f)
            return subprocess.run(
                [sys.executable, GATE, base, cur, *extra],
                capture_output=True,
                text=True,
            )


class TestVerdicts(GateHarness):
    def test_unchanged_rows_pass(self):
        doc = kernel_doc([kernel_row()])
        res = self.run_gate(doc, doc)
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertIn("No regressions", res.stdout)

    def test_drop_beyond_threshold_fails(self):
        res = self.run_gate(
            kernel_doc([kernel_row(evals=1000.0)]),
            kernel_doc([kernel_row(evals=500.0)]),
        )
        self.assertEqual(res.returncode, 1)
        self.assertIn("regressed", res.stdout)

    def test_drop_within_custom_threshold_passes(self):
        res = self.run_gate(
            kernel_doc([kernel_row(evals=1000.0)]),
            kernel_doc([kernel_row(evals=500.0)]),
            "--threshold",
            "0.6",
        )
        self.assertEqual(res.returncode, 0, res.stderr)

    def test_row_missing_from_current_fails(self):
        res = self.run_gate(
            kernel_doc([kernel_row(kernel="trie"), kernel_row(kernel="naive")]),
            kernel_doc([kernel_row(kernel="trie")]),
        )
        self.assertEqual(res.returncode, 1)
        self.assertIn("missing from current run", res.stdout)

    def test_simd_rows_gate_on_within_run_trie_ratio(self):
        def simd_row(evals, ratio):
            row = kernel_row(kernel="simd", evals=evals)
            row["speedup_vs_trie"] = ratio
            return row

        base = kernel_doc([simd_row(evals=1000.0, ratio=3.5)])
        # Absolute throughput halves (slower runner) but the within-run
        # ratio holds: not a regression.
        ok = self.run_gate(base, kernel_doc([simd_row(evals=500.0, ratio=3.4)]))
        self.assertEqual(ok.returncode, 0, ok.stderr)
        self.assertIn("speedup_vs_trie", ok.stdout)
        # Throughput doubles but the ratio collapsed: the simd kernel lost
        # its edge over trie, and that is what the row gates.
        bad = self.run_gate(base, kernel_doc([simd_row(evals=2000.0, ratio=1.2)]))
        self.assertEqual(bad.returncode, 1)
        self.assertIn("regressed", bad.stdout)
        self.assertIn("speedup_vs_trie", bad.stdout)

    def test_simd_row_missing_ratio_metric_is_an_error(self):
        row = kernel_row(kernel="simd")  # has evals_per_sec, lacks the ratio
        res = self.run_gate(kernel_doc([row]), kernel_doc([row]))
        self.assertEqual(res.returncode, 1)
        self.assertIn("missing field(s) speedup_vs_trie", res.stderr)
        self.assertNotIn("Traceback", res.stderr)

    def test_kernel_rows_without_matrix_default_to_fanout(self):
        # Rows recorded before the `matrix` field existed are the fanout
        # regime; a partner row with the same other fields is a new row.
        partner = dict(kernel_row(evals=10.0), matrix="partner")
        res = self.run_gate(
            kernel_doc([kernel_row(evals=1000.0)]),
            kernel_doc([dict(kernel_row(evals=990.0), matrix="fanout"), partner]),
        )
        self.assertEqual(res.returncode, 0, res.stdout + res.stderr)
        self.assertIn("| fanout | 8 | 4 | 16 | trie |", res.stdout)
        self.assertIn("| partner | 8 | 4 | 16 | trie | evals_per_sec | - | 10 | - | new |", res.stdout)

    def test_empty_baseline_fails_not_passes(self):
        res = self.run_gate(kernel_doc([]), kernel_doc([kernel_row()]))
        self.assertEqual(res.returncode, 1)
        self.assertIn("baseline has no rows", res.stderr)


class TestMalformedInput(GateHarness):
    def test_row_missing_metric_reports_field_not_traceback(self):
        row = kernel_row()
        del row["evals_per_sec"]
        res = self.run_gate(kernel_doc([kernel_row()]), kernel_doc([row]))
        self.assertEqual(res.returncode, 1)
        self.assertIn("missing field(s) evals_per_sec", res.stderr)
        self.assertNotIn("Traceback", res.stderr)

    def test_row_missing_identity_field_reports_field_not_traceback(self):
        row = kernel_row()
        del row["kernel"]
        del row["symbols"]
        res = self.run_gate(kernel_doc([row]), kernel_doc([kernel_row()]))
        self.assertEqual(res.returncode, 1)
        self.assertIn("missing field(s) kernel, symbols", res.stderr)
        self.assertNotIn("Traceback", res.stderr)

    def test_unknown_bench_rejected(self):
        doc = {"bench": "mystery", "rows": []}
        res = self.run_gate(doc, doc)
        self.assertEqual(res.returncode, 1)
        self.assertIn("unknown bench", res.stderr)

    def test_bench_mismatch_rejected(self):
        res = self.run_gate(
            kernel_doc([kernel_row()]),
            {"bench": "scan_parallel", "rows": []},
        )
        self.assertEqual(res.returncode, 1)
        self.assertIn("bench mismatch", res.stderr)


if __name__ == "__main__":
    unittest.main()
