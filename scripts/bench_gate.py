#!/usr/bin/env python3
"""Performance-regression gate for the committed bench baselines.

Compares a freshly measured bench JSON (``BENCH_kernel.json`` from the
``match_kernel`` bin, ``BENCH_parallel.json`` from ``scan_parallel``, or
``BENCH_serve.json`` from ``serve_load``) against the committed baseline of
the same bench. Rows are matched by their
identity fields, throughput is compared, a delta table is printed, and the
script exits non-zero when any row's throughput dropped by more than the
threshold (default 25%).

Usage:
    bench_gate.py BASELINE CURRENT [--threshold 0.25] [--out report.md]

The two files must come from the same bench (their ``"bench"`` field picks
the row schema). Rows present in the baseline but missing from the current
run fail the gate — a silently shrunk grid is not a pass, and a baseline
with no rows at all is an error for the same reason. Rows only in the
current run are reported but don't fail anything (the next baseline refresh
picks them up). Some rows gate a within-run ratio instead of absolute
throughput (see ``SCHEMAS``): the kernel bench's ``simd`` rows compare
``speedup_vs_trie``, so the "simd stays >= 3x over trie" contract is
enforced hardware-relatively rather than against another machine's clock.
Only the standard library is used.

Seeding a baseline: a gate needs a committed baseline to compare against.
To seed one for a new bench (or refresh an old one), run the bench bin on a
quiet machine and commit its JSON at the repo root, e.g.::

    cargo run --release -p noisemine-bench --bin serve_load -- --out BENCH_serve.json
    git add BENCH_serve.json

A missing baseline file is reported as an actionable error, not a pass —
an uncommitted baseline would silently disable the gate.
"""

import argparse
import json
import sys

# bench name -> (identity fields, gated metric, per-row metric overrides,
# identity defaults) for one row. Ratio metrics (`speedup`, `speedup_vs_trie`) are measured
# within a single run, so they stay meaningful across hosts and noisy
# runners where absolute throughput is not comparable: the index bench's
# indexed rows and the kernel bench's simd rows finish in microseconds,
# where absolute evals/s is runner noise, but the within-run ratio directly
# encodes the contract ("skip-scan stays >= 2x", "simd stays >= 3x over
# trie on the gated grid rows"). An override maps ``field == value`` to the
# metric gated for matching rows instead of the default. An identity default
# fills a field that rows recorded before the field existed lack: the kernel
# bench's `matrix` regime was added after its `fanout` rows were recorded.
SCHEMAS = {
    "match_kernel": (
        ("matrix", "symbols", "len", "candidates", "kernel"),
        "evals_per_sec",
        {("kernel", "simd"): "speedup_vs_trie"},
        {"matrix": "fanout"},
    ),
    "scan_parallel": (("backend", "threads"), "seqs_per_sec", {}, {}),
    "serve_load": (("patterns", "concurrency", "mode"), "rps", {}, {}),
}


def row_metric(bench, row):
    """The metric gated for this row: a schema override if one matches,
    else the bench default."""
    _, default, overrides, _ = SCHEMAS[bench]
    for (field, value), metric in overrides.items():
        if row.get(field) == value:
            return metric
    return default


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        sys.exit(
            f"error: {path}: no such file. If this is the committed baseline, seed it by\n"
            f"running the matching bench bin and committing its JSON output, e.g.:\n"
            f"  cargo run --release -p noisemine-bench --bin serve_load -- --out {path}\n"
            f"  git add {path}\n"
            f"(see the docstring at the top of scripts/bench_gate.py)"
        )
    except json.JSONDecodeError as e:
        sys.exit(f"error: {path}: not valid JSON ({e}) — partial bench write?")
    bench = doc.get("bench")
    if bench not in SCHEMAS:
        sys.exit(f"error: {path}: unknown bench {bench!r} (expected one of {sorted(SCHEMAS)})")
    key_fields, _, _, defaults = SCHEMAS[bench]
    rows = {}
    for i, row in enumerate(doc.get("rows", [])):
        row = {**defaults, **row}
        metric = row_metric(bench, row)
        missing = [k for k in (*key_fields, metric) if k not in row]
        if missing:
            sys.exit(
                f"error: {path}: row {i} is missing field(s) {', '.join(sorted(missing))}"
                f" — bench {bench!r} rows need identity fields {list(key_fields)} and"
                f" metric {metric!r} (row was {row!r})"
            )
        key = tuple(row[k] for k in key_fields)
        if key in rows:
            sys.exit(f"error: {path}: duplicate row for {dict(zip(key_fields, key))}")
        rows[key] = (metric, float(row[metric]))
    return bench, key_fields, rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="committed baseline JSON")
    ap.add_argument("current", help="freshly measured JSON")
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="max tolerated fractional throughput drop (default 0.25)",
    )
    ap.add_argument("--out", help="also write the delta table to this file (markdown)")
    args = ap.parse_args()

    base_bench, key_fields, base = load(args.baseline)
    cur_bench, _, cur = load(args.current)
    if base_bench != cur_bench:
        sys.exit(f"error: bench mismatch: baseline is {base_bench!r}, current is {cur_bench!r}")
    if not base:
        sys.exit(
            f"error: {args.baseline}: baseline has no rows — an empty baseline gates"
            f" nothing and would let any regression through. Reseed it from a real"
            f" bench run (see the docstring at the top of scripts/bench_gate.py)."
        )

    header = [*key_fields, "metric", "base", "current", "delta", "status"]
    table = [header, ["---"] * len(header)]
    failures = []
    for key in sorted(base):
        metric, base_v = base[key]
        cur_v = cur.get(key, (metric, None))[1]
        if cur_v is None:
            failures.append(f"row {dict(zip(key_fields, key))} missing from current run")
            table.append([*map(str, key), metric, f"{base_v:g}", "-", "-", "MISSING"])
            continue
        delta = (cur_v - base_v) / base_v if base_v else 0.0
        regressed = delta < -args.threshold
        if regressed:
            failures.append(
                f"row {dict(zip(key_fields, key))} regressed {-delta:.1%} "
                f"({base_v:g} -> {cur_v:g} {metric}, threshold {args.threshold:.0%})"
            )
        table.append(
            [
                *map(str, key),
                metric,
                f"{base_v:g}",
                f"{cur_v:g}",
                f"{delta:+.1%}",
                "FAIL" if regressed else "ok",
            ]
        )
    for key in sorted(set(cur) - set(base)):
        metric, cur_v = cur[key]
        table.append([*map(str, key), metric, "-", f"{cur_v:g}", "-", "new"])

    lines = [f"## Bench gate: {base_bench} (threshold {args.threshold:.0%} drop)", ""]
    lines += ["| " + " | ".join(row) + " |" for row in table]
    lines.append("")
    if failures:
        lines.append(f"**{len(failures)} regression(s):**")
        lines += [f"- {f}" for f in failures]
    else:
        lines.append("No regressions.")
    report = "\n".join(lines)
    print(report)
    if args.out:
        with open(args.out, "w") as f:
            f.write(report + "\n")

    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
