#!/usr/bin/env python3
"""Same-runner A/B check of the end-to-end benchmark.

Runs the benchmark that ``BENCHMARK.json`` declares on two checkouts of the
repository, the parent and the change, on the same machine, and fails when
the change makes an end-to-end metric worse than the parent beyond the
metric's bound.

Usage:
    ab_check.py PARENT CHANGE

PARENT and CHANGE are checkout directories, for example the merge base in
a ``git worktree`` and the change under review. Everything else comes from
``BENCHMARK.json``: the command, the workloads, the run length, and each
``end_to_end`` metric's direction (``better``) and ``bound``.

Both sides are built first. Then ``PAIRS`` pairs of runs of
``--workload all --trace 0`` alternate in ABBA order (parent first in even
pairs, change first in odd ones), pair i running seed i on both sides. Each
workload prints one JSON result line; ``--workload all`` prints them in the
order ``BENCHMARK.json`` lists the workloads.

Per (workload, metric):

- regressed: the change's median is worse than the parent's by more than
  the bound;
- unresolved: the parent's own spread (interquartile range / median) is
  wider than the bound, so a bound-sized move cannot be told from noise.
  Such a metric is "ok" only if every change run beats every parent run,
  and "regressed" only if every parent run beats every change run;
- ok: otherwise.

The check fails on a regressed metric, on a run that exits non-zero or
reports ``correct: false``, on a larger failed share of ops than the parent,
and on a workload or metric the parent reports that the change does not (a
shrunk grid is not a pass). "unresolved" passes, and is reported.

If the change touches ``BENCHMARK.json`` or a file under its ``paths``, the
two sides run different benchmarks; the script says so and compares
nothing. Only the standard library is used.
"""

import json
import os
import statistics
import subprocess
import sys
import time

# Pairs of runs per check, chosen from 20 A/A runs of one build on a 2-core
# host (CHANGES.md): over five pairs every end-to-end metric but
# serve_classify op_p99_ms spreads less than its bound, and that one is
# reported as unresolved.
PAIRS = 5


def load_benchmark(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def benchmark_files(root, bench):
    """Tracked and untracked-but-not-ignored files that define the benchmark."""
    out = subprocess.run(
        ["git", "ls-files", "--cached", "--others", "--exclude-standard", "-z", "--",
         "BENCHMARK.json", *bench["paths"]],
        cwd=root, check=True, capture_output=True,
    ).stdout
    return {p for p in out.decode().split("\0") if p}


def benchmark_differences(parent, change, bench):
    """Files of the benchmark that differ between the two checkouts."""
    parent_files = benchmark_files(parent, bench)
    change_files = benchmark_files(change, bench)
    differ = sorted(parent_files ^ change_files)
    for path in sorted(parent_files & change_files):
        with open(os.path.join(parent, path), "rb") as a, open(os.path.join(change, path), "rb") as b:
            if a.read() != b.read():
                differ.append(path)
    return differ


def build_command(command):
    """`cargo run ... -- ARGS` builds with `cargo build ...`; other commands build on first run."""
    if command[:2] == ["cargo", "run"] and "--" in command:
        return ["cargo", "build", *command[2:command.index("--")]]
    return None


def run_once(root, bench, seed):
    """One `--workload all` run: its exit status and each workload's result."""
    args = ["--workload", "all", "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(bench["command"] + args, cwd=root, capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    names = [w["name"] for w in bench["workloads"]]
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
    if len(lines) != len(names):
        # A workload that died printed no line, so the rest cannot be named.
        return {"returncode": proc.returncode or -1, "results": {}}
    results = {name: json.loads(line) for name, line in zip(names, lines)}
    return {"returncode": proc.returncode, "results": results}


def spread(values):
    """Interquartile range over the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    if median == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(median)


def judge(better, bound, parent, change):
    """Verdict for one metric from the parent's and the change's values."""
    lower = better == "lower"

    def better_than(x, y):
        return x < y if lower else x > y

    if spread(parent) > bound:
        # A median move of the bound's size is within the parent's own
        # noise; only runs that do not overlap at all decide.
        if all(better_than(p, c) for c in change for p in parent):
            return "regressed"
        if all(better_than(c, p) for c in change for p in parent):
            return "ok"
        return "unresolved"
    p, c = statistics.median(parent), statistics.median(change)
    limit = p * (1 + bound) if lower else p * (1 - bound)
    return "regressed" if better_than(limit, c) else "ok"


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def decide(bench, parent_runs, change_runs):
    """The verdict on two lists of runs (each as `run_once` returns it).

    Returns `(rows, problems)`: one row per compared (workload, metric) as
    `(workload, metric, parent median, change median, parent spread,
    verdict)`, and the reasons the check fails; it passes iff `problems`
    is empty.
    """
    problems = []
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        for i, run in enumerate(runs, 1):
            if run["returncode"] != 0:
                problems.append(f"{side} run {i} exited with status {run['returncode']}")
            for workload, result in run["results"].items():
                if not result["correct"]:
                    problems.append(f"{side} run {i}: {workload} reported correct: false")
    rows = []
    for workload in (w["name"] for w in bench["workloads"]):
        parent = [run["results"][workload] for run in parent_runs if workload in run["results"]]
        change = [run["results"][workload] for run in change_runs if workload in run["results"]]
        if not parent:
            continue
        if len(change) < len(change_runs):
            problems.append(f"{workload}: missing from {len(change_runs) - len(change)} change run(s)")
        if not change:
            continue
        if failed_share(change) > failed_share(parent):
            problems.append(
                f"{workload}: failed share of ops grew "
                f"{failed_share(parent):.3%} -> {failed_share(change):.3%}"
            )
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in parent if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in change if name in r["metrics"]]
            if not p:
                continue
            if len(c) < len(change):
                problems.append(f"{workload} {name}: reported by the parent, missing from the change")
                continue
            verdict = judge(metric["better"], metric["bound"], p, c)
            if verdict == "regressed":
                problems.append(
                    f"{workload} {name} regressed: median {statistics.median(p):g} -> "
                    f"{statistics.median(c):g} (bound {metric['bound']:.0%})"
                )
            rows.append((workload, name, statistics.median(p), statistics.median(c),
                         spread(p), verdict))
    return rows, problems


def report(rows, problems):
    print(f"{'workload':<16} {'metric':<14} {'parent':>12} {'change':>12} "
          f"{'delta':>8} {'spread':>7}  verdict")
    for workload, name, p, c, s, verdict in rows:
        delta = f"{(c - p) / p:+.1%}" if p else "-"
        print(f"{workload:<16} {name:<14} {p:>12.6g} {c:>12.6g} {delta:>8} {s:>7.3f}  {verdict}")
    unresolved = [f"{w} {m}" for w, m, *_, v in rows if v == "unresolved"]
    if unresolved:
        print(f"\nunresolved (parent spread wider than the bound): {', '.join(unresolved)}")
    if problems:
        print(f"\nFAIL: {len(problems)} problem(s):")
        for problem in problems:
            print(f"- {problem}")
    else:
        print("\nPASS")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    parent, change = (os.path.abspath(p) for p in sys.argv[1:])
    bench = load_benchmark(parent)
    differ = benchmark_differences(parent, change, bench)
    if differ:
        print("ab_check: the change edits the benchmark itself, so the two sides would run "
              "different benchmarks; nothing compared. Changed: " + ", ".join(differ))
        return
    start = time.monotonic()
    sides = {"parent": parent, "change": change}
    build = build_command(bench["command"])
    if build:
        for side, root in sides.items():
            print(f"building the {side} ({root})", flush=True)
            if subprocess.run(build, cwd=root).returncode != 0:
                sys.exit(f"ab_check: the {side} does not build")
    runs = {"parent": [], "change": []}
    for i in range(PAIRS):
        seed = i + 1
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            t = time.monotonic()
            run = run_once(sides[side], bench, seed)
            runs[side].append(run)
            print(f"pair {i + 1}/{PAIRS} seed {seed} {side}: exit {run['returncode']}, "
                  f"{time.monotonic() - t:.0f} s", flush=True)
    rows, problems = decide(bench, runs["parent"], runs["change"])
    print(f"\n{PAIRS} pairs, {os.cpu_count()} cpu(s), {time.monotonic() - start:.0f} s\n")
    report(rows, problems)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
