#!/usr/bin/env python3
"""Base-vs-HEAD performance gate over the repository benchmark.

Usage:  python3 scripts/perf_gate.py BASE_TREE HEAD_TREE

Both arguments are checkouts of the repository (the commit a change
is based on, and the change itself) on the same machine. For every
workload in HEAD_TREE/BENCHMARK.json the gate runs each tree's own

    perfbench/run.py --workload W --records RECORDS --seconds 0 --trace 0

in PAIRS alternating pairs (base first in even pairs, HEAD first in
odd ones), so slow drift of the host hits both sides alike. It prints
every run's end-to-end metrics, then per metric both medians, each
side's quartile spread and in how many pairs HEAD beat its paired base
run (a gain is claimed only when it wins at least 9 pairs in 10; the
count decides nothing here), and exits 1 when

  - a run exits non-zero or prints no result line,
  - a run reports `correct: false` (a result cell differs from its
    reference), or
  - for any `end_to_end` metric of BENCHMARK.json, HEAD's median is
    worse than the base median by more than that metric's `bound`
    (a fraction of the base median; `better` says which way is worse).

Workloads, metrics, directions and bounds all come from HEAD's
BENCHMARK.json. A workload the base tree's BENCHMARK.json does not
list yet has nothing to compare against and is skipped with a note.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

# Alternating base/HEAD pairs per workload.
PAIRS = 5
# Base trace length per run: a quarter of the benchmark's default, so
# all three workloads x PAIRS pairs fit in a few minutes.
RECORDS = 250_000


def load_benchmark(tree):
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(tree, workload):
    """One perfbench run of `tree`; a dict with `error` (None when the
    run printed a result line), `correct` and `metrics` (name -> value),
    plus the output tails for diagnosing a failed run."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--records", str(RECORDS),
           "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    run = {"error": None, "correct": False, "metrics": {},
           "stdout": proc.stdout[-2000:], "stderr": proc.stderr[-2000:]}
    if proc.returncode != 0:
        run["error"] = "exited %d" % proc.returncode
        return run
    try:
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        run["correct"] = doc["correct"] is True
        run["metrics"] = {name: m["value"]
                          for name, m in doc["metrics"].items()}
    except (ValueError, KeyError, IndexError, TypeError):
        run["error"] = "printed no result line"
    return run


def median_and_spread(values):
    """Median and quartile spread ((q3 - q1) / median) of the values."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def worse_fraction(better, base, head):
    """How much worse `head` is than `base`, as a fraction of `base`
    (negative when it is better)."""
    if base == 0:
        change = 0.0 if head == 0 else math.copysign(math.inf, head)
    else:
        change = (head - base) / base
    return change if better == "lower" else -change


def pair_wins(name, better, base_runs, head_runs):
    """(wins, pairs): in how many pairs HEAD's run beat its paired base
    run on metric `name`, ties counting for neither side, out of the
    pairs where both runs reported it. The runs are in pair order."""
    wins = pairs = 0
    for base, head in zip(base_runs, head_runs):
        if name not in base["metrics"] or name not in head["metrics"]:
            continue
        b, h = base["metrics"][name], head["metrics"][name]
        pairs += 1
        wins += h < b if better == "lower" else h > b
    return wins, pairs


def decide(end_to_end, workload, base_runs, head_runs):
    """Judge one workload's runs against the end-to-end metric specs.

    Returns (rows, failures): one row per metric with both medians,
    spreads, HEAD's pair wins and the verdict, and one message per
    reason to fail. base_runs[i] and head_runs[i] are pair i."""
    failures = []
    for side, runs in (("base", base_runs), ("HEAD", head_runs)):
        for i, run in enumerate(runs):
            if run["error"]:
                failures.append("%s: %s run %d %s" % (
                    workload, side, i, run["error"]))
            elif not run["correct"]:
                failures.append("%s: %s run %d reported correct: false"
                                % (workload, side, i))
    rows = []
    for spec in end_to_end:
        name, better, bound = spec["name"], spec["better"], spec["bound"]
        base = [r["metrics"][name] for r in base_runs
                if name in r["metrics"]]
        head = [r["metrics"][name] for r in head_runs
                if name in r["metrics"]]
        if not head:
            failures.append("%s: HEAD reported no %s" % (workload, name))
            continue
        head_med, head_spread = median_and_spread(head)
        # A metric the base does not report yet (added to the
        # benchmark by HEAD) has nothing to be compared with.
        base_med, base_spread = (median_and_spread(base) if base
                                 else (math.nan, math.nan))
        worse = worse_fraction(better, base_med, head_med)
        if not base:
            verdict = "no base values, not compared"
        elif worse > bound:
            verdict = "REGRESSED"
            failures.append(
                "%s: %s median %.4g is %.1f%% worse than base %.4g "
                "(bound %.0f%%)" % (workload, name, head_med,
                                    100 * worse, base_med, 100 * bound))
        elif max(base_spread, head_spread) > bound:
            verdict = "ok, unresolved (spread > bound)"
        else:
            verdict = "ok"
        wins, pairs = pair_wins(name, better, base_runs, head_runs)
        rows.append({"metric": name, "better": better, "bound": bound,
                     "base": base_med, "base_spread": base_spread,
                     "head": head_med, "head_spread": head_spread,
                     "worse": worse, "wins": wins, "pairs": pairs,
                     "verdict": verdict})
    return rows, failures


def print_run(pair, side, run, names):
    if run["error"] or not run["correct"]:
        print("  pair %d %-4s FAILED (%s)" % (
            pair, side, run["error"] or "correct: false"))
        for stream in ("stdout", "stderr"):
            for line in run[stream].strip().splitlines()[-15:]:
                print("      %s| %s" % (stream, line))
        return
    print("  pair %d %-4s %s" % (pair, side, "  ".join(
        "%s=%.4g" % (n, run["metrics"][n]) for n in names
        if n in run["metrics"])))


def print_rows(rows):
    print("  %-20s %-6s %6s %12s %7s %12s %7s %8s %9s  %s" % (
        "metric", "better", "bound", "base median", "spread",
        "HEAD median", "spread", "worse", "HEAD wins", "verdict"))
    for r in rows:
        print("  %-20s %-6s %5.0f%% %12.4g %6.1f%% %12.4g %6.1f%% %+7.1f%%"
              " %9s  %s" % (r["metric"], r["better"], 100 * r["bound"],
                            r["base"], 100 * r["base_spread"], r["head"],
                            100 * r["head_spread"], 100 * r["worse"],
                            "%d/%d" % (r["wins"], r["pairs"]),
                            r["verdict"]))


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("base_tree")
    parser.add_argument("head_tree")
    args = parser.parse_args()
    base_tree = os.path.abspath(args.base_tree)
    head_tree = os.path.abspath(args.head_tree)

    contract = load_benchmark(head_tree)
    base_workloads = {w["name"]
                      for w in load_benchmark(base_tree)["workloads"]}
    end_to_end = contract["end_to_end"]
    names = [m["name"] for m in end_to_end]
    print("perf gate: %d alternating pairs per workload, %d records, "
          "base %s, HEAD %s" % (PAIRS, RECORDS, base_tree, head_tree))

    failures = []
    for workload in (w["name"] for w in contract["workloads"]):
        print("\n== %s ==" % workload)
        if workload not in base_workloads:
            print("  not in the base tree's BENCHMARK.json: "
                  "nothing to compare, skipped")
            continue
        runs = {"base": [], "HEAD": []}
        for pair in range(PAIRS):
            order = ("base", "HEAD") if pair % 2 == 0 else ("HEAD", "base")
            for side in order:
                tree = base_tree if side == "base" else head_tree
                run = run_bench(tree, workload)
                runs[side].append(run)
                print_run(pair, side, run, names)
                sys.stdout.flush()
        rows, bad = decide(end_to_end, workload, runs["base"],
                           runs["HEAD"])
        print_rows(rows)
        failures += bad

    print()
    if failures:
        print("perf gate FAILED:")
        for f in failures:
            print("  " + f)
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
