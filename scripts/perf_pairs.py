#!/usr/bin/env python3
"""Alternating pairs of benchmark runs: a git revision against this tree.

    python3 scripts/perf_pairs.py --against REV [--workload NAME ...] [--seed N ...]
                                  [--pairs 10]

The committed files of the git revision REV are extracted with ``git
archive`` (local git only) into a temporary directory that is removed
afterwards; the other side is this working tree.  For each workload and
seed (every workload of BENCHMARK.json and seed 0 by default),
``perfbench/run.py --trace 0`` runs --pairs times (at least ten) on each
side for BENCHMARK.json's ``run_seconds``, one process per run, and the
pairs alternate which side runs first.  Each run's
end-to-end metrics are read from its last line of output; a progress line
per pair goes to stderr.  Then, for each workload, seed and end-to-end
metric of BENCHMARK.json, one line gives each side's median and quartiles,
how many pairs this tree won and lost (ties count for neither), and
whether the medians differ by more than REV's interquartile range, and in
which direction.  A gain holds where the tree won at least nine tenths of
the pairs and its median is better by more than that range.  Last comes
the verdict against the metric's relative ``bound`` in BENCHMARK.json:
"worse than bound" where the tree's median is worse than REV's by more
than the bound times REV's median, otherwise "within bound"; and
"unresolved" where REV's interquartile range exceeds that share of its
median, unless every tree run beats every REV run.  The script
edits no file of the benchmark; the runs write only their own output.  A
run that fails ends the script with exit 2.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from census import ROOT, extract, fail  # noqa: E402


def read_metrics(stdout: str) -> dict:
    """{metric: value} of a benchmark run, from the JSON object on the last
    line of its output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    return {name: entry["value"] for name, entry in json.loads(lines[-1])["metrics"].items()}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(
        argv + ["--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode:
        fail(f"{workload} seed {seed} in {tree} exited {done.returncode}: {done.stderr.strip()}")
    try:
        return read_metrics(done.stdout)
    except (ValueError, KeyError) as exc:
        fail(f"{workload} seed {seed} in {tree}: no result line ({exc})")


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile), interpolated between the
    sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summary(name: str, better: str, bound: float, rev: list, tree: list) -> str:
    """One metric's line for the pairs (rev[i], tree[i]): the medians and
    quartiles, the pairs this tree won, how the medians compare with REV's
    interquartile range, and the verdict against the relative bound."""
    sign = -1.0 if better == "lower" else 1.0
    won = sum(sign * (ours - theirs) > 0 for theirs, ours in zip(rev, tree))
    lost = sum(sign * (ours - theirs) < 0 for theirs, ours in zip(rev, tree))
    (q1, median, q3), (t1, tree_median, t3) = quartiles(rev), quartiles(tree)
    shift = sign * (tree_median - median)
    if abs(tree_median - median) <= q3 - q1:
        verdict = "within REV's IQR"
    else:
        verdict = "better by more than REV's IQR" if shift > 0 else "worse by more than REV's IQR"
    gain = won >= 0.9 * len(rev) and shift > q3 - q1
    allowed = bound * abs(median)
    if q3 - q1 > allowed and not all(sign * (ours - theirs) > 0 for theirs in rev for ours in tree):
        status = "unresolved"
    else:
        status = "worse than bound" if -shift > allowed else "within bound"
    return (
        f"  {name} ({better} is better): REV {median:.6g} [{q1:.6g}, {q3:.6g}]"
        f"  tree {tree_median:.6g} [{t1:.6g}, {t3:.6g}]"
        f"  tree won {won}/{len(rev)}, lost {lost}  {verdict}{'  GAIN' if gain else ''}"
        f"  bound {bound:g}: {status}"
    )


def report(workload: str, seed: int, metrics: list, rev_runs: list, tree_runs: list) -> list:
    """The lines of one workload and seed: a heading, then one line per
    metric (name, better, bound) that every run reported."""
    lines = [f"{workload} seed {seed}, {len(rev_runs)} pairs"]
    for name, better, bound in metrics:
        if all(name in run for run in rev_runs + tree_runs):
            rev = [run[name] for run in rev_runs]
            lines.append(summary(name, better, bound, rev, [run[name] for run in tree_runs]))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", required=True)
    parser.add_argument("--workload", action="append", help="repeatable; default every workload")
    parser.add_argument("--seed", type=int, action="append", help="repeatable; default 0")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("--pairs must be at least 10: fewer pairs cannot support a claim")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [
        (entry["name"], entry["better"], entry["bound"]) for entry in benchmark["end_to_end"]
    ]
    workloads = args.workload or [entry["name"] for entry in benchmark["workloads"]]
    lines = []
    with tempfile.TemporaryDirectory() as scratch:
        rev_tree = Path(scratch)
        extract(args.against, rev_tree)
        for workload in workloads:
            for seed in args.seed or [0]:
                runs = {ROOT: [], rev_tree: []}
                for pair in range(args.pairs):
                    order = (rev_tree, ROOT) if pair % 2 == 0 else (ROOT, rev_tree)
                    for tree in order:
                        runs[tree].append(run_once(tree, workload, seed, benchmark["run_seconds"]))
                    rev_s, tree_s = (runs[side][-1].get("solve_s") for side in (rev_tree, ROOT))
                    print(
                        f"{workload} seed {seed} pair {pair + 1}/{args.pairs}: "
                        f"solve_s REV {rev_s} tree {tree_s}",
                        file=sys.stderr,
                    )
                lines += report(workload, seed, metrics, runs[rev_tree], runs[ROOT])
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
