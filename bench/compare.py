#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 bench/compare.py --a A1.jsonl A2.jsonl ... --b B1.jsonl B2.jsonl ...
    python3 bench/compare.py --aa 5          # produce both sets from this commit

Each file is what ``run.py --out`` wrote: one JSON line per workload. For
every workload x end-to-end metric the table gives each set's median and
quartiles, B's difference as a share of A's median (positive = B is
worse), the larger of the two run-to-run spreads (interquartile range
over median) and the spread of all runs pooled, the declared bound, and a
verdict:

- ``unresolved`` the spread exceeds the bound, so the runs cannot tell;
- ``regressed``  B is worse than A by more than the bound;
- ``improved``   B is better than A by more than the spread;
- ``same``       anything else;
- ``ungated``    the workload or the metric is reported but no bound applies.

``--aa N`` makes 2N full runs of the working tree, every run with its own
seed and alternating between the sets, so a drifting host hits both.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from metrics import END_TO_END, REPORTED, UNGATED_WORKLOADS  # noqa: E402


def load(paths):
    """workload -> metric -> values, over every untraced record in ``paths``."""
    values = defaultdict(lambda: defaultdict(list))
    for path in paths:
        with open(path) as handle:
            for line in handle:
                record = json.loads(line)
                if record["trace"]:
                    continue
                for name, metric in {**record["metrics"], **record["reported"]}.items():
                    values[record["workload"]][name].append(metric["value"])
    return values


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return q1, mid, q3


def verdict(a, b, better, bound):
    """``(verdict, worse, spread)`` for two samples of one metric."""
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    worse = (bm - am) / am if better == "lower" else (am - bm) / am
    spread = max((a3 - a1) / am, (b3 - b1) / bm)
    if spread > bound:
        return "unresolved", worse, spread
    if worse > bound:
        return "regressed", worse, spread
    if worse < -spread:
        return "improved", worse, spread
    return "same", worse, spread


def table(set_a, set_b) -> str:
    header = (
        "| workload | metric | A median [q1, q3] | B median [q1, q3] "
        "| B worse by (share of A median) | spread | pooled | bound | verdict |"
    )
    rows = [header, "|---|---|---|---|---|---|---|---|---|"]
    for workload in set_a:
        for name, (unit, better, *bound) in {**END_TO_END, **REPORTED}.items():
            a, b = set_a[workload][name], set_b[workload].get(name)
            if not a or not b:
                continue
            word, worse, spread = verdict(a, b, better, *bound or [float("inf")])
            if workload in UNGATED_WORKLOADS or not bound:
                word = "ungated"
            a1, am, a3 = quartiles(a)
            b1, bm, b3 = quartiles(b)
            p1, pm, p3 = quartiles(a + b)
            rows.append(
                f"| {workload} | {name} ({unit}) "
                f"| {am:.5g} [{a1:.5g}, {a3:.5g}] | {bm:.5g} [{b1:.5g}, {b3:.5g}] "
                f"| {worse:+.2%} of {am:.5g} | {spread:.2%} | {(p3 - p1) / pm:.2%} "
                f"| {f'{bound[0]:.0%}' if bound else '-'} | {word} |"
            )
    return "\n".join(rows)


def produce_aa(count: int, seconds, directory: str):
    os.makedirs(directory, exist_ok=True)
    sets = ([], [])
    for run in range(2 * count):
        path = os.path.join(directory, f"{'ab'[run % 2]}{run // 2}.jsonl")
        command = [
            sys.executable, os.path.join(HERE, "run.py"),
            "--seed", str(run + 1), "--out", path,
        ]
        if seconds is not None:
            command += ["--seconds", str(seconds)]
        print(f"run {run + 1}/{2 * count} -> {path}", file=sys.stderr)
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        sets[run % 2].append(path)
    return sets


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", nargs="+", help="run files of set A (the base)")
    parser.add_argument("--b", nargs="+", help="run files of set B")
    parser.add_argument("--aa", type=int, metavar="N", help="produce N runs per set first")
    parser.add_argument("--seconds", type=float, help="with --aa: passed to run.py")
    parser.add_argument(
        "--dir", default=os.path.join(HERE, "out", "aa"), help="with --aa: where runs go"
    )
    args = parser.parse_args(argv)
    if args.aa:
        args.a, args.b = produce_aa(args.aa, args.seconds, args.dir)
    if not args.a or not args.b:
        parser.error("give --a and --b, or --aa N")
    text = table(load(args.a), load(args.b))
    print(text)
    return 1 if "regressed" in text else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
