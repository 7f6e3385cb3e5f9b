#!/usr/bin/env python3
"""One command for the F-IVM benchmark.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1] [--quick] [--out FILE] [--spans DIR]

Each workload runs in a fresh child process with a pinned environment
(see ``PINNED_ENV``); the child prints every metric by name and unit and,
as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``. Without ``--workload`` all four
run in turn. ``--out`` collects the full records (with a host
fingerprint) as JSON lines. Exit status is non-zero when any operation
failed or a result did not match the reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_SECONDS = 25
WORKLOAD_NAMES = (
    "retailer_covar_bulk",
    "retailer_covar_trickle",
    "retailer_mi_mixed",
    "favorita_sharded_serve",
)

#: Why each is pinned is in README.md ("Noise controls"). In short: hash
#: order decides dict iteration and therefore work order; and glibc
#: returning the heap top to the kernel and mmap-ing every large numpy
#: temporary made the first engine of a process 15-20 % slower and 3x
#: noisier than an identical second one.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "MALLOC_TRIM_THRESHOLD_": "1073741824",
    "MALLOC_TOP_PAD_": "268435456",
    "MALLOC_MMAP_THRESHOLD_": "33554432",
}
CHILD_MARK = "FIVM_BENCH_CHILD"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help=f"length of the measured region (default {RUN_SECONDS}, 0.5 with --quick)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0, nargs="?", const=1,
        help="1: alternate traced and untraced segments and report the per-layer metrics",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="self-test scale: a tenth of the data, a fifth of the events per segment",
    )
    parser.add_argument("--out", help="append each workload's full record to this JSON-lines file")
    parser.add_argument("--spans", help="directory for the traced run's span dump")
    parser.add_argument(
        "--corrupt-reference", action="store_true",
        help="self-test only: check against a deliberately wrong reference",
    )
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.5 if args.quick else float(RUN_SECONDS)
    return args


def host_fingerprint() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "env": PINNED_ENV,
    }


def child(args) -> int:
    """Run one workload in this (already pinned) process."""
    sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]
    from report import run_workload
    from workloads import BY_NAME

    spans_path = None
    if args.spans and args.trace:
        os.makedirs(args.spans, exist_ok=True)
        spans_path = os.path.join(args.spans, f"{args.workload}.spans.json")
    record = run_workload(
        BY_NAME[args.workload],
        seed=args.seed,
        seconds=args.seconds,
        traced=bool(args.trace),
        quick=args.quick,
        corrupt_reference=args.corrupt_reference,
        spans_path=spans_path,
    )
    record["seconds"] = args.seconds
    record["host"] = host_fingerprint()
    print(
        f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"backend={record['backend']}/{record['transport']} samples={record['samples']}"
    )
    named = dict(record["metrics"], **record.get("reported", {}))
    for name, metric in named.items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in record.get("raw", {}).items():
        print(f"{'raw.' + name:40s} {value:>16.6g} {named[name]['unit']}")
    print(f"{'ops_attempted':40s} {record['attempted']:>16d} count")
    print(f"{'ops_failed':40s} {record['failed']:>16d} count")
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] and record["failed"] == 0 else 1


def main(argv) -> int:
    args = parse_args(argv)
    if os.environ.get(CHILD_MARK) == "1":
        return child(args)
    if args.out:
        open(args.out, "w").close()
    environment = dict(os.environ, **PINNED_ENV, **{CHILD_MARK: "1"})
    status = 0
    for name in [args.workload] if args.workload else WORKLOAD_NAMES:
        command = [sys.executable, os.path.abspath(__file__), *argv]
        if not args.workload:
            command += ["--workload", name]
        status = max(status, abs(subprocess.run(command, env=environment).returncode))
    return min(status, 1)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
