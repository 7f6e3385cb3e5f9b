"""Perf-regression gate: compare benchmark artifacts to a committed baseline.

``bench_delta_latency.py`` and ``bench_sharded_ingest.py`` write JSON
artifacts with one record per (engine, ingest mode, batch size, ...)
configuration. This script compares the ``latency_us`` of every
configuration present in both an artifact and the baseline
(``BENCH_baseline.json``) and **fails when the median per-update latency
ratio across configurations regresses more than the threshold** (default
25%). The median-of-ratios aggregation keeps one noisy configuration from
failing the gate while still catching a systemic slowdown.

Escape hatches (both documented in ``.github/workflows/ci.yml``):

- apply the ``perf-override`` label to the pull request — the workflow
  exports ``PERF_GATE_OVERRIDE=1`` and the gate reports but never fails;
- ``PERF_GATE_THRESHOLD`` overrides the regression threshold (a float,
  e.g. ``0.40`` for 40%).

The baseline stores *absolute* latencies, so it is only comparable on
similar hardware: median-of-ratios absorbs per-config noise but not a
uniformly slower runner generation. If the gate drifts across the CI
fleet, regenerate the baseline from a recent `bench-smoke-results`
artifact produced by CI itself (or raise ``PERF_GATE_THRESHOLD``).

Regenerate the baseline after an intentional perf change::

    PYTHONPATH=src python benchmarks/bench_delta_latency.py --smoke --json /tmp/a.json
    PYTHONPATH=src python benchmarks/bench_sharded_ingest.py --smoke --json /tmp/b.json
    python benchmarks/check_perf_regression.py --baseline BENCH_baseline.json \
        --update /tmp/a.json /tmp/b.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List


def config_key(benchmark: str, record: Dict) -> str:
    """Stable identity of one measured configuration."""
    parts = [benchmark, str(record.get("engine"))]
    for field in (
        "ingest",
        "batch_size",
        "shards",
        "transport",
        "supervise",
        "fault",
        "endpoint",
        "readers",
        "stat",
        "window",
        "decay",
    ):
        if field in record and record[field] is not None:
            parts.append(f"{field}={record[field]}")
    return ":".join(parts)


def collect(paths: List[str]) -> Dict[str, float]:
    """``config key -> latency_us`` across one or more artifact files."""
    configs: Dict[str, float] = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            artifact = json.load(handle)
        benchmark = artifact.get("benchmark", os.path.basename(path))
        for record in artifact.get("results", ()):
            latency = record.get("latency_us")
            if latency is None:
                continue
            key = config_key(benchmark, record)
            if key in configs:
                raise SystemExit(f"duplicate configuration {key!r} in {path}")
            configs[key] = float(latency)
    if not configs:
        raise SystemExit("no measurements found in the given artifacts")
    return configs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("artifacts", nargs="+", help="benchmark JSON artifacts")
    parser.add_argument(
        "--baseline", default="BENCH_baseline.json", help="committed baseline path"
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline from the artifacts instead of checking",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=float(os.environ.get("PERF_GATE_THRESHOLD", "0.25")),
        help="allowed median latency regression (default 0.25 = 25%%)",
    )
    args = parser.parse_args(argv)
    current = collect(args.artifacts)

    if args.update:
        baseline = {
            "note": (
                "Median per-update latency baseline for the CI perf gate; "
                "regenerate with check_perf_regression.py --update "
                "(see the module docstring)."
            ),
            "threshold_default": 0.25,
            "configs": {key: current[key] for key in sorted(current)},
        }
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=2)
            handle.write("\n")
        print(f"wrote {len(current)} baseline configurations to {args.baseline}")
        return 0

    with open(args.baseline, "r", encoding="utf-8") as handle:
        baseline_configs = json.load(handle)["configs"]

    rows = []
    ratios = []
    for key in sorted(current):
        base = baseline_configs.get(key)
        if base is None or base <= 0:
            rows.append((key, None, current[key], None))
            continue
        ratio = current[key] / base
        ratios.append(ratio)
        rows.append((key, base, current[key], ratio))
    # Baseline keys no measurement covered any more: surface the drift
    # loudly, or renames/removed configs silently shrink gate coverage.
    orphaned = sorted(set(baseline_configs) - set(current))
    if not ratios:
        raise SystemExit(
            "no configuration overlaps the baseline — regenerate it "
            "(check_perf_regression.py --update)"
        )

    median_ratio = statistics.median(ratios)
    worst = max(ratios)
    print("## Perf-regression gate\n")
    print("| configuration | baseline µs | current µs | ratio |")
    print("|---|---:|---:|---:|")
    for key, base, cur, ratio in rows:
        base_s = f"{base:.2f}" if base is not None else "—"
        ratio_s = f"{ratio:.2f}x" if ratio is not None else "new"
        print(f"| `{key}` | {base_s} | {cur:.2f} | {ratio_s} |")
    print(
        f"\nmedian latency ratio: **{median_ratio:.2f}x** over {len(ratios)} "
        f"configurations (worst {worst:.2f}x, threshold "
        f"{1 + args.threshold:.2f}x)"
    )
    if orphaned:
        print(
            f"\nWARNING: {len(orphaned)} baseline configuration(s) had no "
            "current measurement (renamed or removed bench configs?) — "
            "regenerate the baseline to restore coverage:"
        )
        for key in orphaned:
            print(f"  - `{key}`")

    if median_ratio > 1 + args.threshold:
        if os.environ.get("PERF_GATE_OVERRIDE"):
            print(
                "\nPERF_GATE_OVERRIDE set ('perf-override' label): regression "
                "reported but not failing the job"
            )
            return 0
        print(
            f"\nFAIL: median per-update latency regressed "
            f"{100 * (median_ratio - 1):.0f}% (> {100 * args.threshold:.0f}%) "
            "vs BENCH_baseline.json. If intentional, regenerate the baseline "
            "or apply the 'perf-override' PR label.",
            file=sys.stderr,
        )
        return 1
    print("\nperf gate passed ✓")
    return 0


if __name__ == "__main__":
    sys.exit(main())
