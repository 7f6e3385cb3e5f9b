"""Sharded multi-core ingestion throughput and large-batch row mode.

Two things are measured on a Retailer update stream:

1. **Sharded throughput** — the same stream ingested by
   :class:`~repro.engine.sharded.ShardedEngine` at 1, 2 and 4 shards.
   The coordinator hash-routes deltas on the shard plan's attributes
   while workers maintain their slices concurrently, so on a >= 4-core
   machine 4 shards must reach >= 2.5x the 1-shard throughput. The
   shard-merged result must equal the unsharded :class:`FIVMEngine`'s
   exactly — that equivalence (not the timing) is what CI's smoke run
   gates on; the speedup target is only asserted in full mode on
   hardware with enough cores (a warning is printed otherwise, e.g. on
   single-core CI containers). The per-``result()`` gather time at each
   shard count is reported beside it.
2. **Large batches on dict views** — unsharded F-IVM ingestion at
   batch 1000/4000 on the count ring, whose compiled programs run row
   mode at every size: every sibling join is an index probe; reports
   how many, and the results must agree across batch sizes. (The
   records keep their ``fivm-adaptive`` label, the key the regression
   baseline holds them under.)

``--json PATH`` writes the measurements in the same record format as
``bench_delta_latency.py`` for the perf-regression gate
(``benchmarks/check_perf_regression.py``); sharded records carry a
``transport`` label (``pipe`` when the sweep forks workers, ``none``
when it runs them in-process) so the two gate independently.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_sharded_ingest.py --smoke
    PYTHONPATH=src python benchmarks/bench_sharded_ingest.py  # full scale
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro import EngineConfig
from repro.datasets import (
    RetailerConfig,
    UpdateStream,
    generate_retailer,
    retailer_query,
    retailer_row_factories,
    retailer_variable_order,
)
from repro.engine import FIVMEngine, ShardedEngine
from repro.engine.sharded import resolve_backend
from repro.rings import CountSpec

CONFIG = RetailerConfig(
    locations=32, dates=90, items=900, inventory_rows=40_000, seed=101
)
SMOKE_CONFIG = RetailerConfig(
    locations=8, dates=10, items=40, inventory_rows=600, seed=101
)

SHARD_COUNTS = (1, 2, 4)
SPEEDUP_TARGET = 2.5
#: result() gathers timed per configuration (averaged).
GATHER_ROUNDS = 5
LARGE_BATCHES = (1000, 4000)


def make_events(database, config, total_updates, seed=7):
    stream = UpdateStream(
        database,
        retailer_row_factories(config, database),
        targets=("Inventory",),
        batch_size=max(1, total_updates // 10),
        insert_ratio=0.8,
        seed=seed,
    )
    return list(stream.tuples(total_updates))


def bench_sharded(database, config, order, args, records):
    """Shard-count sweep; returns the 4-shard vs 1-shard speedup."""
    events = make_events(database, config, args.updates)
    query = retailer_query(CountSpec())
    reference = FIVMEngine(query, order=order)
    reference.initialize(database)
    reference.apply_stream(iter(events), batch_size=args.batch_size)
    expected = reference.result()

    # One label for the whole sweep (the 1-shard row is its baseline).
    forks = resolve_backend(args.backend, 2) == "process"
    transport = "pipe" if forks else "none"
    print(
        f"## sharded ingestion, {len(events)} updates "
        f"(retailer stream, batch size {args.batch_size}, "
        f"backend={args.backend}, {os.cpu_count()} cores)"
    )
    print(
        f"{'shards':>7} {'transport':>10} {'seconds':>9} {'updates/s':>11} "
        f"{'latency/upd':>12} {'gather':>10}"
    )
    seconds = {}
    for shards in SHARD_COUNTS:
        engine_config = EngineConfig(shards=shards, backend=args.backend)
        engine = ShardedEngine(query, order=order, config=engine_config)
        try:
            engine.initialize(database)
            started = time.perf_counter()
            engine.apply_stream(iter(events), batch_size=args.batch_size)
            result = engine.result()  # synchronizes all workers
            elapsed = time.perf_counter() - started
            started = time.perf_counter()
            for _ in range(GATHER_ROUNDS):
                engine.result()
            gather_s = (time.perf_counter() - started) / GATHER_ROUNDS
        finally:
            engine.close()
        assert result == expected, (
            f"shard-merged result at {shards} shards diverged from the "
            "unsharded engine"
        )
        seconds[shards] = elapsed
        latency_us = 1e6 * elapsed / len(events)
        print(
            f"{shards:>7} {transport:>10} {elapsed:>9.3f} "
            f"{len(events) / elapsed:>11.0f} {latency_us:>9.1f} µs "
            f"{1e6 * gather_s:>7.0f} µs"
        )
        records.append(
            {
                "engine": "fivm-sharded",
                "ingest": "stream",
                "batch_size": args.batch_size,
                "shards": shards,
                "transport": transport,
                "updates": len(events),
                "seconds": round(elapsed, 6),
                "updates_per_s": round(len(events) / elapsed, 1),
                "latency_us": round(latency_us, 2),
                "gather_us": round(1e6 * gather_s, 2),
            }
        )
    speedup = seconds[1] / seconds[4]
    print(f"4-shard vs 1-shard speedup: {speedup:.2f}x")
    print("shard-merged results identical to the unsharded engine ✓")
    return speedup


def bench_large_batches(database, config, order, args, records):
    """Large-batch ingestion on dict views: row mode, every join a probe."""
    events = make_events(database, config, args.updates, seed=13)
    query = retailer_query(CountSpec())
    print(f"\n## count ring at large batches, {len(events)} updates")
    print(f"{'batch':>6} {'seconds':>9} {'updates/s':>11} {'probe':>6}")
    results = []
    for batch_size in LARGE_BATCHES:
        engine = FIVMEngine(query, order=order)
        engine.initialize(database)
        started = time.perf_counter()
        engine.apply_stream(iter(events), batch_size=batch_size)
        elapsed = time.perf_counter() - started
        results.append(engine.result())
        print(
            f"{batch_size:>6} {elapsed:>9.3f} {len(events) / elapsed:>11.0f} "
            f"{engine.stats.probe_steps:>6}"
        )
        records.append(
            {
                "engine": "fivm-adaptive",
                "ingest": "stream",
                "batch_size": batch_size,
                "updates": len(events),
                "seconds": round(elapsed, 6),
                "updates_per_s": round(len(events) / elapsed, 1),
                "latency_us": round(1e6 * elapsed / len(events), 2),
            }
        )
    assert all(result == results[0] for result in results[1:]), (
        "results diverged across batch sizes"
    )
    print("results agree across batch sizes ✓")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, CI gate")
    parser.add_argument("--updates", type=int, default=20_000)
    parser.add_argument("--batch-size", type=int, default=500)
    parser.add_argument(
        "--backend",
        choices=("auto", "serial", "process"),
        default="auto",
        help="ShardedEngine backend (auto: fork processes when available)",
    )
    parser.add_argument(
        "--no-gate",
        action="store_true",
        help="never fail on the speedup target (always asserted: equivalence)",
    )
    parser.add_argument("--json", metavar="PATH", help="write measurements as JSON")
    args = parser.parse_args(argv)
    if args.smoke:
        args.updates = min(args.updates, 2000)

    config = SMOKE_CONFIG if args.smoke else CONFIG
    database = generate_retailer(config)
    order = retailer_variable_order()
    print(
        f"# sharded-ingest benchmark (retailer, "
        f"{'smoke' if args.smoke else 'full'} mode)\n"
    )
    records = []
    speedup = bench_sharded(database, config, order, args, records)
    bench_large_batches(database, config, order, args, records)

    cores = os.cpu_count() or 1
    gate_scaling = (
        not args.smoke and not args.no_gate and cores >= max(SHARD_COUNTS)
    )
    if speedup < SPEEDUP_TARGET:
        message = (
            f"4-shard speedup {speedup:.2f}x below the {SPEEDUP_TARGET}x target "
            f"({cores} cores available)"
        )
        if gate_scaling:
            print(f"\nFAIL: {message}", file=sys.stderr)
            return 1
        print(f"\nWARNING: {message} — not gating", file=sys.stderr)

    if args.json:
        artifact = {
            "benchmark": "sharded_ingest",
            "mode": "smoke" if args.smoke else "full",
            "dataset": "retailer",
            "cpu_count": cores,
            "shard_speedup_4v1": round(speedup, 3),
            "results": records,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2)
        print(f"\nwrote {len(records)} measurements to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
