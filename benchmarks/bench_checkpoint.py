"""Checkpoint save/restore latency and snapshot size vs. replay-from-scratch.

The durability claim behind shard-aware checkpointing: restoring a view
snapshot must be much cheaper than replaying the stream, and the snapshot
must be small (the ring views *are* the entire system state). Measured on
a Retailer count-ring stream for the plain F-IVM engine and a sharded
engine:

1. **save** — ``write_checkpoint`` latency and bytes on disk (zlib) vs.
   raw state bytes;
2. **restore** — ``restore_checkpoint`` into a fresh engine (including
   re-partitioning for the sharded engine and index rebuilds);
3. **replay** — ``initialize`` + re-ingesting the same prefix from
   scratch, the recovery path a system without checkpoints pays.

Equivalence is always asserted: the restored engine's result must equal
the source engine's, cross-shard-count restores (sharded snapshot into a
plain engine) included, and both must agree after resuming the remainder
of the stream.

``--json PATH`` writes records in the perf-gate format
(``benchmarks/check_perf_regression.py``); checkpoint configurations are
new keys, so the gate reports them without failing until a baseline
includes them.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_checkpoint.py --smoke
    PYTHONPATH=src python benchmarks/bench_checkpoint.py  # full scale
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

from repro.checkpoint import read_checkpoint_info, restore_checkpoint, write_checkpoint
from repro.config import EngineConfig, create_engine
from repro.datasets import (
    RetailerConfig,
    UpdateStream,
    generate_retailer,
    retailer_query,
    retailer_row_factories,
    retailer_variable_order,
)
from repro.engine import FIVMEngine, ShardedEngine
from repro.rings import CountSpec

CONFIG = RetailerConfig(
    locations=24, dates=60, items=600, inventory_rows=20_000, seed=77
)
SMOKE_CONFIG = RetailerConfig(
    locations=8, dates=10, items=40, inventory_rows=600, seed=77
)


def make_events(database, config, total_updates):
    stream = UpdateStream(
        database,
        retailer_row_factories(config, database),
        targets=("Inventory",),
        batch_size=max(1, total_updates // 10),
        insert_ratio=0.7,
        seed=19,
    )
    return list(stream.tuples(total_updates))


def bench_engine(label, factory, database, events, batch_size, path, records):
    """Save/restore/replay one engine configuration; returns its timings."""
    half = len(events) // 2
    engine = factory()
    try:
        engine.initialize(database)
        engine.apply_stream(iter(events[:half]), batch_size=batch_size)
        expected_mid = engine.result().copy()

        started = time.perf_counter()
        write_checkpoint(engine, path)
        save_s = time.perf_counter() - started
        info = read_checkpoint_info(path)

        restored = factory()
        try:
            started = time.perf_counter()
            restore_checkpoint(restored, path)
            restore_s = time.perf_counter() - started
            assert restored.result() == expected_mid, (
                f"{label}: restored result diverged from the source engine"
            )
            # Resume: checkpoint + remainder must equal uninterrupted runs.
            engine.apply_stream(iter(events[half:]), batch_size=batch_size)
            restored.apply_stream(iter(events[half:]), batch_size=batch_size)
            assert restored.result() == engine.result(), (
                f"{label}: resumed result diverged from uninterrupted ingestion"
            )
        finally:
            if isinstance(restored, ShardedEngine):
                restored.close()
    finally:
        if isinstance(engine, ShardedEngine):
            engine.close()

    replay = factory()
    try:
        started = time.perf_counter()
        replay.initialize(database)
        replay.apply_stream(iter(events[:half]), batch_size=batch_size)
        replay_s = time.perf_counter() - started
        assert replay.result() == expected_mid, (
            f"{label}: replay-from-scratch diverged"
        )
    finally:
        if isinstance(replay, ShardedEngine):
            replay.close()

    print(
        f"{label:>16} {1e3 * save_s:>9.1f} {1e3 * restore_s:>12.1f} "
        f"{1e3 * replay_s:>11.1f} {replay_s / restore_s:>8.1f}x "
        f"{info.file_bytes:>10} {info.state_bytes:>10}"
    )
    for op, seconds in (("save", save_s), ("restore", restore_s), ("replay", replay_s)):
        records.append(
            {
                "engine": f"checkpoint-{label}",
                "ingest": op,
                "updates": half,
                "seconds": round(seconds, 6),
                "latency_us": round(1e6 * seconds / max(half, 1), 2),
                "snapshot_bytes": info.file_bytes,
                "snapshot_raw_bytes": info.state_bytes,
            }
        )
    return save_s, restore_s, replay_s


def bench_cross_shard(database, events, batch_size, order, path):
    """4-shard snapshot restored at 2 shards and unsharded: exact both ways."""
    half = len(events) // 2
    query = retailer_query(CountSpec())
    source = create_engine(
        query, EngineConfig(shards=4, backend="serial"), order=order
    )
    try:
        source.initialize(database)
        source.apply_stream(iter(events[:half]), batch_size=batch_size)
        write_checkpoint(source, path)
        expected = source.result().copy()
    finally:
        source.close()
    for label, factory in (
        (
            "2 shards",
            lambda: create_engine(
                query, EngineConfig(shards=2, backend="serial"), order=order
            ),
        ),
        ("unsharded", lambda: FIVMEngine(query, order=order)),
    ):
        engine = factory()
        try:
            restore_checkpoint(engine, path)
            assert engine.result() == expected, (
                f"4-shard snapshot restored at {label} diverged"
            )
        finally:
            if isinstance(engine, ShardedEngine):
                engine.close()
    print("\n4-shard snapshot restores exactly at 2 shards and unsharded ✓")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, CI gate")
    parser.add_argument("--updates", type=int, default=20_000)
    parser.add_argument("--batch-size", type=int, default=500)
    parser.add_argument(
        "--backend",
        choices=("auto", "serial", "process"),
        default="serial",
        help="ShardedEngine backend for the sharded configuration",
    )
    parser.add_argument("--json", metavar="PATH", help="write measurements as JSON")
    args = parser.parse_args(argv)
    if args.smoke:
        args.updates = min(args.updates, 2000)

    config = SMOKE_CONFIG if args.smoke else CONFIG
    database = generate_retailer(config)
    order = retailer_variable_order()
    events = make_events(database, config, args.updates)
    query = retailer_query(CountSpec())

    print(
        f"# checkpoint benchmark (retailer, {'smoke' if args.smoke else 'full'} "
        f"mode, snapshot at {len(events) // 2} of {len(events)} updates)\n"
    )
    print(
        f"{'engine':>16} {'save ms':>9} {'restore ms':>12} {'replay ms':>11} "
        f"{'speedup':>9} {'disk B':>10} {'raw B':>10}"
    )
    records = []
    with tempfile.TemporaryDirectory(prefix="fivm-ckpt-") as tmp:
        bench_engine(
            "fivm",
            lambda: FIVMEngine(query, order=order),
            database,
            events,
            args.batch_size,
            os.path.join(tmp, "fivm.ckpt"),
            records,
        )
        bench_engine(
            "sharded-x2",
            lambda: create_engine(
                query, EngineConfig(shards=2, backend=args.backend), order=order
            ),
            database,
            events,
            args.batch_size,
            os.path.join(tmp, "sharded.ckpt"),
            records,
        )
        bench_cross_shard(
            database, events, args.batch_size, order, os.path.join(tmp, "cross.ckpt")
        )

    if args.json:
        artifact = {
            "benchmark": "checkpoint",
            "mode": "smoke" if args.smoke else "full",
            "dataset": "retailer",
            "cpu_count": os.cpu_count() or 1,
            "results": records,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2)
        print(f"\nwrote {len(records)} measurements to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
