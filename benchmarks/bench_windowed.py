"""Windowed ingest latency vs full-history, and incremental-checkpoint costs.

Two claims behind time-aware maintenance:

1. **Windows are (almost) free.** A sliding window compiles to delayed
   retractions through the same delta path as inserts
   (:class:`~repro.data.windows.WindowedStream`), so windowed ingest pays
   only for the extra retraction deltas — no new maintenance machinery.
   Measured as per-*source*-update latency for full-history vs tumbling
   vs sliding ingest on the count ring, plus the numeric covar ring with
   and without exponential decay (the engine's leaf boost,
   :mod:`repro.rings.decay`).
   Windowed equivalence is asserted against a fresh batch evaluation
   over exactly the live window.

2. **Incremental checkpoints keep long-running windowed pipelines cheap
   to persist.** A chain of one full snapshot plus three increments
   (``write_checkpoint(..., base=prev)``) must cost measurably fewer
   bytes than four full snapshots, and restoring the chain head must
   cost about the same as restoring a single full snapshot — both are
   asserted at smoke scale, and both land in the perf-gate artifact.

``--json PATH`` writes records in the perf-gate format
(``benchmarks/check_perf_regression.py``); windowed configurations carry
a ``window`` config key.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_windowed.py --smoke
    PYTHONPATH=src python benchmarks/bench_windowed.py  # full scale
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

from repro.checkpoint import restore_checkpoint, write_checkpoint
from repro.config import EngineConfig
from repro.data import WindowSpec, WindowedStream, live_window_events
from repro.datasets import (
    RetailerConfig,
    UpdateStream,
    continuous_covar_features,
    generate_retailer,
    retailer_query,
    retailer_row_factories,
    retailer_variable_order,
)
from repro.engine import FIVMEngine
from repro.rings import CountSpec, CovarSpec

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


def _run(engine_config, query, database, events, batch_size, window=None):
    """Ingest ``events`` (optionally windowed) once; returns (engine, s)."""
    engine = FIVMEngine(
        query, order=retailer_variable_order(), config=engine_config
    )
    engine.initialize(database)
    stream = WindowedStream(window, iter(events)) if window else iter(events)
    started = time.perf_counter()
    engine.apply_stream(stream, batch_size=batch_size)
    seconds = time.perf_counter() - started
    return engine, seconds


def bench_ingest(database, events, batch_size, records) -> None:
    """Per-source-update ingest latency: full-history vs windowed vs decayed."""
    count_query = retailer_query(CountSpec())
    covar_query = retailer_query(
        CovarSpec(continuous_covar_features(limit=3))
    )
    size = max(len(events) // 4, 4)
    sliding = WindowSpec(size, max(size // 2, 1))
    tumbling = WindowSpec(size, size)
    runs = [
        ("count", count_query, EngineConfig(), None),
        ("count", count_query, EngineConfig(), tumbling),
        ("count", count_query, EngineConfig(), sliding),
        ("covar", covar_query, EngineConfig(), None),
        ("covar", covar_query, EngineConfig(decay="0.995/100"), None),
    ]
    print(
        f"{'ring':>6} {'window':>16} {'decay':>10} {'seconds':>9} "
        f"{'us/update':>10}"
    )
    for ring, query, engine_config, window in runs:
        engine, seconds = _run(
            engine_config, query, database, events, batch_size, window=window
        )
        if window is not None:
            _assert_window_equivalence(
                engine, query, database, events, window, batch_size
            )
        window_label = window.describe() if window else "none"
        decay_label = engine_config.decay or "none"
        latency_us = 1e6 * seconds / len(events)
        print(
            f"{ring:>6} {window_label:>16} {decay_label:>10} {seconds:>9.3f} "
            f"{latency_us:>10.2f}"
        )
        records.append(
            {
                "engine": f"windowed-{ring}",
                "ingest": "stream",
                "window": window_label,
                "decay": decay_label,
                "updates": len(events),
                "seconds": round(seconds, 6),
                "latency_us": round(latency_us, 2),
            }
        )
    print("windowed results equal batch evaluation over the live window ✓")


def _assert_window_equivalence(
    engine, query, database, events, window, batch_size
) -> None:
    """Windowed ingest == fresh batch evaluation over the live events."""
    timed = [(name, row, step, i) for i, (name, row, step) in enumerate(events)]
    last = len(events) - 1
    live = live_window_events(
        timed, window, window.boundary(last), upto=last
    )
    reference = FIVMEngine(query, order=retailer_variable_order())
    reference.initialize(database)
    reference.apply_stream(iter(live), batch_size=batch_size)
    assert engine.result() == reference.result(), (
        f"windowed ingest diverged from live-window batch evaluation "
        f"({window.describe()})"
    )


def _timed_restore(factory, path, repeats=3) -> float:
    """Best-of-N restore seconds into a fresh engine (noise floor)."""
    best = float("inf")
    for _ in range(repeats):
        engine = factory()
        started = time.perf_counter()
        restore_checkpoint(engine, path)
        best = min(best, time.perf_counter() - started)
    return best


def bench_checkpoints(database, events, batch_size, records) -> None:
    """Four full snapshots vs full + 3 increments: bytes and restore time."""
    query = retailer_query(CountSpec())
    size = max(len(events) // 4, 4)
    window = WindowSpec(size, max(size // 2, 1))
    # Pre-compile the windowed stream: checkpoints land between event
    # quarters, the way a long-running windowed pipeline would take them.
    windowed = list(WindowedStream(window, iter(events)))
    quarters = [
        windowed[i * len(windowed) // 4: (i + 1) * len(windowed) // 4]
        for i in range(4)
    ]

    def fresh():
        engine = FIVMEngine(query, order=retailer_variable_order())
        engine.initialize(database)
        return engine

    with tempfile.TemporaryDirectory(prefix="fivm-windowed-") as tmp:
        # Full snapshots after every quarter.
        engine = fresh()
        full_paths = []
        full_save_s = 0.0
        for i, quarter in enumerate(quarters):
            engine.apply_stream(iter(quarter), batch_size=batch_size)
            path = os.path.join(tmp, f"full{i}.ckpt")
            started = time.perf_counter()
            write_checkpoint(engine, path)
            full_save_s += time.perf_counter() - started
            full_paths.append(path)
        full_bytes = sum(os.path.getsize(path) for path in full_paths)
        expected = engine.result().copy()
        full_restore_s = _timed_restore(fresh, full_paths[-1])

        # The same run persisted as a chain: full + 3 increments.
        engine = fresh()
        prev = None
        chain_paths = []
        chain_save_s = 0.0
        for i, quarter in enumerate(quarters):
            engine.apply_stream(iter(quarter), batch_size=batch_size)
            path = os.path.join(
                tmp, "chain.ckpt" if i == 0 else f"chain.ckpt.inc{i}"
            )
            state = engine.export_state()
            started = time.perf_counter()
            info = write_checkpoint(
                engine, path, base=prev, state=state
            )
            chain_save_s += time.perf_counter() - started
            prev = (info, state)
            chain_paths.append(path)
        chain_bytes = sum(os.path.getsize(path) for path in chain_paths)
        chain_restore_s = _timed_restore(fresh, chain_paths[-1])

        restored = fresh()
        restore_checkpoint(restored, chain_paths[-1])
        assert restored.result() == expected, (
            "chain restore diverged from the uninterrupted windowed run"
        )

    print(
        f"\n{'mode':>8} {'save ms':>9} {'restore ms':>12} {'bytes':>10}"
    )
    for mode, save_s, restore_s, total_bytes in (
        ("full x4", full_save_s, full_restore_s, full_bytes),
        ("chain", chain_save_s, chain_restore_s, chain_bytes),
    ):
        print(
            f"{mode:>8} {1e3 * save_s:>9.1f} {1e3 * restore_s:>12.1f} "
            f"{total_bytes:>10}"
        )
        records.append(
            {
                "engine": "checkpoint-windowed",
                "ingest": f"restore-{'chain' if mode == 'chain' else 'full'}",
                "window": window.describe(),
                "updates": len(events),
                "seconds": round(restore_s, 6),
                "latency_us": round(1e6 * restore_s / len(events), 2),
                "snapshot_bytes": total_bytes,
            }
        )
    assert chain_bytes < full_bytes, (
        f"incremental chain ({chain_bytes} B) should cost fewer bytes than "
        f"repeated full snapshots ({full_bytes} B)"
    )
    # Chain restore reads one full file plus three small deltas, so it
    # should land in the same ballpark as a single full restore; the 1.5x
    # headroom absorbs timer noise at smoke scale (the perf gate tracks
    # the absolute latency over time).
    assert chain_restore_s <= 1.5 * full_restore_s + 0.01, (
        f"chain restore ({1e3 * chain_restore_s:.1f} ms) regressed far "
        f"beyond a full restore ({1e3 * full_restore_s:.1f} ms)"
    )
    print(
        f"chain bytes {chain_bytes} < repeated fulls {full_bytes} "
        f"({full_bytes / chain_bytes:.1f}x smaller) ✓"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, CI gate")
    parser.add_argument("--updates", type=int, default=20_000)
    parser.add_argument("--batch-size", type=int, default=500)
    parser.add_argument("--json", metavar="PATH", help="write measurements as JSON")
    args = parser.parse_args(argv)
    if args.smoke:
        args.updates = min(args.updates, 2000)

    config = SMOKE_CONFIG if args.smoke else CONFIG
    database = generate_retailer(config)
    events = make_events(database, config, args.updates)

    print(
        f"# windowed maintenance benchmark (retailer, "
        f"{'smoke' if args.smoke else 'full'} mode, {len(events)} updates)\n"
    )
    records = []
    bench_ingest(database, events, args.batch_size, records)
    bench_checkpoints(database, events, args.batch_size, records)

    if args.json:
        artifact = {
            "benchmark": "windowed",
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
