"""Per-update latency of F-IVM's indexed delta propagation.

Persistent view indexes make F-IVM's per-update cost O(|delta| x
matches) probes instead of O(|sibling view|) scans. This benchmark
measures the latency-critical end of the spectrum — small batches —
where the batcher cannot amortize anything:

1. **Delta latency** — a Retailer single-tuple stream ingested through
   ``apply_stream`` at batch sizes 1/10/100/1000 (count ring: dict
   views, so every batch runs the compiled program's row mode). Reports
   per-update latency and updates/s; the CI smoke run never gates on
   timing.
2. **Mode crossover** — numeric COVAR at batch sizes around
   ``EngineStatistics.COLUMNAR_MIN_DELTA``, the compiled program's
   columnar mode against its row mode (each pinned by patching that
   constant for the run). This is the measurement the constant is set
   from; the two modes must agree.
3. **Cross-engine equivalence** — naive, first-order, per-aggregate and
   F-IVM consume the same stream; all final results must agree. This
   is asserted and is what CI gates on.

``--json PATH`` writes the measurements as a small JSON artifact
(updates/s per engine / ingest mode) that CI uploads to track the perf
trajectory across PRs.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_delta_latency.py --smoke
    PYTHONPATH=src python benchmarks/bench_delta_latency.py  # full scale
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from unittest import mock

import numpy as np

from repro.data import UpdateBatcher
from repro.datasets import (
    RetailerConfig,
    UpdateStream,
    continuous_covar_features,
    generate_retailer,
    retailer_query,
    retailer_row_factories,
    retailer_variable_order,
)
from repro.engine import (
    FIVMEngine,
    FirstOrderEngine,
    NaiveEngine,
    PerAggregateEngine,
)
from repro.engine.base import EngineStatistics
from repro.rings import CountSpec, CovarSpec

# Sibling views on the Inventory path (V_Item, V_Weather, V@zip) must be
# large enough that per-update scans dominate fixed Python overhead —
# that is the regime the paper's O(delta) claim is about.
CONFIG = RetailerConfig(
    locations=32, dates=90, items=900, inventory_rows=40_000, seed=101
)
SMOKE_CONFIG = RetailerConfig(
    locations=4, dates=6, items=20, inventory_rows=200, seed=101
)

BATCH_SIZES = (1, 10, 100, 1000)
CROSSOVER_SIZES = (8, 10, 12, 14, 16, 24, 32, 100, 1000)


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


def bench_delta_latency(database, config, order, total_updates, records):
    """Batch-size sweep on the count ring."""
    events = make_events(database, config, total_updates)
    query = retailer_query(CountSpec())
    print(f"## fivm per-update latency, {len(events)} updates (retailer stream)")
    print(
        f"{'batch':>6} {'seconds':>9} {'updates/s':>11} {'latency/upd':>12}"
    )
    results = []
    for batch_size in BATCH_SIZES:
        engine = FIVMEngine(query, order=order)
        engine.initialize(database)
        started = time.perf_counter()
        engine.apply_stream(iter(events), batch_size=batch_size)
        elapsed = time.perf_counter() - started
        results.append(engine.result())
        latency_us = 1e6 * elapsed / len(events)
        print(
            f"{batch_size:>6} {elapsed:>9.3f} {len(events) / elapsed:>11.0f} "
            f"{latency_us:>9.1f} µs"
        )
        records.append(
            {
                "engine": "fivm",
                "ingest": "stream",
                "batch_size": batch_size,
                "updates": len(events),
                "seconds": round(elapsed, 6),
                "updates_per_s": round(len(events) / elapsed, 1),
                "latency_us": round(latency_us, 2),
            }
        )
    assert all(result == results[0] for result in results[1:]), (
        "fivm results diverged across batch sizes"
    )


def bench_path_crossover(database, config, order, updates_per_cell, repeats):
    """Numeric COVAR, columnar vs row mode of the compiled program, µs/update.

    One engine per mode, both fed the same event chunks: per batch size
    a warm-up chunk, then a timed one; the table shows the minimum over
    ``repeats`` rounds. Only ``engine.apply_many`` is timed.
    """
    query = retailer_query(
        CovarSpec(continuous_covar_features(limit=12))
    )
    schemas = {n: query.schema_of(n).attributes for n in query.relation_names}
    warm = max(updates_per_cell // 4, max(CROSSOVER_SIZES))
    cell = warm + updates_per_cell
    events = make_events(
        database, config, cell * len(CROSSOVER_SIZES) * repeats, seed=17
    )
    pins = {"columnar": 1, "row": sys.maxsize}
    engines = {}
    for path in pins:
        engines[path] = FIVMEngine(query, order=order)
        engines[path].initialize(database)
    best = {}
    cursor = 0
    for _round in range(repeats):
        for size in CROSSOVER_SIZES:
            batcher = UpdateBatcher(schemas, batch_size=size)
            batches = []
            for event in events[cursor:cursor + cell]:
                batch = batcher.add(*event)
                if batch:
                    batches.append(batch)
            cursor += cell
            split = warm // size
            for path, pin in pins.items():
                engine = engines[path]
                with mock.patch.object(EngineStatistics, "COLUMNAR_MIN_DELTA", pin):
                    for batch in batches[:split]:
                        engine.apply_many(batch)
                    started = time.perf_counter()
                    for batch in batches[split:]:
                        engine.apply_many(batch)
                    elapsed = time.perf_counter() - started
                latency_us = 1e6 * elapsed / (size * (len(batches) - split))
                best[size, path] = min(best.get((size, path), latency_us), latency_us)
    assert engines["row"].stats.fused_batches == 0
    assert engines["columnar"].stats.probe_steps == 0
    assert engines["columnar"].result().close_to(engines["row"].result(), 1e-8), (
        "columnar and row modes diverged"
    )
    print(
        f"\n## mode crossover, numeric COVAR (12 features), min of {repeats} "
        f"x {updates_per_cell} updates, µs/update"
    )
    print(f"{'batch':>6} {'columnar':>9} {'row':>8}")
    for size in CROSSOVER_SIZES:
        print(
            f"{size:>6} {best[size, 'columnar']:>9.1f} {best[size, 'row']:>8.1f}"
        )
    print(
        f"columnar and row modes agree ✓ "
        f"(COLUMNAR_MIN_DELTA = {EngineStatistics.COLUMNAR_MIN_DELTA})"
    )


def bench_equivalence(database, config, order, total_updates, batch_size, records):
    """All four engines agree on one stream."""
    events = make_events(database, config, total_updates, seed=11)
    count_query = retailer_query(CountSpec())
    features = continuous_covar_features(limit=2)
    covar_query = retailer_query(CovarSpec(features))
    engines = [
        ("naive", lambda: NaiveEngine(count_query, order=order)),
        ("first-order", lambda: FirstOrderEngine(count_query, order=order)),
        ("fivm", lambda: FIVMEngine(count_query, order=order)),
        (
            "per-aggregate",
            lambda: PerAggregateEngine(covar_query, features, order=order),
        ),
    ]
    print(f"\n## cross-engine equivalence, {len(events)} updates")
    results = {}
    instances = {}
    for label, factory in engines:
        engine = factory()
        engine.initialize(database)
        started = time.perf_counter()
        engine.apply_stream(iter(events), batch_size=batch_size)
        elapsed = time.perf_counter() - started
        instances[label] = engine
        results[label] = engine.result()
        print(
            f"{label:>14}: {len(events) / elapsed:>9.0f} updates/s "
            f"({len(results[label])} result keys)"
        )
        records.append(
            {
                "engine": label,
                "ingest": "stream",
                "batch_size": batch_size,
                "updates": len(events),
                "seconds": round(elapsed, 6),
                "updates_per_s": round(len(events) / elapsed, 1),
                "latency_us": round(1e6 * elapsed / len(events), 2),
            }
        )
    # per-aggregate's result() is its count sub-view, so every engine's
    # final result is comparable against the count oracle.
    reference = results["naive"]
    for label, result in results.items():
        assert result.close_to(reference, 1e-6), (
            f"{label}: final result diverged from naive"
        )
    # Spot-check the per-aggregate COVAR assembly is finite and symmetric
    # (its sub-engines run the same maintenance paths).
    count, sums, quad = instances["per-aggregate"].covar_matrix()
    assert np.isfinite(count) and np.isfinite(sums).all()
    assert np.allclose(quad, quad.T), "per-aggregate COVAR not symmetric"
    print("all engines agree ✓")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, CI gate")
    parser.add_argument("--updates", type=int, default=2000)
    parser.add_argument("--equivalence-updates", type=int, default=400)
    parser.add_argument("--equivalence-batch", type=int, default=64)
    parser.add_argument("--json", metavar="PATH", help="write measurements as JSON")
    args = parser.parse_args(argv)
    if args.smoke:
        args.updates = min(args.updates, 200)
        args.equivalence_updates = min(args.equivalence_updates, 120)

    config = SMOKE_CONFIG if args.smoke else CONFIG
    database = generate_retailer(config)
    order = retailer_variable_order()
    print(
        f"# delta-latency benchmark (retailer, "
        f"{'smoke' if args.smoke else 'full'} mode)\n"
    )
    records = []
    bench_delta_latency(database, config, order, args.updates, records)
    bench_path_crossover(
        database, config, order,
        updates_per_cell=1000 if args.smoke else 4000,
        repeats=1 if args.smoke else 5,
    )
    bench_equivalence(
        database,
        config,
        order,
        args.equivalence_updates,
        args.equivalence_batch,
        records,
    )
    if args.json:
        artifact = {
            "benchmark": "delta_latency",
            "mode": "smoke" if args.smoke else "full",
            "dataset": "retailer",
            "results": records,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2)
        print(f"\nwrote {len(records)} measurements to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
