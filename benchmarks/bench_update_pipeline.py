"""Batched vs. tuple-at-a-time update ingestion, across all four engines.

Two sections:

1. **F-IVM throughput** — a Retailer tuple stream pushed through
   ``FIVMEngine`` one tuple at a time vs. re-coalesced into batches by the
   :class:`~repro.data.batcher.UpdateBatcher` (``apply_stream``). Batching
   turns N leaf-to-root traversals into N/batch_size, so the batched run
   must be at least ~2x faster at batch size 1000.
2. **Cross-engine equivalence** — naive, first-order, per-aggregate and
   F-IVM each consume the same stream both ways; the final views must be
   identical (this is asserted, and is what the CI smoke job gates on).

Run standalone (CI smoke: crash/assert fails the job, timing does not)::

    PYTHONPATH=src python benchmarks/bench_update_pipeline.py --smoke
    PYTHONPATH=src python benchmarks/bench_update_pipeline.py  # full 10k stream
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.data import single
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
from repro.rings import CountSpec, CovarSpec

CONFIG = RetailerConfig(locations=8, dates=15, items=60, inventory_rows=1200, seed=101)
SMOKE_CONFIG = RetailerConfig(locations=4, dates=6, items=20, inventory_rows=200, seed=101)


def make_events(database, config, total_updates, seed=7):
    """Materialize a reproducible single-tuple event stream."""
    stream = UpdateStream(
        database,
        retailer_row_factories(config, database),
        targets=("Inventory",),
        batch_size=max(1, total_updates // 10),
        insert_ratio=0.8,
        seed=seed,
    )
    return list(stream.tuples(total_updates))


def apply_tuple_at_a_time(engine, events):
    schemas = {
        name: engine.query.schema_of(name).attributes
        for name in engine.query.relation_names
    }
    for name, row, multiplicity in events:
        engine.apply(name, single(schemas[name], row, multiplicity))


def bench_fivm_throughput(database, config, order, total_updates, batch_size):
    events = make_events(database, config, total_updates)
    query = retailer_query(CountSpec())

    tuple_engine = FIVMEngine(query, order=order)
    tuple_engine.initialize(database)
    started = time.perf_counter()
    apply_tuple_at_a_time(tuple_engine, events)
    tuple_s = time.perf_counter() - started

    batched_engine = FIVMEngine(query, order=order)
    batched_engine.initialize(database)
    started = time.perf_counter()
    batched_engine.apply_stream(iter(events), batch_size=batch_size)
    batched_s = time.perf_counter() - started

    assert batched_engine.result() == tuple_engine.result(), (
        "fivm: batched ingestion diverged from tuple-at-a-time"
    )
    speedup = tuple_s / batched_s if batched_s else float("inf")
    print(f"## fivm ingestion, {len(events)} updates, batch size {batch_size}")
    print(f"{'mode':>18} {'seconds':>9} {'updates/s':>11}")
    print(f"{'tuple-at-a-time':>18} {tuple_s:>9.3f} {len(events) / tuple_s:>11.0f}")
    print(f"{'batched':>18} {batched_s:>9.3f} {len(events) / batched_s:>11.0f}")
    print(f"batched speedup: {speedup:.1f}x")
    return speedup


def bench_equivalence(database, config, order, total_updates, batch_size):
    """All four engines: batched and tuple-at-a-time final views agree."""
    events = make_events(database, config, total_updates, seed=11)
    count_query = retailer_query(CountSpec())
    features = continuous_covar_features(limit=2)
    covar_query = retailer_query(CovarSpec(features, backend="numeric"))

    def peragg():
        return PerAggregateEngine(covar_query, features, order=order)

    engines = [
        ("naive", lambda: NaiveEngine(count_query, order=order)),
        ("first-order", lambda: FirstOrderEngine(count_query, order=order)),
        ("fivm", lambda: FIVMEngine(count_query, order=order)),
        ("per-aggregate", peragg),
    ]
    print(f"\n## batched vs tuple-at-a-time equivalence, {len(events)} updates")
    for label, factory in engines:
        tuple_engine = factory()
        tuple_engine.initialize(database)
        apply_tuple_at_a_time(tuple_engine, events)
        batched_engine = factory()
        batched_engine.initialize(database)
        batched_engine.apply_stream(iter(events), batch_size=batch_size)
        expected, actual = tuple_engine.result(), batched_engine.result()
        assert actual.close_to(expected), (
            f"{label}: batched ingestion diverged from tuple-at-a-time"
        )
        if label == "per-aggregate":
            c_t, s_t, q_t = tuple_engine.covar_matrix()
            c_b, s_b, q_b = batched_engine.covar_matrix()
            assert (
                np.isclose(c_t, c_b)
                and np.allclose(s_t, s_b)
                and np.allclose(q_t, q_b)
            ), "per-aggregate: covar matrices diverged"
        print(f"{label:>14}: identical final views ✓ ({len(actual)} result keys)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, CI gate")
    parser.add_argument("--updates", type=int, default=10_000)
    parser.add_argument("--batch-size", type=int, default=1000)
    parser.add_argument("--equivalence-updates", type=int, default=600)
    args = parser.parse_args(argv)
    if args.smoke:
        args.updates = min(args.updates, 300)
        args.batch_size = min(args.batch_size, 100)
        args.equivalence_updates = min(args.equivalence_updates, 150)

    config = SMOKE_CONFIG if args.smoke else CONFIG
    database = generate_retailer(config)
    order = retailer_variable_order()
    print(
        f"# update-pipeline benchmark (retailer, "
        f"{'smoke' if args.smoke else 'full'} mode)\n"
    )
    speedup = bench_fivm_throughput(
        database, config, order, args.updates, args.batch_size
    )
    bench_equivalence(
        database, config, order, args.equivalence_updates, args.batch_size
    )
    if not args.smoke and speedup < 2.0:
        print(
            f"\nWARNING: batched fivm speedup {speedup:.1f}x below the 2x target",
            file=sys.stderr,
        )
    print("\nall ingestion modes agree ✓")
    return 0


if __name__ == "__main__":
    sys.exit(main())
