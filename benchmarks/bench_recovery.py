"""Supervised recovery: MTTR, throughput under faults, supervision cost.

Three claims are measured on a Retailer update stream over a 2-shard
supervised engine, on both ways of driving the shard workers this host
can run (in-process, labelled ``none``; forked over pipes, ``pipe``):

1. **Supervision overhead** — the same fault-free stream ingested with
   and without ``EngineConfig(supervise=True)``. The replay log costs
   one shallow dict copy per batch, so supervised ingest must stay
   within 5% of unsupervised (gated in full mode; smoke and starved CI
   containers warn — timing noise on tiny streams dwarfs the effect).
2. **Throughput under faults** — a seeded kill (deterministic placement
   from :meth:`FaultInjector.seeded_kills`) lands mid-stream; the run
   must *complete*, end **bit-identical** to the unsharded reference
   (always asserted, every mode), and its end-to-end latency is
   reported for the perf gate under ``fault=kill``.
3. **Recovery latency (MTTR)** — the supervisor's wall-clock for the
   kill's recovery round: detect, respawn from the baseline, replay the
   post-baseline log, resume.

``--json PATH`` writes records in the ``check_perf_regression.py``
format; records carry ``fault`` and ``supervise`` keys so faulted and
clean configurations gate independently.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_recovery.py --smoke
    PYTHONPATH=src python benchmarks/bench_recovery.py  # full scale
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
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
from repro.engine.sharded import available_backends
from repro.rings import CountSpec
from repro.testing import FaultInjector, clear_injector, install_injector

CONFIG = RetailerConfig(
    locations=32, dates=90, items=900, inventory_rows=40_000, seed=101
)
SMOKE_CONFIG = RetailerConfig(
    locations=8, dates=10, items=40, inventory_rows=600, seed=101
)

SHARDS = 2
#: Allowed fault-free slowdown of supervised over unsupervised ingest.
OVERHEAD_LIMIT = 0.05
#: Seed for deterministic kill placement (same seed -> same fault plan).
KILL_SEED = 17


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


def topologies():
    """(backend, transport-label) pairs this host can run."""
    tops = [("serial", "none")]
    if "process" in available_backends():
        tops.append(("process", "pipe"))
    return tops


def run_ingest(query, order, database, events, batch_size, backend,
               transport, supervise, injector=None):
    """One full ingest; returns (result, elapsed seconds, health)."""
    if injector is not None:
        install_injector(injector)
    config = EngineConfig(shards=SHARDS, backend=backend, supervise=supervise)
    engine = ShardedEngine(query, order=order, config=config)
    assert engine.transport_name == transport
    try:
        engine.initialize(database)
        started = time.perf_counter()
        engine.apply_stream(iter(events), batch_size=batch_size)
        engine.result()  # the barrier for in-flight worker maintenance
        elapsed = time.perf_counter() - started
        result = engine.result()
        health = engine.health()
    finally:
        engine.close()
        clear_injector()
    return result, elapsed, health


def bench_overhead(query, order, database, events, expected, args, records):
    """Fault-free supervised vs unsupervised; returns worst overhead."""
    print(
        f"## supervision overhead, {len(events)} updates "
        f"(retailer stream, batch size {args.batch_size}, "
        f"{SHARDS} shards)"
    )
    print(
        f"{'transport':>10} {'supervise':>10} {'seconds':>9} "
        f"{'updates/s':>11} {'overhead':>9}"
    )
    worst = None
    for backend, transport in topologies():
        seconds = {}
        for supervise in (False, True):
            result, elapsed, _health = run_ingest(
                query, order, database, events, args.batch_size,
                backend, transport, supervise,
            )
            assert result == expected, (
                f"{transport} supervise={supervise} diverged from the "
                "unsharded engine"
            )
            seconds[supervise] = elapsed
            overhead = (
                f"{100 * (elapsed / seconds[False] - 1):>+7.1f}%"
                if supervise else ""
            )
            print(
                f"{transport:>10} {str(supervise):>10} {elapsed:>9.3f} "
                f"{len(events) / elapsed:>11.0f} {overhead:>9}"
            )
            records.append(
                {
                    "engine": "fivm-sharded",
                    "ingest": "stream",
                    "batch_size": args.batch_size,
                    "shards": SHARDS,
                    "transport": transport,
                    "supervise": supervise,
                    "fault": "none",
                    "updates": len(events),
                    "seconds": round(elapsed, 6),
                    "updates_per_s": round(len(events) / elapsed, 1),
                    "latency_us": round(1e6 * elapsed / len(events), 2),
                }
            )
        ratio = seconds[True] / seconds[False] - 1
        worst = ratio if worst is None else max(worst, ratio)
    print("supervised and unsupervised results identical ✓")
    return worst


def bench_recovery(query, order, database, events, expected, args, records):
    """Seeded kill mid-stream: completion, equivalence, MTTR."""
    print(
        f"\n## recovery under a seeded mid-stream kill "
        f"(seed {KILL_SEED}, site worker.apply)"
    )
    print(
        f"{'transport':>10} {'seconds':>9} {'updates/s':>11} "
        f"{'recoveries':>10} {'MTTR':>9}"
    )
    for backend, transport in topologies():
        injector = FaultInjector.seeded_kills(
            KILL_SEED, "worker.apply", max_at=5, shards=SHARDS
        )
        result, elapsed, health = run_ingest(
            query, order, database, events, args.batch_size,
            backend, transport, supervise=True, injector=injector,
        )
        assert result == expected, (
            f"recovered {transport} run diverged from the unsharded "
            "engine — replay is not exact"
        )
        assert health["recoveries"] >= 1, (
            f"the seeded kill never fired on {transport} — "
            "the benchmark measured nothing"
        )
        orphans = multiprocessing.active_children()
        assert not orphans, f"killed-worker run left workers behind: {orphans}"
        mttr_ms = 1e3 * (health["last_recovery_s"] or 0.0)
        print(
            f"{transport:>10} {elapsed:>9.3f} "
            f"{len(events) / elapsed:>11.0f} "
            f"{health['recoveries']:>10} {mttr_ms:>6.1f} ms"
        )
        records.append(
            {
                "engine": "fivm-sharded",
                "ingest": "stream",
                "batch_size": args.batch_size,
                "shards": SHARDS,
                "transport": transport,
                "supervise": True,
                "fault": "kill",
                "updates": len(events),
                "seconds": round(elapsed, 6),
                "updates_per_s": round(len(events) / elapsed, 1),
                "latency_us": round(1e6 * elapsed / len(events), 2),
                "recoveries": health["recoveries"],
                "recovery_ms": round(mttr_ms, 2),
            }
        )
    print("killed-and-recovered results identical to the unsharded engine ✓")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, CI gate")
    parser.add_argument("--updates", type=int, default=20_000)
    parser.add_argument("--batch-size", type=int, default=500)
    parser.add_argument(
        "--no-gate",
        action="store_true",
        help="never fail on the overhead target (always asserted: equivalence)",
    )
    parser.add_argument("--json", metavar="PATH", help="write measurements as JSON")
    args = parser.parse_args(argv)
    if args.smoke:
        args.updates = min(args.updates, 2000)

    config = SMOKE_CONFIG if args.smoke else CONFIG
    database = generate_retailer(config)
    order = retailer_variable_order()
    query = retailer_query(CountSpec())
    events = make_events(database, config, args.updates)
    reference = FIVMEngine(retailer_query(CountSpec()), order=order)
    reference.initialize(database)
    reference.apply_stream(iter(events), batch_size=args.batch_size)
    expected = reference.result()
    print(
        f"# recovery benchmark (retailer, "
        f"{'smoke' if args.smoke else 'full'} mode)\n"
    )
    records = []
    overhead = bench_overhead(
        query, order, database, events, expected, args, records
    )
    bench_recovery(query, order, database, events, expected, args, records)

    if overhead is not None and overhead > OVERHEAD_LIMIT:
        message = (
            f"fault-free supervised ingest is {100 * overhead:.1f}% slower "
            f"than unsupervised (limit {100 * OVERHEAD_LIMIT:.0f}%)"
        )
        if not args.smoke and not args.no_gate:
            print(f"\nFAIL: {message}", file=sys.stderr)
            return 1
        print(f"\nWARNING: {message} — not gating", file=sys.stderr)

    if args.json:
        artifact = {
            "benchmark": "recovery",
            "mode": "smoke" if args.smoke else "full",
            "dataset": "retailer",
            "cpu_count": os.cpu_count() or 1,
            "supervision_overhead": (
                round(overhead, 4) if overhead is not None else None
            ),
            "results": records,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2)
        print(f"\nwrote {len(records)} measurements to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
