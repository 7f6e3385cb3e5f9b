"""Command-line interface: the demo's tabs from a terminal.

The original system is driven through a web UI (Section 3); this CLI is
its scriptable equivalent:

- ``repro info``    — the Maintenance Strategy tab: view tree + M3 code;
- ``repro run``     — Model Selection / Regression / Chow-Liu over bulks
  of updates on a chosen dataset;
- ``repro bench``   — a one-command engine comparison;
- ``repro checkpoint`` — save/restore engine state mid-stream
  (``save``/``load``/``info``), including across shard counts;
- ``repro serve``   — the demo's web serving loop: an HTTP endpoint
  answering model reads from epoch snapshots while a writer thread
  ingests a seeded update stream.

Usage (installed entry point or module)::

    python -m repro info --dataset retailer --payload covar
    python -m repro run --dataset retailer --app regression --bulks 3
    python -m repro run --dataset favorita --app model-selection
    python -m repro bench --dataset retailer --batches 5
    python -m repro checkpoint save ckpt.fivm --updates 2000 --engine-shards 4
    python -m repro checkpoint load ckpt.fivm --engine-shards 2 --verify
    python -m repro serve --dataset toy --payload covar --port 8321
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import itertools
import signal
import sys
import time
from typing import List, Optional

from repro.checkpoint import (
    remove_stale_increments,
    checkpoint_sink,
    read_checkpoint_info,
    resolve_chain_head,
    restore_checkpoint,
    write_checkpoint,
)

from repro.apps import (
    ChowLiuApp,
    MaintenanceStrategyApp,
    ModelSelectionApp,
    RegressionApp,
)
from repro.config import (
    EngineConfig,
    add_engine_cli_args,
    create_engine,
    engine_config_from_args,
)
from repro.data import WindowedStream, single, tuple_events
from repro.datasets import UpdateStream
from repro.engine import FIVMEngine, FirstOrderEngine, NaiveEngine, ShardedEngine
from repro.errors import FIVMError
from repro.query.query import Query
from repro.rings import CovarSpec, result_drift
from repro.serving import (
    IngestThread,
    ServerThread,
    ServingApp,
    build_serving_scenario,
)

__all__ = ["main", "build_parser"]


@contextlib.contextmanager
def _graceful_sigterm():
    """Route SIGTERM through the KeyboardInterrupt unwind path.

    The long-running commands (serve, bench, checkpoint save) already
    shut down cleanly on Ctrl-C — engines closed, shard workers
    stopped, final checkpoints flushed. `kill` and container stops
    send SIGTERM, which would otherwise bypass all of that; translating
    it to KeyboardInterrupt makes both paths identical. Signal handlers
    can only be installed from the main thread; elsewhere (tests
    driving main() from a worker thread) this is a no-op.
    """

    def _interrupt(signum, frame):
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, _interrupt)
    except ValueError:  # pragma: no cover - not the main thread
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _scenario(args, payload: str):
    """The dataset, query and update stream recipe ``repro serve`` uses."""
    return build_serving_scenario(args.dataset, payload, scale=args.scale, seed=args.seed)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def cmd_info(args) -> int:
    scenario = _scenario(args, args.payload)
    app = MaintenanceStrategyApp(scenario.query, order=scenario.order)
    print(f"# dataset: {args.dataset}   payload: {args.payload}")
    print("\n## View tree\n")
    print(app.render_tree())
    print("\n## M3 code\n")
    print(app.render_m3())
    if args.dot:
        print("\n## DOT\n")
        print(app.render_dot())
    return 0


def cmd_run(args) -> int:
    scenario = _scenario(args, "covar" if args.app == "regression" else "mi")
    db, schemas, order = scenario.database, scenario.query.relations, scenario.order
    features = scenario.query.spec.features
    if args.app == "model-selection":
        app = ModelSelectionApp(
            db, schemas, features, label=scenario.mi_label,
            threshold=args.threshold, order=order,
        )
        render = app.render
    elif args.app == "regression":
        app = RegressionApp(db, schemas, features, scenario.regression_label, order=order)
        app.refresh_model()

        def render():
            app.refresh_model()
            return app.render()

    else:
        app = ChowLiuApp(db, schemas, features, order=order)

        def render():
            return app.tree().render()

    print(f"# {args.app} on {args.dataset}\n")
    print(render())
    stream = UpdateStream(
        app.session.database,
        scenario.factories,
        targets=scenario.targets,
        batch_size=args.batch_size,
        insert_ratio=args.insert_ratio,
        seed=args.seed,
    )
    for bulk in range(1, args.bulks + 1):
        report = app.process_bulk(stream.bulk(args.bulk_updates))
        print(
            f"\n--- bulk {bulk}: {report.updates} updates, "
            f"{report.throughput:.0f} updates/s ---\n"
        )
        print(render())
    return 0


def _bench_query(args, config):
    """Scenario and query for the engine comparison: the count ring by
    default, the numeric covar ring over the continuous regression
    features when decay is on — decay needs float-weighted payloads,
    exact count rings refuse it. Either ring runs F-IVM's compiled
    programs, so ``--profile`` times both: count views in row mode,
    covar batches of ``COLUMNAR_MIN_DELTA`` keys or more columnar."""
    if config.decay is None:
        scenario = _scenario(args, "count")
        return scenario, scenario.query, "count ring"
    scenario = _scenario(args, "covar")
    query = scenario.query
    continuous = tuple(f for f in query.spec.features if not f.is_categorical)
    return (
        scenario,
        Query(query.name, query.relations, spec=CovarSpec(continuous)),
        "numeric covar ring",
    )


def cmd_bench(args) -> int:
    try:
        with _graceful_sigterm():
            return _run_bench(args)
    except KeyboardInterrupt:
        # The per-contender finally already closed the live engine (and
        # its shard workers) on the way out.
        print("\ninterrupted; engines closed", file=sys.stderr)
        return 130


def _run_bench(args) -> int:
    config = engine_config_from_args(args)
    scenario, query, ring_label = _bench_query(args, config)
    db, order = scenario.database, scenario.order
    window_spec = config.window_spec()
    if (window_spec is not None or config.decay is not None) and args.ingest != "stream":
        # Windows fire retractions on the event clock and decay ticks on
        # it; pre-built batches have no clock.
        print("# note: window/decay ride the event stream; using --ingest stream")
        args.ingest = "stream"
    stream = scenario.stream(batch_size=args.batch_size, insert_ratio=args.insert_ratio)
    batches = list(stream.batches(args.batches))
    n_updates = sum(
        sum(abs(m) for m in delta.data.values()) for _n, delta in batches
    )
    if args.ingest == "tuple":
        # Tuple-at-a-time baseline: one apply() per single ±1 update.
        schemas = {name: delta.schema for name, delta in batches}
        updates = [
            (name, single(schemas[name], row, step))
            for name, row, step in tuple_events(batches)
        ]
    else:
        updates = batches
    print(
        f"# engine comparison on {args.dataset} "
        f"({ring_label}, ingest={args.ingest}, batch size {args.batch_size}"
        + (f", shards={config.shards}" if config.shards > 1 else "")
        + (f", window={config.window}" if config.window else "")
        + (f", decay={config.decay}" if config.decay else "")
        + ")"
    )
    print(f"{'engine':>14} {'init (s)':>9} {'maintain (s)':>13} {'updates/s':>11}")

    def fivm():
        engine = FIVMEngine(query, order=order, config=config.replace(shards=1))
        engine.profile_stages = args.profile
        return engine

    contenders = [(FIVMEngine.strategy, fivm)]
    if config.decay is None:
        # First-order/naive engines take no EngineConfig, so they cannot
        # decay — windowed streams are fine (retractions are plain deltas).
        contenders += [
            (
                FirstOrderEngine.strategy,
                lambda: FirstOrderEngine(query, order=order),
            ),
            (
                NaiveEngine.strategy,
                lambda: NaiveEngine(query, order=order),
            ),
        ]
    if config.shards > 1:
        contenders.insert(
            0,
            (
                f"fivm x{config.shards}",
                lambda: ShardedEngine(
                    query, order=order, config=config
                ),
            ),
        )
    results = []
    profiled = None
    for label, factory in contenders:
        engine = factory()
        try:
            started = time.perf_counter()
            engine.initialize(db)
            init_s = time.perf_counter() - started
            started = time.perf_counter()
            if args.ingest == "stream":
                # Decompose to single-tuple events; the engine's
                # UpdateBatcher coalesces them back into --batch-size
                # batches. A fresh WindowedStream per engine: its
                # retraction queue is stateful.
                events = tuple_events(batches)
                if window_spec is not None:
                    events = WindowedStream(window_spec, events)
                engine.apply_stream(events, batch_size=args.batch_size)
            else:
                engine.apply_batch(updates)
            # result() before stopping the clock: on the sharded process
            # backend applies are fire-and-forget, so this is the barrier
            # that waits for in-flight worker maintenance (trivial for
            # the in-process engines).
            results.append(engine.result())
            seconds = time.perf_counter() - started
            if getattr(engine, "profile_stages", False):
                profiled = engine.stats
        finally:
            if isinstance(engine, ShardedEngine):
                engine.close()
        print(
            f"{label:>14} {init_s:>9.3f} {seconds:>13.3f} "
            f"{n_updates / seconds:>11.0f}"
        )
    if config.decay is not None and config.shards > 1:
        # Sharded decay settles per shard before merging; float multiply
        # does not distribute bit-exactly over add, so sharded vs
        # unsharded agree to rounding, not bit-for-bit.
        assert all(
            results[0].close_to(other, 1e-9) for other in results[1:]
        ), "engines disagree"
        print("all engines agree on the final result (within 1e-9) ✓")
    else:
        assert all(results[0] == other for other in results[1:]), "engines disagree"
        print("all engines agree on the final result ✓")
    if config.decay is not None and args.profile:
        # Quantify what decay is doing: distance of the recency-weighted
        # result from the same stream aggregated without decay.
        reference = FIVMEngine(
            query, order=order,
            config=config.replace(shards=1, decay=None),
        )
        reference.initialize(db)
        events = tuple_events(batches)
        if window_spec is not None:
            events = WindowedStream(window_spec, events)
        reference.apply_stream(events, batch_size=args.batch_size)
        drift = result_drift(results[-1], reference.result())
        stats = profiled
        print(
            f"\n# decay: drift vs undecayed run {drift:.6g} "
            f"(ticks {stats.decay_ticks}, settles {stats.decay_settles}, "
            f"rescales {stats.decay_rescales})"
        )
    if profiled is not None:
        stages = profiled.stage_seconds
        total = sum(stages.values())
        print("\n# fivm per-stage time (fused program)")
        for stage in ("lift", "probe", "multiply", "group", "scatter"):
            if stage in stages:
                spent = stages[stage]
                print(f"{stage:>10} {spent:>9.4f}s {100 * spent / total:>5.1f}%")
        print(
            f"  (fused batches: {profiled.fused_batches}, "
            f"mirror hits/builds: "
            f"{profiled.mirror_hits}/{profiled.mirror_builds})"
        )
    return 0


# ----------------------------------------------------------------------
# Checkpointing
# ----------------------------------------------------------------------


def _counting(events, counter):
    """Pass events through, tallying them in ``counter[0]`` — keeps the
    CLI's memory O(batch) instead of materializing the whole stream."""
    for event in events:
        counter[0] += 1
        yield event


def _checkpoint_stream(scenario, meta):
    """The update stream ``repro checkpoint save`` ingested."""
    return scenario.stream(
        batch_size=int(meta["batch_size"]), insert_ratio=float(meta["insert_ratio"])
    )


def _windowed(events, config):
    """Wrap raw events in a WindowedStream when the config asks for one."""
    spec = config.window_spec()
    if spec is None:
        return events
    return WindowedStream(spec, events)


def cmd_checkpoint_save(args) -> int:
    try:
        with _graceful_sigterm():
            return _run_checkpoint_save(args)
    except KeyboardInterrupt:
        # Periodic snapshots from --every (if any) remain on disk and
        # restorable; the engine was closed by the inner finally.
        print("\ninterrupted; engine closed", file=sys.stderr)
        return 130


def _run_checkpoint_save(args) -> int:
    scenario = _scenario(args, args.payload)
    stream = scenario.stream(batch_size=args.batch_size, insert_ratio=args.insert_ratio)
    # "updates" starts as the requested target; periodic snapshots carry
    # the exact position as events_processed, and the final write below
    # replaces it with the exact emitted count (streams emit in whole
    # batches, so the count can slightly exceed the target).
    metadata = {
        "dataset": args.dataset,
        "scale": args.scale,
        "seed": args.seed,
        "payload": args.payload,
        "updates": args.updates,
        "batch_size": args.batch_size,
        "insert_ratio": args.insert_ratio,
    }
    counter = [0]
    config = engine_config_from_args(args)
    # Counting sits on the *source* stream, so positions stay in source
    # units even when the window wrapper interleaves retractions.
    events = _windowed(_counting(stream.tuples(args.updates), counter), config)
    engine = create_engine(scenario.query, config=config, order=scenario.order)
    try:
        engine.initialize(scenario.database)
        if args.every:
            engine.apply_stream(
                events,
                batch_size=args.batch_size,
                checkpoint_every=args.every,
                on_checkpoint=checkpoint_sink(
                    args.path,
                    compression=args.compression,
                    metadata=metadata,
                    full_every=args.full_every,
                ),
            )
        else:
            engine.apply_stream(events, batch_size=args.batch_size)
        metadata["updates"] = counter[0]
        info = write_checkpoint(
            engine, args.path, compression=args.compression, metadata=metadata
        )
        # The final write starts a fresh chain; mid-run increments from
        # --full-every now chain to a base that no longer exists.
        remove_stale_increments(args.path)
    finally:
        if isinstance(engine, ShardedEngine):
            engine.close()
    shard_note = (
        f", {args.engine_shards} shards" if args.engine_shards > 1 else ""
    )
    print(
        f"# saved checkpoint after {counter[0]} updates "
        f"({args.dataset}, {args.payload} payload{shard_note})"
    )
    print(info.describe())
    return 0


def _skip_windowed_prefix(windowed: WindowedStream, counter, position: int):
    """Replay a windowed stream, dropping the outputs the engine already
    holds.

    The restored engine consumed the windowed compilation of the first
    ``position`` *source* events, including the retractions those events
    triggered. Draining the wrapper while ``counter`` (which counts
    source events) is within the prefix rebuilds the retraction
    scheduler without touching the engine; everything after flows
    through, starting with the boundary retractions the checkpointed run
    had not yet fired.
    """
    for event in windowed:
        if counter[0] <= position:
            continue
        yield event


def cmd_checkpoint_load(args) -> int:
    head = resolve_chain_head(args.path)
    if head != args.path:
        print(f"# chain head: {head}")
    info = read_checkpoint_info(head)
    meta = info.metadata
    required = (
        "dataset", "scale", "seed", "payload",
        "updates", "batch_size", "insert_ratio",
    )
    missing = [key for key in required if key not in meta]
    if missing:
        print(
            f"checkpoint lacks stream metadata {missing}; was it written "
            "by 'repro checkpoint save'?",
            file=sys.stderr,
        )
        return 1
    # Rebuild the dataset and stream exactly as `save` did (seeded, hence
    # deterministic), then restore into the *requested* topology — the
    # checkpoint's shard count need not match --engine-shards. Time semantics
    # (window/decay) come from the checkpoint's own config provenance so
    # the resumed stream means the same thing it did at save time.
    scenario = build_serving_scenario(
        meta["dataset"], meta["payload"], scale=int(meta["scale"]), seed=int(meta["seed"])
    )
    config = engine_config_from_args(args).replace(
        window=info.config.get("window"), decay=info.config.get("decay"),
    )
    engine = create_engine(scenario.query, config=config, order=scenario.order)
    try:
        restore_checkpoint(engine, head)
        position = int(meta.get("events_processed", meta["updates"]))
        print(f"# restored {info.describe()}")
        print(
            f"stream position: {position} updates "
            f"(root views: {len(engine.result())} entries, "
            f"counters: {engine.stats.updates_applied} updates applied)"
        )
        if args.resume_updates or args.verify:
            total = int(meta["updates"]) + args.resume_updates
            # Regenerate the seeded stream and skip the already-applied
            # prefix lazily — memory stays O(batch), not O(stream).
            stream = _checkpoint_stream(scenario, meta)
            counter = [0]
            window_spec = config.window_spec()
            if window_spec is not None:
                windowed = WindowedStream(
                    window_spec, _counting(stream.tuples(total), counter)
                )
                remaining = _skip_windowed_prefix(windowed, counter, position)
            else:
                remaining = _counting(
                    itertools.islice(stream.tuples(total), position, None),
                    counter,
                )
            engine.apply_stream(remaining, batch_size=int(meta["batch_size"]))
            resumed = counter[0] - position if window_spec is not None else counter[0]
            print(f"resumed {resumed} updates from the stream")
            if args.verify:
                reference = FIVMEngine(
                    scenario.query,
                    order=scenario.order,
                    config=EngineConfig(
                        window=config.window, decay=config.decay
                    ),
                )
                reference.initialize(scenario.database)
                replay = _checkpoint_stream(scenario, meta)
                reference.apply_stream(
                    _windowed(replay.tuples(total), config),
                    batch_size=int(meta["batch_size"]),
                )
                if engine.result().close_to(reference.result(), 1e-9):
                    print(
                        "restored + resumed result identical to "
                        "uninterrupted ingestion ✓"
                    )
                else:  # pragma: no cover - would be a checkpointing bug
                    print(
                        "FAIL: restored result diverges from uninterrupted "
                        "ingestion",
                        file=sys.stderr,
                    )
                    return 1
    finally:
        if isinstance(engine, ShardedEngine):
            engine.close()
    return 0


def cmd_serve(args) -> int:
    scenario = build_serving_scenario(
        args.dataset, args.payload, scale=args.scale, seed=args.seed
    )
    config = engine_config_from_args(args)
    engine = scenario.engine(config=config)
    # Epoch 1 covers the initial database (event offset 0): readers get
    # answers from the first request on, never a 503 warm-up window.
    engine.publish(event_offset=0)
    stream = scenario.stream(
        batch_size=args.batch_size, insert_ratio=args.insert_ratio
    )
    metadata = scenario.provenance(args.batch_size, args.insert_ratio)
    metadata["updates"] = args.updates
    if args.checkpoint_every and not args.checkpoint:
        print("--checkpoint-every requires --checkpoint PATH", file=sys.stderr)
        return 2
    on_checkpoint = (
        checkpoint_sink(args.checkpoint, metadata=metadata)
        if args.checkpoint_every
        else None
    )
    # Windowed serving: the ingest thread consumes the windowed
    # compilation, and apply_stream stamps each published epoch with the
    # live window bounds (surfaced by /stats).
    ingest = IngestThread(
        engine,
        _windowed(stream.tuples(args.updates), config),
        batch_size=args.batch_size,
        checkpoint_every=args.checkpoint_every,
        on_checkpoint=on_checkpoint,
    )

    def degraded_reason():
        # Writer death does not take reads down: readers keep answering
        # from the last published snapshot, flagged degraded.
        if ingest.error is not None:
            return f"ingest writer failed: {ingest.error}"
        health = engine.health()
        if health.get("status") not in ("ok", "uninitialized"):
            return f"engine {health.get('status')}"
        return None

    app = ServingApp(
        engine,
        regression_label=scenario.regression_label,
        mi_label=scenario.mi_label,
        position_source=lambda: ingest.consumed,
        metadata=metadata,
        degraded_source=degraded_reason,
    )
    server = ServerThread(app, host=args.host, port=args.port)
    exit_code = 0
    interrupted = False
    with _graceful_sigterm():
        try:
            server.start()
            print(
                f"# serving {args.dataset} ({args.payload} payload"
                + (f", {args.engine_shards} shards" if args.engine_shards > 1 else "")
                + f") on {server.url}",
                flush=True,
            )
            print(
                "endpoints: /covar /predict /model /topk /result /healthz /stats",
                flush=True,
            )
            ingest.start()
            ingest.join()
            if ingest.error is not None:
                # Degrade rather than die: /healthz reports degraded with
                # the failure reason while reads continue from the last
                # published epoch. The non-zero exit waits for shutdown.
                exit_code = 1
                print(
                    f"ingest failed: {ingest.error}; "
                    "continuing to serve the last published snapshot "
                    "(degraded)",
                    file=sys.stderr,
                )
            else:
                snapshot = engine.latest_snapshot()
                print(
                    f"ingest done: {ingest.consumed} updates in "
                    f"{ingest.seconds:.2f}s "
                    f"({ingest.throughput:.0f} updates/s), "
                    f"epoch {snapshot.epoch} published",
                    flush=True,
                )
            if args.linger < 0:
                print("serving until interrupted (Ctrl-C) ...", flush=True)
                while True:
                    time.sleep(3600)
            elif args.linger:
                time.sleep(args.linger)
        except KeyboardInterrupt:
            interrupted = True
            print("\ninterrupted; shutting down", flush=True)
        finally:
            server.stop()
            if interrupted and ingest.is_alive():
                # Stop at the next event boundary, then let the drain
                # finish so the final checkpoint sees a settled engine.
                ingest.stop()
                ingest.join(timeout=60.0)
            if (
                args.checkpoint_every
                and args.checkpoint
                and ingest.error is None
                and not ingest.is_alive()
            ):
                try:
                    write_checkpoint(
                        engine,
                        args.checkpoint,
                        metadata=dict(
                            metadata, events_processed=ingest.consumed
                        ),
                    )
                    remove_stale_increments(args.checkpoint)
                    print(
                        f"final checkpoint written to {args.checkpoint} "
                        f"(position {ingest.consumed})",
                        flush=True,
                    )
                except Exception as exc:  # pragma: no cover - disk full etc.
                    print(f"final checkpoint failed: {exc}", file=sys.stderr)
            if isinstance(engine, ShardedEngine):
                engine.close()
    print(f"served {app.reads} reads ({app.errors} errors)")
    return exit_code


def cmd_checkpoint_info(args) -> int:
    info = read_checkpoint_info(args.path)
    created = datetime.datetime.fromtimestamp(info.created_at)
    print(info.describe())
    print(f"created: {created.isoformat(timespec='seconds')}")
    for key in sorted(info.metadata):
        print(f"  {key}: {info.metadata[key]}")
    if info.config:
        print("engine config:")
        for key in sorted(info.config):
            print(f"  {key}: {info.config[key]}")
    return 0


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="F-IVM demo applications from the command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--dataset", choices=("retailer", "favorita"), default="retailer"
        )
        p.add_argument("--scale", type=int, default=1, help="size multiplier")
        p.add_argument("--seed", type=int, default=1)

    info = sub.add_parser("info", help="view tree + M3 code (Fig 2d)")
    common(info)
    info.add_argument("--payload", choices=("count", "covar", "mi"), default="covar")
    info.add_argument("--dot", action="store_true", help="also print DOT")
    info.set_defaults(func=cmd_info)

    run = sub.add_parser("run", help="run a demo application over update bulks")
    common(run)
    run.add_argument(
        "--app",
        choices=("model-selection", "regression", "chow-liu"),
        default="model-selection",
    )
    run.add_argument("--bulks", type=int, default=2)
    run.add_argument("--bulk-updates", type=int, default=2000)
    run.add_argument("--batch-size", type=int, default=500)
    run.add_argument("--insert-ratio", type=float, default=0.75)
    run.add_argument("--threshold", type=float, default=0.1)
    run.set_defaults(func=cmd_run)

    bench = sub.add_parser("bench", help="quick engine comparison")
    common(bench)
    bench.add_argument("--batches", type=int, default=5)
    bench.add_argument("--batch-size", type=int, default=100)
    bench.add_argument("--insert-ratio", type=float, default=0.7)
    bench.add_argument(
        "--ingest",
        choices=("batch", "tuple", "stream"),
        default="batch",
        help=(
            "batch: apply pre-built batches; tuple: one apply per tuple; "
            "stream: single-tuple events re-coalesced by the UpdateBatcher"
        ),
    )
    bench.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print the F-IVM engine's per-stage wall time "
            "(lift/probe/multiply/group/scatter) of the fused program"
        ),
    )
    add_engine_cli_args(bench)
    bench.set_defaults(func=cmd_bench)

    ckpt = sub.add_parser(
        "checkpoint", help="save/restore engine state (incl. across shard counts)"
    )
    ckpt_sub = ckpt.add_subparsers(dest="checkpoint_command", required=True)

    save = ckpt_sub.add_parser(
        "save", help="ingest a seeded stream, then snapshot the engine"
    )
    common(save)
    add_engine_cli_args(save)
    save.add_argument("path", help="checkpoint file to write")
    save.add_argument("--payload", choices=("count", "covar"), default="count")
    save.add_argument("--updates", type=int, default=2000)
    save.add_argument("--batch-size", type=int, default=500)
    save.add_argument("--insert-ratio", type=float, default=0.7)
    save.add_argument(
        "--every",
        type=int,
        default=0,
        metavar="N",
        help="also snapshot every N updates while ingesting (0: only at the end)",
    )
    save.add_argument(
        "--full-every",
        type=int,
        default=1,
        metavar="K",
        help=(
            "with --every: write a full snapshot every K-th checkpoint and "
            "incremental deltas (PATH.incN) in between (1: always full)"
        ),
    )
    save.add_argument("--compression", choices=("zlib", "none"), default="zlib")
    save.set_defaults(func=cmd_checkpoint_save)

    load = ckpt_sub.add_parser(
        "load",
        help=(
            "restore a checkpoint into a (possibly differently sharded) "
            "engine; optionally resume and verify against full replay"
        ),
    )
    add_engine_cli_args(load)
    load.add_argument("path", help="checkpoint file to read")
    load.add_argument(
        "--resume-updates",
        type=int,
        default=0,
        metavar="K",
        help="replay K further stream updates after restoring",
    )
    load.add_argument(
        "--verify",
        action="store_true",
        help="replay the whole stream from scratch and compare results",
    )
    load.set_defaults(func=cmd_checkpoint_load)

    info_ckpt = ckpt_sub.add_parser("info", help="print a checkpoint's header")
    info_ckpt.add_argument("path", help="checkpoint file to inspect")
    info_ckpt.set_defaults(func=cmd_checkpoint_info)

    serve = sub.add_parser(
        "serve", help="serve model reads over HTTP while ingesting updates"
    )
    serve.add_argument(
        "--dataset", choices=("toy", "retailer", "favorita"), default="toy"
    )
    serve.add_argument("--scale", type=int, default=1, help="size multiplier")
    serve.add_argument("--seed", type=int, default=1)
    serve.add_argument("--payload", choices=("count", "covar", "mi"), default="covar")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8321, help="listening port (0: ephemeral)"
    )
    serve.add_argument(
        "--updates", type=int, default=5000, help="stream events to ingest"
    )
    serve.add_argument("--batch-size", type=int, default=200)
    serve.add_argument("--insert-ratio", type=float, default=0.7)
    add_engine_cli_args(serve)
    serve.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="checkpoint file for --checkpoint-every and the shutdown flush",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help=(
            "snapshot the engine to --checkpoint every N ingested updates; "
            "a final snapshot is also flushed on graceful shutdown "
            "(0: no checkpointing)"
        ),
    )
    serve.add_argument(
        "--linger",
        type=float,
        default=-1.0,
        metavar="SECONDS",
        help=(
            "keep serving this long after ingest completes "
            "(negative: until Ctrl-C)"
        ),
    )
    serve.set_defaults(func=cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FIVMError, OSError) as exc:
        # What the user asked for cannot be done (bad input, missing or
        # unreadable file): one line, not a traceback.
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
