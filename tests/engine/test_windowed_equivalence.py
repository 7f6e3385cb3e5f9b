"""Windowed ingest equivalence: every engine, every backend, every advance.

The acceptance contract for time-aware maintenance: ingesting a stream
through :class:`~repro.data.windows.WindowedStream` must leave the engine
in *exactly* the state a fresh batch evaluation over the live window
would produce — at every window advance, for tumbling and sliding
windows, across the per-tuple and fused maintenance paths and the
serial and process shard backends, including delete-heavy streams.
"""

import contextlib

import pytest

from repro.config import EngineConfig, create_engine
from repro.data import WindowSpec, WindowedStream, live_window_events
from repro.datasets import (
    UpdateStream,
    toy_count_query,
    toy_covar_continuous_query,
    toy_database,
    toy_row_factories,
    toy_variable_order,
)
from repro.engine import FIVMEngine
from repro.engine.sharded import available_backends
from tests.conftest import per_tuple_path

needs_process = pytest.mark.skipif(
    "process" not in available_backends(), reason="fork unavailable"
)

TUMBLING = WindowSpec(24, 24)
SLIDING = WindowSpec(24, 8)

# Wide enough that a 64-event flush hands each relation a delta the
# fused path takes; the 24-unit windows above stay per-tuple throughout.
WIDE_SLIDING = WindowSpec(96, 32)

# The two maintenance paths that must agree bit-exactly (toy values are
# integers): whatever the size rule picks, and per-tuple forced.
PATHS = {
    "fused": contextlib.nullcontext,
    "per-tuple": per_tuple_path,
}


def toy_events(total=96, insert_ratio=0.7, seed=11):
    database = toy_database()
    stream = UpdateStream(
        database,
        toy_row_factories(),
        targets=("R", "S"),
        batch_size=8,
        insert_ratio=insert_ratio,
        seed=seed,
    )
    return database, list(stream.tuples(total))


def timed(events):
    """Index-as-time stamping: event i happens at time i."""
    return [(name, row, step, i) for i, (name, row, step) in enumerate(events)]


def batch_reference(query, database, live, batch_size=7):
    """Fresh engine fed exactly the live-window events, nothing else."""
    engine = FIVMEngine(query, order=toy_variable_order())
    engine.initialize(database)
    engine.apply_stream(iter(live), batch_size=batch_size)
    return engine.result()


def assert_equivalent_at_every_advance(
    query, database, events, spec, config=None, batch_size=7,
    path=contextlib.nullcontext,
):
    """At every boundary b: windowed state == batch eval over [b-size, b).

    ``path`` wraps the windowed engine's ingest (``per_tuple_path`` pins
    it to the per-tuple path; the batch reference always runs unpinned).
    Returns how many windowed batches took the fused path.
    """
    stamped = timed(events)
    last = len(stamped) - 1
    boundaries = range(spec.slide, spec.boundary(last) + spec.slide, spec.slide)
    checked = 0
    fused_batches = 0
    for b in boundaries:
        prefix = stamped[:b]  # index-as-time: events with time < b
        if not prefix:
            continue
        engine = create_engine(
            query, config=config, order=toy_variable_order()
        )
        ctx = engine if hasattr(engine, "__enter__") else contextlib.nullcontext()
        with ctx:
            engine.initialize(database)
            stream = WindowedStream(spec, iter(prefix))
            with path():
                engine.apply_stream(stream, batch_size=batch_size)
                engine.apply_stream(stream.advance_to(b), batch_size=batch_size)
            result = engine.result()
            fused_batches += getattr(engine.stats, "fused_batches", 0)
            expected = batch_reference(
                query, database, live_window_events(prefix, spec, b), batch_size
            )
            assert result == expected, (
                f"windowed state diverged from batch evaluation at "
                f"boundary {b} ({spec.describe()})"
            )
        checked += 1
    assert checked >= 3, "window sweep never crossed a boundary"
    return fused_batches


def assert_equivalent_mid_window(
    query, database, events, spec, config=None, batch_size=7
):
    """After the full stream: state == live window incl. unexpired tail."""
    stamped = timed(events)
    last = len(stamped) - 1
    engine = create_engine(query, config=config, order=toy_variable_order())
    ctx = engine if hasattr(engine, "__enter__") else contextlib.nullcontext()
    with ctx:
        engine.initialize(database)
        engine.apply_stream(
            WindowedStream(spec, iter(stamped)), batch_size=batch_size
        )
        result = engine.result()
        live = live_window_events(stamped, spec, spec.boundary(last), upto=last)
        assert result == batch_reference(query, database, live, batch_size)


class TestMaintenancePaths:
    """Tumbling and sliding windows across the per-tuple and fused paths."""

    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize("spec", [TUMBLING, SLIDING], ids=lambda s: s.kind)
    def test_count_equivalent_at_every_advance(self, path, spec):
        database, events = toy_events()
        assert_equivalent_at_every_advance(
            toy_count_query(), database, events, spec, path=PATHS[path]
        )

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_covar_sliding_equivalent_at_every_advance(self, path):
        database, events = toy_events(total=256)
        fused_batches = assert_equivalent_at_every_advance(
            toy_covar_continuous_query(),
            database,
            events,
            WIDE_SLIDING,
            batch_size=64,
            path=PATHS[path],
        )
        assert (fused_batches > 0) == (path == "fused")

    @pytest.mark.parametrize("spec", [TUMBLING, SLIDING], ids=lambda s: s.kind)
    def test_delete_heavy_stream(self, spec):
        # Mostly deletes: retractions of deletes re-insert, windows shrink.
        database, events = toy_events(insert_ratio=0.3, seed=23)
        assert_equivalent_at_every_advance(
            toy_count_query(), database, events, spec
        )
        assert_equivalent_mid_window(toy_count_query(), database, events, spec)

    def test_mid_window_tail_included(self):
        database, events = toy_events()
        assert_equivalent_mid_window(
            toy_count_query(), database, events, SLIDING
        )

    def test_batch_size_invariance(self):
        # Window boundaries land mid-batch at any batch size: same state.
        database, events = toy_events()
        for batch_size in (1, 5, 64):
            assert_equivalent_mid_window(
                toy_count_query(),
                database,
                events,
                SLIDING,
                batch_size=batch_size,
            )


class TestShardedSerial:
    """Windowed retractions route through shards like any delta."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("spec", [TUMBLING, SLIDING], ids=lambda s: s.kind)
    def test_equivalent_at_every_advance(self, shards, spec):
        database, events = toy_events()
        assert_equivalent_at_every_advance(
            toy_count_query(),
            database,
            events,
            spec,
            config=EngineConfig(shards=shards, backend="serial"),
        )

    @pytest.mark.parametrize("shards", [2, 4])
    def test_delete_heavy_sliding(self, shards):
        database, events = toy_events(insert_ratio=0.3, seed=23)
        assert_equivalent_at_every_advance(
            toy_count_query(),
            database,
            events,
            SLIDING,
            config=EngineConfig(shards=shards, backend="serial"),
        )


@pytest.mark.slow
@needs_process
class TestProcessBackend:
    """Windowed semantics survive the worker pipes bit-exactly."""

    @pytest.mark.parametrize("shards", [2, 4])
    def test_pipe_equivalent_at_every_advance(self, shards):
        database, events = toy_events(total=64)
        assert_equivalent_at_every_advance(
            toy_count_query(),
            database,
            events,
            SLIDING,
            config=EngineConfig(shards=shards, backend="process"),
        )

    def test_covar_delete_heavy_over_processes(self):
        database, events = toy_events(total=48, insert_ratio=0.3, seed=23)
        assert_equivalent_mid_window(
            toy_covar_continuous_query(),
            database,
            events,
            SLIDING,
            config=EngineConfig(shards=2, backend="process"),
        )
