"""Shard-aware checkpointing: cross-shard-count and cross-backend restore.

The acceptance property: a checkpoint exported from an N-shard engine
mid-stream restores into an M-shard engine (any M, including M=1 and a
plain FIVMEngine) and, after replaying the remaining updates, produces
results identical to uninterrupted ingestion — for scalar and covariance
payload rings, on delete-heavy streams included.
"""

import pickle

import pytest

from repro.data import Relation
from repro.datasets import (
    RetailerConfig,
    UpdateStream,
    generate_retailer,
    retailer_query,
    retailer_row_factories,
    retailer_variable_order,
    toy_count_query,
    toy_covar_continuous_query,
    toy_database,
    toy_variable_order,
)
from repro.engine import FIVMEngine, ShardedEngine, available_backends
from repro.errors import EngineError
from repro.rings import CountSpec
from repro.config import EngineConfig


def retailer_setup(insert_ratio=0.7, seed=5, total_updates=1200):
    config = RetailerConfig(
        locations=6, dates=8, items=24, inventory_rows=300, seed=seed
    )
    database = generate_retailer(config)
    stream = UpdateStream(
        database,
        retailer_row_factories(config, database),
        targets=("Inventory", "Weather"),
        batch_size=40,
        insert_ratio=insert_ratio,
        seed=seed,
    )
    return database, list(stream.tuples(total_updates))


def uninterrupted_result(database, events, batch_size=100):
    engine = FIVMEngine(retailer_query(CountSpec()), order=retailer_variable_order())
    engine.initialize(database)
    engine.apply_stream(iter(events), batch_size=batch_size)
    return engine.result()


def sharded(shards, backend="serial"):
    return ShardedEngine(
        retailer_query(CountSpec()),
        order=retailer_variable_order(),
        config=EngineConfig(shards=shards, backend=backend),
    )


def snapshot_mid_stream(engine, database, events, batch_size=100):
    """Initialize, apply the first half, export (picklable round trip)."""
    half = len(events) // 2
    engine.initialize(database)
    engine.apply_stream(iter(events[:half]), batch_size=batch_size)
    state = pickle.loads(pickle.dumps(engine.export_state()))
    return state, events[half:]


class TestCrossShardCountRestore:
    """N-shard snapshots restore at M shards with identical results."""

    @pytest.mark.parametrize(
        "source_shards,target_shards",
        [(1, 2), (2, 4), (4, 1), (4, 2), (1, 4)],
    )
    def test_restore_and_resume_matches_uninterrupted(
        self, source_shards, target_shards
    ):
        database, events = retailer_setup()
        expected = uninterrupted_result(database, events)
        source = sharded(source_shards)
        with source:
            state, remaining = snapshot_mid_stream(source, database, events)
        target = sharded(target_shards)
        with target:
            target.import_state(state)
            target.apply_stream(iter(remaining), batch_size=100)
            assert target.result() == expected

    @pytest.mark.parametrize("target_shards", [1, 2, 4])
    def test_delete_heavy_stream(self, target_shards):
        # Mostly deletes: cancellations shrink views between snapshot and
        # restore, exercising zero-pruning through the re-partitioning.
        database, events = retailer_setup(insert_ratio=0.3, seed=9)
        expected = uninterrupted_result(database, events)
        source = sharded(4)
        with source:
            state, remaining = snapshot_mid_stream(source, database, events)
        target = sharded(target_shards)
        with target:
            target.import_state(state)
            target.apply_stream(iter(remaining), batch_size=100)
            assert target.result() == expected

    def test_sharded_snapshot_restores_into_plain_fivm(self):
        database, events = retailer_setup()
        expected = uninterrupted_result(database, events)
        source = sharded(4)
        with source:
            state, remaining = snapshot_mid_stream(source, database, events)
        plain = FIVMEngine(
            retailer_query(CountSpec()), order=retailer_variable_order()
        )
        plain.import_state(state)
        plain.apply_stream(iter(remaining), batch_size=100)
        assert plain.result() == expected

    def test_plain_fivm_snapshot_restores_into_sharded(self):
        database, events = retailer_setup()
        expected = uninterrupted_result(database, events)
        plain = FIVMEngine(
            retailer_query(CountSpec()), order=retailer_variable_order()
        )
        state, remaining = snapshot_mid_stream(plain, database, events)
        target = sharded(4)
        with target:
            target.import_state(state)
            target.apply_stream(iter(remaining), batch_size=100)
            assert target.result() == expected

    def test_restored_views_partition_like_fresh_initialization(self):
        """Per-shard view materializations after restore are exactly what
        initializing at the target shard count would build (same routing)."""
        database, events = retailer_setup()
        source = sharded(4)
        with source:
            state, _remaining = snapshot_mid_stream(source, database, events)
        restored = sharded(2)
        with restored:
            restored.import_state(state)
            report_restored = restored.memory_report()
            shards_restored = restored._gather("export")
        # replaying the same prefix at 2 shards from scratch
        fresh = sharded(2)
        with fresh:
            half = len(events) // 2
            fresh.initialize(database)
            fresh.apply_stream(iter(events[:half]), batch_size=100)
            report_fresh = fresh.memory_report()
            shards_fresh = fresh._gather("export")
        # A restore stores every view; the fresh shards have dropped the
        # inner views no path of the relations they saw probes.
        assert all(entry["stored"] for entry in report_restored.values())
        kept = {name for name, entry in report_fresh.items() if entry["stored"]}
        assert kept < set(report_fresh)
        assert {
            name: entry["entries"]
            for name, entry in report_restored.items()
            if name in kept
        } == {
            name: entry["entries"]
            for name, entry in report_fresh.items()
            if name in kept
        }
        # Every view, shard by shard — a dropped one as its shard
        # re-derives it for the export.
        assert [part["views"] for part in shards_restored] == [
            part["views"] for part in shards_fresh
        ]
        assert [set(part["views"]) for part in shards_fresh] == [
            set(report_fresh)
        ] * 2

    def test_coordinator_counters_restored(self):
        database, events = retailer_setup()
        source = sharded(2)
        with source:
            state, _ = snapshot_mid_stream(source, database, events)
            expected_updates = source.stats.updates_applied
        target = sharded(4)
        with target:
            target.import_state(state)
            assert target.stats.updates_applied == expected_updates
            assert state["source_shards"] == 2


class TestCovarPayloadRestore:
    """The acceptance property must hold for the covariance ring too."""

    def toy_events(self):
        # interleaved inserts and deletes on both relations
        events = []
        for i in range(1, 9):
            events.append(("R", (f"a{i % 3 + 1}", float(i)), 1))
            events.append(("S", (f"a{i % 3 + 1}", float(i), float(2 * i)), 1))
        for i in range(1, 4):
            events.append(("R", (f"a{i % 3 + 1}", float(i)), -1))
        return events

    @pytest.mark.parametrize("source_shards,target_shards", [(4, 2), (4, 1), (2, 4)])
    def test_covar_cross_shard_restore(self, source_shards, target_shards):
        query = toy_covar_continuous_query()
        events = self.toy_events()
        half = len(events) // 2
        reference = FIVMEngine(query, order=toy_variable_order())
        reference.initialize(toy_database())
        reference.apply_stream(iter(events), batch_size=4)

        source = ShardedEngine(
            query,
            order=toy_variable_order(),
            config=EngineConfig(shards=source_shards, backend="serial"),
        )
        with source:
            source.initialize(toy_database())
            source.apply_stream(iter(events[:half]), batch_size=4)
            state = pickle.loads(pickle.dumps(source.export_state()))
        target = ShardedEngine(
            query,
            order=toy_variable_order(),
            config=EngineConfig(shards=target_shards, backend="serial"),
        )
        with target:
            target.import_state(state)
            target.apply_stream(iter(events[half:]), batch_size=4)
            assert target.result().close_to(reference.result(), 1e-9)


@pytest.mark.skipif(
    "process" not in available_backends(), reason="fork unavailable"
)
class TestProcessBackendRestore:
    """Serial <-> process: snapshots cross the backend boundary both ways."""

    def test_process_snapshot_restores_into_serial_and_back(self):
        database, events = retailer_setup(total_updates=600)
        expected = uninterrupted_result(database, events)
        source = sharded(2, backend="process")
        with source:
            state, remaining = snapshot_mid_stream(source, database, events)
        serial = sharded(4, backend="serial")
        with serial:
            serial.import_state(state)
            serial.apply_stream(iter(remaining), batch_size=100)
            assert serial.result() == expected

    def test_serial_snapshot_restores_into_process_workers(self):
        database, events = retailer_setup(total_updates=600)
        expected = uninterrupted_result(database, events)
        source = sharded(4, backend="serial")
        with source:
            state, remaining = snapshot_mid_stream(source, database, events)
        target = sharded(2, backend="process")
        with target:
            target.import_state(state)
            target.apply_stream(iter(remaining), batch_size=100)
            assert target.result() == expected
            # workers are live after restore: stats flow back over the pipes
            assert target.aggregate_stats()["updates_applied"] > 0


class TestShardedSnapshotValidation:
    def test_rejects_snapshot_of_other_query(self):
        engine = ShardedEngine(
            toy_count_query(),
            order=toy_variable_order(),
            config=EngineConfig(shards=2, backend="serial"),
        )
        with engine:
            engine.initialize(toy_database())
            state = engine.export_state()
        state["query"] = "Q_other"
        clone = ShardedEngine(
            toy_count_query(),
            order=toy_variable_order(),
            config=EngineConfig(shards=2, backend="serial"),
        )
        with pytest.raises(EngineError, match="Q_other"):
            clone.import_state(state)

    def test_rejects_view_mismatch(self):
        engine = ShardedEngine(
            toy_count_query(),
            order=toy_variable_order(),
            config=EngineConfig(shards=2, backend="serial"),
        )
        with engine:
            engine.initialize(toy_database())
            state = engine.export_state()
        state["views"]["V_extra"] = {}
        clone = ShardedEngine(
            toy_count_query(),
            order=toy_variable_order(),
            config=EngineConfig(shards=2, backend="serial"),
        )
        with pytest.raises(EngineError, match="V_extra"):
            clone.import_state(state)

    def test_import_without_prior_initialize(self):
        engine = ShardedEngine(
            toy_count_query(),
            order=toy_variable_order(),
            config=EngineConfig(shards=2, backend="serial"),
        )
        with engine:
            engine.initialize(toy_database())
            state = engine.export_state()
        fresh = ShardedEngine(
            toy_count_query(),
            order=toy_variable_order(),
            config=EngineConfig(shards=3, backend="serial"),
        )
        with fresh:
            fresh.import_state(state)
            assert fresh.result().payload(()) == 3
            delta = Relation(("A", "B"), name="R")
            delta.data = {("a1", 9): 1}
            fresh.apply("R", delta)
            assert fresh.result().payload(()) == 5
