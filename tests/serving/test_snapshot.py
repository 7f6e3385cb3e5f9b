"""Epoch snapshots: publish contract, immutability, staleness, restore."""

import pytest

from repro.checkpoint import restore_checkpoint, write_checkpoint
from repro.datasets import (
    UpdateStream,
    toy_count_query,
    toy_covar_continuous_query,
    toy_database,
    toy_mi_query,
    toy_row_factories,
    toy_variable_order,
)
from repro.engine import (
    FIVMEngine,
    FirstOrderEngine,
    NaiveEngine,
    ShardedEngine,
    available_backends,
)
from repro.errors import EngineError
from repro.rings import SparseCofactor
from repro.serving import SnapshotStore
from repro.config import EngineConfig


def toy_events(total=400, batch_size=40, seed=3):
    database = toy_database()
    stream = UpdateStream(
        database,
        toy_row_factories(),
        targets=("R", "S"),
        batch_size=batch_size,
        insert_ratio=0.7,
        seed=seed,
    )
    return database, list(stream.tuples(total))


def count_engine(database):
    engine = FIVMEngine(toy_count_query(), order=toy_variable_order())
    engine.initialize(database)
    return engine


def mi_engine(database):
    engine = FIVMEngine(toy_mi_query(), order=toy_variable_order())
    engine.initialize(database)
    return engine


def frozen(data):
    """Each payload's contents as of now, in arrays of the caller's own:
    a count as it is, a sparse cofactor as ``(c, codes, vals)`` copies —
    what a snapshot aliasing store rows rewritten in place would lose."""
    return {
        key: (p.c, p.codes.tolist(), p.vals.tolist()) if isinstance(p, SparseCofactor) else p
        for key, p in data.items()
    }


class TestPublishContract:
    def test_publish_requires_initialize(self):
        engine = FIVMEngine(toy_count_query(), order=toy_variable_order())
        with pytest.raises(EngineError, match="initialize"):
            engine.publish()

    def test_no_snapshot_before_first_publish(self):
        database, _ = toy_events()
        engine = count_engine(database)
        assert engine.latest_snapshot() is None

    def test_first_publish_covers_current_result(self):
        database, events = toy_events()
        engine = count_engine(database)
        engine.apply_stream(iter(events), batch_size=50)
        snapshot = engine.publish(event_offset=len(events))
        assert snapshot.epoch == 1
        assert snapshot.event_offset == len(events)
        assert snapshot.query == engine.query.name
        assert snapshot.strategy == engine.strategy
        assert snapshot.result.data == engine.result().data
        # Zero-copy with an owned key dict: same payloads, distinct dict.
        assert snapshot.result.data is not engine.result().data
        assert engine.latest_snapshot() is snapshot

    def test_epochs_are_monotonic(self):
        database, _ = toy_events()
        engine = count_engine(database)
        epochs = [engine.publish().epoch for _ in range(3)]
        assert epochs == [1, 2, 3]
        assert engine.latest_snapshot().epoch == 3

    def test_default_event_offset_is_updates_applied(self):
        database, events = toy_events(total=120)
        engine = count_engine(database)
        engine.apply_stream(iter(events), batch_size=30)
        assert engine.publish().event_offset == engine.stats.updates_applied

    def test_negative_event_offset_rejected(self):
        database, _ = toy_events()
        engine = count_engine(database)
        with pytest.raises(EngineError, match="event_offset"):
            engine.publish(event_offset=-1)

    @pytest.mark.parametrize("engine_cls", [FIVMEngine, NaiveEngine, FirstOrderEngine])
    def test_every_engine_publishes_the_same_view(self, engine_cls):
        database, events = toy_events(total=200)
        reference = count_engine(database)
        reference.apply_stream(iter(events), batch_size=50)
        expected = reference.publish(event_offset=len(events))

        engine = engine_cls(toy_count_query(), order=toy_variable_order())
        engine.initialize(database)
        engine.apply_stream(iter(events), batch_size=50)
        snapshot = engine.publish(event_offset=len(events))
        assert snapshot.result.data == expected.result.data
        assert snapshot.strategy == engine.strategy

    def test_sharded_merge_on_publish_matches_unsharded(self):
        database, events = toy_events(total=300)
        reference = count_engine(database)
        reference.apply_stream(iter(events), batch_size=50)
        expected = reference.publish(event_offset=len(events))

        engine = ShardedEngine(
            toy_count_query(),
            order=toy_variable_order(),
            config=EngineConfig(shards=2, backend="serial"),
        )
        with engine:
            engine.initialize(database)
            engine.apply_stream(iter(events), batch_size=50)
            snapshot = engine.publish(event_offset=len(events))
            assert snapshot.result.data == expected.result.data
            assert snapshot.event_offset == expected.event_offset


class TestSnapshotImmutability:
    @pytest.mark.parametrize("make_engine", [count_engine, mi_engine], ids=["count", "mi"])
    def test_published_snapshot_survives_further_maintenance(self, make_engine):
        database, events = toy_events(total=400)
        engine = make_engine(database)
        engine.apply_stream(iter(events[:200]), batch_size=50)
        snapshot = engine.publish(event_offset=200)
        before = frozen(snapshot.result.data)

        engine.apply_stream(iter(events[200:]), batch_size=50)
        assert engine.stats.fused_batches or make_engine is count_engine
        assert frozen(snapshot.result.data) == before
        assert frozen(engine.result().data) != before
        # The live engine moved on; a fresh publish sees the new state.
        assert engine.publish(event_offset=400).result.data == engine.result().data

    def test_store_swap_is_all_or_nothing(self):
        store = SnapshotStore()
        assert store.latest is None and store.epoch == 0
        database, _ = toy_events()
        engine = count_engine(database)
        first = store.publish(
            engine.result().copy(),
            query="Q",
            strategy="fivm",
            event_offset=10,
        )
        assert store.latest is first
        second = store.publish(
            engine.result().copy(),
            query="Q",
            strategy="fivm",
            event_offset=20,
        )
        assert store.latest is second
        assert (second.epoch, second.event_offset) == (2, 20)


class TestStalenessBounds:
    def test_staleness_is_clamped_nonnegative(self):
        database, _ = toy_events()
        engine = count_engine(database)
        snapshot = engine.publish(event_offset=100)
        assert snapshot.staleness(250) == 150
        assert snapshot.staleness(100) == 0
        assert snapshot.staleness(40) == 0  # never negative

    def test_publish_batches_lag_never_exceeds_one_batch(self):
        database, events = toy_events(total=330)
        engine = count_engine(database)
        offsets = []
        original = engine.publish

        def recording(event_offset=None, window=None):
            offsets.append(event_offset)
            return original(event_offset=event_offset, window=window)

        engine.publish = recording
        engine.apply_stream(iter(events), batch_size=50, publish_batches=True)
        assert offsets[-1] == len(events)
        assert all(b - a <= 50 for a, b in zip(offsets, offsets[1:]))
        assert engine.latest_snapshot().event_offset == len(events)

    def test_staleness_zero_at_checkpoint_boundaries(self):
        database, events = toy_events(total=300)
        engine = count_engine(database)
        boundaries = []

        def on_checkpoint(checkpointed, count):
            snapshot = checkpointed.latest_snapshot()
            # The publish at the boundary covers exactly the checkpointed
            # position, and the snapshot equals the fully applied state.
            assert snapshot.event_offset == count
            assert snapshot.staleness(count) == 0
            assert snapshot.result.data == checkpointed.result().data
            boundaries.append(count)

        engine.apply_stream(
            iter(events),
            batch_size=40,
            checkpoint_every=90,
            on_checkpoint=on_checkpoint,
            publish_batches=True,
        )
        assert boundaries == [90, 180, 270]


class TestServingStateRoundTrip:
    def make_covar_engine(self, database):
        engine = FIVMEngine(toy_covar_continuous_query(), order=toy_variable_order())
        engine.initialize(database)
        return engine

    def test_export_import_preserves_published_epoch(self):
        database, events = toy_events(total=150)
        engine = self.make_covar_engine(database)
        engine.apply_stream(iter(events), batch_size=50, publish_batches=True)
        exported = engine.latest_snapshot()
        state = engine.export_state()
        assert state["serving"] == {
            "epoch": exported.epoch,
            "event_offset": exported.event_offset,
            "published_at": exported.published_at,
        }

        restored = FIVMEngine(toy_covar_continuous_query(), order=toy_variable_order())
        restored.import_state(state)
        snapshot = restored.latest_snapshot()
        assert snapshot is not None
        assert snapshot.epoch == exported.epoch
        assert snapshot.event_offset == exported.event_offset
        assert snapshot.published_at == exported.published_at
        assert snapshot.result.data == exported.result.data
        # The epoch sequence continues from the restored epoch.
        assert restored.publish().epoch == exported.epoch + 1

    def test_unpublished_engine_exports_no_serving_header(self):
        database, events = toy_events(total=100)
        engine = self.make_covar_engine(database)
        engine.apply_stream(iter(events), batch_size=50)
        state = engine.export_state()
        assert "serving" not in state

        restored = FIVMEngine(toy_covar_continuous_query(), order=toy_variable_order())
        restored.import_state(state)
        assert restored.latest_snapshot() is None

    def test_checkpoint_file_round_trip_keeps_snapshot(self, tmp_path):
        database, events = toy_events(total=150)
        engine = self.make_covar_engine(database)
        engine.apply_stream(iter(events), batch_size=50, publish_batches=True)
        exported = engine.latest_snapshot()
        path = str(tmp_path / "serving.ckpt")
        write_checkpoint(engine, path)

        restored = FIVMEngine(toy_covar_continuous_query(), order=toy_variable_order())
        restore_checkpoint(restored, path)
        snapshot = restored.latest_snapshot()
        assert (snapshot.epoch, snapshot.event_offset) == (
            exported.epoch,
            exported.event_offset,
        )
        assert snapshot.published_at == exported.published_at
        assert snapshot.result.data == exported.result.data


class TestShardedPublishFailurePaths:
    def make_engine(self, backend, shards=2):
        engine = ShardedEngine(
            toy_count_query(),
            order=toy_variable_order(),
            config=EngineConfig(shards=shards, backend=backend),
        )
        engine.initialize(toy_database())
        return engine

    def test_closed_engine_publish_is_descriptive(self):
        engine = self.make_engine("serial")
        engine.close()
        with pytest.raises(EngineError, match="closed"):
            engine.publish()
        with pytest.raises(EngineError, match="closed"):
            engine.export_state()

    @pytest.mark.skipif(
        "process" not in available_backends(), reason="process backend unavailable"
    )
    def test_failed_worker_surfaces_publish_context(self):
        engine = self.make_engine("process")
        try:
            # Inject a failing command directly into shard 1's pipe: the
            # next gather must name the shard *and* the publish path.
            engine._backend.connections[1].send(
                ("apply", "NoSuchRelation", (), [])
            )
            with pytest.raises(EngineError, match="publish failed"):
                engine.publish()
        finally:
            engine.close()

    @pytest.mark.skipif(
        "process" not in available_backends(), reason="process backend unavailable"
    )
    def test_failed_worker_surfaces_export_context(self):
        engine = self.make_engine("process")
        try:
            engine._backend.connections[1].send(
                ("apply", "NoSuchRelation", (), [])
            )
            with pytest.raises(EngineError, match="export_state failed"):
                engine.export_state()
        finally:
            engine.close()

    @pytest.mark.skipif(
        "process" not in available_backends(), reason="process backend unavailable"
    )
    def test_dead_worker_then_closed(self):
        engine = self.make_engine("process")
        try:
            engine._backend.processes[0].terminate()
            engine._backend.processes[0].join(timeout=5.0)
            with pytest.raises(EngineError, match="publish failed"):
                engine.publish()
            # The backend shut down on the dead worker; later publishes
            # report the closed engine, not a raw pipe error.
            with pytest.raises(EngineError, match="closed"):
                engine.publish()
        finally:
            engine.close()
