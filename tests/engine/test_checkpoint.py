"""Engine checkpointing and memory accounting."""

import pickle

import pytest

from repro.checkpoint import restore_checkpoint, write_checkpoint
from repro.data import inserts
from repro.datasets import (
    UpdateStream,
    toy_count_query,
    toy_covar_categorical_query,
    toy_database,
    toy_query,
    toy_row_factories,
    toy_variable_order,
)
from repro.engine import (
    FIVMEngine,
    FirstOrderEngine,
    NaiveEngine,
    PerAggregateEngine,
)
from repro.errors import EngineError
from repro.rings import CountSpec, CovarSpec, Feature

#: The storage policies of the one view-tree engine.
POLICIES = (FIVMEngine, FirstOrderEngine, NaiveEngine)


def fresh_engine(query=None):
    engine = FIVMEngine(query or toy_count_query(), order=toy_variable_order())
    engine.initialize(toy_database())
    return engine


class TestCheckpoint:
    def test_roundtrip_preserves_result(self):
        engine = fresh_engine()
        engine.apply("R", inserts(("A", "B"), [("a1", 1)]))
        snapshot = engine.export_state()
        clone = FIVMEngine(toy_count_query(), order=toy_variable_order())
        clone.import_state(snapshot)
        assert clone.result() == engine.result()

    def test_restored_engine_keeps_maintaining(self):
        engine = fresh_engine()
        snapshot = engine.export_state()
        clone = FIVMEngine(toy_count_query(), order=toy_variable_order())
        clone.import_state(snapshot)
        delta = inserts(("A", "B"), [("a1", 1)])
        engine.apply("R", delta)
        clone.apply("R", delta)
        assert clone.result() == engine.result()

    def test_snapshot_is_picklable(self):
        engine = fresh_engine(toy_covar_categorical_query())
        snapshot = pickle.loads(pickle.dumps(engine.export_state()))
        clone = FIVMEngine(
            toy_covar_categorical_query(), order=toy_variable_order()
        )
        clone.import_state(snapshot)
        assert clone.result().close_to(engine.result(), 1e-12)

    def test_snapshot_isolated_from_source(self):
        engine = fresh_engine()
        snapshot = engine.export_state()
        engine.apply("R", inserts(("A", "B"), [("a9", 9)]))
        clone = FIVMEngine(toy_count_query(), order=toy_variable_order())
        clone.import_state(snapshot)
        assert clone.view("V_R").payload(("a9",)) == 0

    def test_mismatched_snapshot_rejected(self):
        engine = fresh_engine()
        snapshot = engine.export_state()
        snapshot["views"]["V_extra"] = {}
        clone = FIVMEngine(toy_count_query(), order=toy_variable_order())
        with pytest.raises(EngineError):
            clone.import_state(snapshot)

    def test_export_before_initialize_rejected(self):
        engine = FIVMEngine(toy_count_query(), order=toy_variable_order())
        with pytest.raises(EngineError):
            engine.export_state()

    def test_probe_counters_resume_coherently(self):
        """Indexes are rebuilt on restore and counters pick up where the
        snapshot left off: source and clone agree after identical applies."""
        engine = fresh_engine()
        engine.apply("R", inserts(("A", "B"), [("a1", 1)]))
        assert engine.stats.index_probes > 0
        snapshot = engine.export_state()
        clone = FIVMEngine(toy_count_query(), order=toy_variable_order())
        clone.import_state(snapshot)
        assert clone.stats.index_probes == engine.stats.index_probes
        assert clone.stats.probe_steps == engine.stats.probe_steps
        delta = inserts(("A", "B"), [("a2", 5)])
        engine.apply("R", delta)
        clone.apply("R", delta)
        assert clone.stats.index_probes == engine.stats.index_probes
        assert clone.stats.index_hits == engine.stats.index_hits
        assert clone.stats.updates_applied == engine.stats.updates_applied


class TestStateProvenance:
    """The shared header: format version, payload kind, query name."""

    def test_header_fields_present(self):
        state = fresh_engine().export_state()
        assert state["format_version"] == FIVMEngine.STATE_FORMAT_VERSION
        assert state["payload"] == "views"
        assert state["strategy"] == "fivm"
        assert state["query"] == "Q_count"

    def test_snapshot_from_other_query_rejected(self):
        # Same view names (V_R / V_S / V@A), different query: without the
        # provenance check this would restore garbage payloads.
        snapshot = fresh_engine(toy_query(CountSpec(), name="Q_other")).export_state()
        clone = FIVMEngine(toy_count_query(), order=toy_variable_order())
        with pytest.raises(EngineError, match="Q_other"):
            clone.import_state(snapshot)

    def test_unknown_format_version_rejected(self):
        snapshot = fresh_engine().export_state()
        snapshot["format_version"] = 99
        clone = FIVMEngine(toy_count_query(), order=toy_variable_order())
        with pytest.raises(EngineError, match="format version"):
            clone.import_state(snapshot)

    def test_missing_format_version_rejected(self):
        snapshot = fresh_engine().export_state()
        del snapshot["format_version"]
        clone = FIVMEngine(toy_count_query(), order=toy_variable_order())
        with pytest.raises(EngineError, match="format_version"):
            clone.import_state(snapshot)

    def test_wrong_payload_kind_rejected(self):
        features = (Feature.continuous("B"),)
        query = toy_query(CovarSpec(features), name="Q_peragg")
        peragg = PerAggregateEngine(query, features, order=toy_variable_order())
        peragg.initialize(toy_database())
        clone = FIVMEngine(query, order=toy_variable_order())
        with pytest.raises(EngineError, match="aggregates"):
            clone.import_state(peragg.export_state())


class TestBaselineEngineCheckpoints:
    """Naive / first-order / per-aggregate implement the same interface;
    the first two snapshot the same views as F-IVM."""

    @pytest.mark.parametrize("engine_cls", [NaiveEngine, FirstOrderEngine])
    def test_roundtrip_and_resume(self, engine_cls):
        engine = engine_cls(toy_count_query(), order=toy_variable_order())
        engine.initialize(toy_database())
        engine.apply("R", inserts(("A", "B"), [("a1", 7)]))
        snapshot = pickle.loads(pickle.dumps(engine.export_state()))
        clone = engine_cls(toy_count_query(), order=toy_variable_order())
        clone.import_state(snapshot)
        assert clone.result() == engine.result()
        delta = inserts(("A", "C", "D"), [("a1", 4, 4)])
        engine.apply("S", delta)
        clone.apply("S", delta)
        assert clone.result() == engine.result()
        assert clone.stats.updates_applied == engine.stats.updates_applied

    @pytest.mark.parametrize("writer_cls", POLICIES, ids=lambda cls: cls.strategy)
    @pytest.mark.parametrize("reader_cls", POLICIES, ids=lambda cls: cls.strategy)
    def test_every_policy_restores_every_policys_snapshot(self, writer_cls, reader_cls):
        writer = writer_cls(toy_count_query(), order=toy_variable_order())
        writer.initialize(toy_database())
        writer.apply("R", inserts(("A", "B"), [("a3", 3)]))
        snapshot = pickle.loads(pickle.dumps(writer.export_state()))
        assert snapshot["payload"] == "views"
        reader = reader_cls(toy_count_query(), order=toy_variable_order())
        reader.import_state(snapshot)
        assert reader.result() == writer.result()
        delta = inserts(("A", "C", "D"), [("a3", 1, 1)])
        writer.apply("S", delta)
        reader.apply("S", delta)
        assert reader.result() == writer.result()
        assert reader.export_state()["views"] == writer.export_state()["views"]

    @pytest.mark.parametrize("engine_cls", POLICIES, ids=lambda cls: cls.strategy)
    def test_snapshot_missing_a_view_rejected(self, engine_cls):
        engine = engine_cls(toy_count_query(), order=toy_variable_order())
        engine.initialize(toy_database())
        snapshot = engine.export_state()
        del snapshot["views"]["V_S"]
        clone = engine_cls(toy_count_query(), order=toy_variable_order())
        with pytest.raises(EngineError, match="does not match the view tree"):
            clone.import_state(snapshot)

    def test_first_order_incremental_chain_restores_equal(self, tmp_path):
        engine = FirstOrderEngine(toy_count_query(), order=toy_variable_order())
        engine.initialize(toy_database())
        stream = UpdateStream(
            toy_database(), toy_row_factories(), targets=("R", "S"),
            batch_size=10, insert_ratio=0.6, seed=31,
        )
        events = list(stream.tuples(120))
        prev = None
        for i in range(4):
            engine.apply_stream(iter(events[i * 30:(i + 1) * 30]), batch_size=10)
            path = str(tmp_path / ("c.ckpt" if i == 0 else f"c.ckpt.inc{i}"))
            state = engine.export_state()
            info = write_checkpoint(engine, path, base=prev, state=state)
            prev = (info, state)
        assert info.incremental and info.chain_seq == 3
        for cls in POLICIES:
            clone = cls(toy_count_query(), order=toy_variable_order())
            restore_checkpoint(clone, path)
            assert clone.result() == engine.result()
            assert clone.export_state()["views"] == engine.export_state()["views"]

    def test_peragg_roundtrip(self):
        query = toy_query(
            CovarSpec((Feature.continuous("B"), Feature.continuous("C"))),
            name="Q_peragg",
        )
        features = (Feature.continuous("B"), Feature.continuous("C"))
        engine = PerAggregateEngine(query, features, order=toy_variable_order())
        engine.initialize(toy_database())
        engine.apply("R", inserts(("A", "B"), [("a1", 2)]))
        snapshot = pickle.loads(pickle.dumps(engine.export_state()))
        clone = PerAggregateEngine(query, features, order=toy_variable_order())
        clone.import_state(snapshot)
        c, s, q = engine.covar_matrix()
        c2, s2, q2 = clone.covar_matrix()
        assert c == c2 and (s == s2).all() and (q == q2).all()
        delta = inserts(("A", "B"), [("a2", 9)])
        engine.apply("R", delta)
        clone.apply("R", delta)
        assert clone.covar_matrix()[0] == engine.covar_matrix()[0]

    def test_peragg_rejects_different_feature_set(self):
        query = toy_query(
            CovarSpec((Feature.continuous("B"),)), name="Q_peragg"
        )
        engine = PerAggregateEngine(
            query, (Feature.continuous("B"),), order=toy_variable_order()
        )
        engine.initialize(toy_database())
        snapshot = engine.export_state()
        wide = PerAggregateEngine(
            query,
            (Feature.continuous("B"), Feature.continuous("C")),
            order=toy_variable_order(),
        )
        with pytest.raises(EngineError, match="aggregates"):
            wide.import_state(snapshot)


class TestApplyStreamCheckpointHook:
    def test_periodic_hook_sees_all_consumed_events(self):
        engine = fresh_engine()
        seen = []

        def on_checkpoint(source, count):
            assert source is engine
            # the pending partial batch was flushed before the hook ran
            assert source.stats.updates_applied == count
            seen.append((count, source.result().payload(())))

        events = [("R", ("a1", i), 1) for i in range(10)]
        engine.apply_stream(
            iter(events),
            batch_size=3,
            checkpoint_every=4,
            on_checkpoint=on_checkpoint,
        )
        assert [count for count, _ in seen] == [4, 8]
        # each snapshot point reflects exactly the prefix applied so far:
        # a1 joins two S tuples, so every R insert adds 2 to the count 3.
        assert [payload for _, payload in seen] == [3 + 2 * 4, 3 + 2 * 8]
        assert engine.stats.updates_applied == 10

    def test_checkpoint_every_requires_callback(self):
        engine = fresh_engine()
        with pytest.raises(EngineError, match="on_checkpoint"):
            engine.apply_stream(iter([]), checkpoint_every=5)

    def test_negative_checkpoint_every_rejected(self):
        engine = fresh_engine()
        with pytest.raises(EngineError, match="checkpoint_every"):
            engine.apply_stream(iter([]), checkpoint_every=-1)


class TestMemoryReport:
    def test_count_ring_weights(self):
        engine = fresh_engine()
        report = engine.memory_report()
        assert report["V_R"]["entries"] == 2
        assert report["V_R"]["payload_weight"] == 2
        assert report["V@A"]["entries"] == 1

    def test_index_overhead_reported(self):
        engine = fresh_engine()
        # Indexes materialize lazily: before any probing update there is
        # no index overhead at all, however many specs are registered.
        report = engine.memory_report()
        assert all("indexes" not in entry for entry in report.values())
        # An update to S probes V_R on A, materializing exactly that index.
        engine.apply("S", inserts(("A", "C", "D"), [("a1", 1, 1)]))
        report = engine.memory_report()
        assert report["V_R"]["indexes"] == 1
        # V_R's key is A: a whole-key index, the view's own key map, which
        # holds no entry or bucket of its own.
        assert engine.materialized["V_R"].indexes[("A",)].whole
        assert report["V_R"]["index_entries"] == report["V_R"]["index_buckets"] == 0
        # The root is never probed, so it carries no index overhead keys.
        assert "indexes" not in report["V@A"]

    def test_no_index_overhead_before_the_first_probe(self):
        # Indexes are registered at initialize but built lazily: an
        # engine that never maintained a delta reports none.
        engine = FIVMEngine(toy_count_query(), order=toy_variable_order())
        engine.initialize(toy_database())
        report = engine.memory_report()
        assert all("indexes" not in entry for entry in report.values())

    def test_relational_cofactor_weights_count_annotations(self):
        engine = fresh_engine(toy_covar_categorical_query())
        report = engine.memory_report()
        root = report["V@A"]
        # one key, but the payload fans out into count + s entries + Q cells
        assert root["entries"] == 1
        assert root["payload_weight"] > 5

    def test_covers_every_view(self):
        engine = fresh_engine()
        assert set(engine.memory_report()) == {"V_R", "V_S", "V@A"}
