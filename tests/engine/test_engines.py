"""Engine behaviours beyond result equality: lifecycle, stats, errors."""

import pytest

from repro.data import Relation, inserts
from repro.datasets import toy_count_query, toy_database, toy_variable_order
from repro.engine import FIVMEngine, FirstOrderEngine, NaiveEngine
from repro.errors import EngineError

QUERY = toy_count_query()
ORDER = toy_variable_order()

ENGINE_CLASSES = [FIVMEngine, FirstOrderEngine, NaiveEngine]


@pytest.fixture(params=ENGINE_CLASSES, ids=lambda cls: cls.strategy)
def engine(request):
    engine = request.param(QUERY, order=ORDER)
    engine.initialize(toy_database())
    return engine


class TestLifecycle:
    @pytest.mark.parametrize("cls", ENGINE_CLASSES, ids=lambda c: c.strategy)
    def test_apply_before_initialize_rejected(self, cls):
        engine = cls(QUERY, order=ORDER)
        with pytest.raises(EngineError):
            engine.apply("R", inserts(("A", "B"), [("a1", 1)]))
        with pytest.raises(EngineError):
            engine.result()

    def test_wrong_delta_schema_rejected(self, engine):
        with pytest.raises(EngineError):
            engine.apply("R", inserts(("A", "C"), [("a1", 1)]))

    def test_empty_delta_is_noop(self, engine):
        before = engine.result().payload(())
        engine.apply("R", Relation(("A", "B")))
        assert engine.result().payload(()) == before
        assert engine.stats.batches_applied == 0

    def test_apply_batch(self, engine):
        engine.apply_batch(
            [
                ("R", inserts(("A", "B"), [("a1", 1)])),
                ("S", inserts(("A", "C", "D"), [("a1", 9, 9)])),
            ]
        )
        assert engine.stats.batches_applied == 2

    def test_external_database_not_mutated(self):
        db = toy_database()
        engine = FirstOrderEngine(QUERY, order=ORDER)
        engine.initialize(db)
        engine.apply("R", inserts(("A", "B"), [("a9", 9)]))
        assert ("a9", 9) not in db.relation("R").data


class TestStatistics:
    def test_update_counters(self, engine):
        engine.apply("R", inserts(("A", "B"), [("a1", 1), ("a1", 1)]))
        assert engine.stats.updates_applied == 2
        assert engine.stats.tuples_applied == 1
        assert engine.stats.batches_applied == 1

    def test_snapshot_roundtrip(self, engine):
        engine.apply("R", inserts(("A", "B"), [("a1", 1)]))
        snap = engine.stats.snapshot()
        assert snap["updates_applied"] == 1
        assert snap["batches_applied"] == 1


class TestFIVMSpecifics:
    def test_view_accessor(self):
        engine = FIVMEngine(QUERY, order=ORDER)
        engine.initialize(toy_database())
        assert engine.view("V_R").payload(("a1",)) == 1
        with pytest.raises(EngineError):
            engine.view("V_missing")

    def test_view_sizes_tracked(self):
        engine = FIVMEngine(QUERY, order=ORDER)
        engine.initialize(toy_database())
        assert engine.stats.view_sizes["V_R"] == 2
        assert engine.stats.view_sizes["V@A"] == 1
        assert engine.total_view_tuples() == 2 + 2 + 1

    def test_early_termination_on_dead_delta(self):
        engine = FIVMEngine(QUERY, order=ORDER)
        engine.initialize(toy_database())
        # insert then delete within two batches: second batch's propagation
        # reaches the root with a cancelling delta
        engine.apply("R", inserts(("A", "B"), [("a7", 7)]))
        propagated_before = engine.stats.delta_tuples_propagated
        engine.apply("R", inserts(("A", "B"), [("a7", 7)]).neg())
        assert engine.stats.delta_tuples_propagated >= propagated_before
        assert engine.view("V_R").payload(("a7",)) == 0

    def test_unknown_relation_rejected(self):
        engine = FIVMEngine(QUERY, order=ORDER)
        engine.initialize(toy_database())
        with pytest.raises(Exception):
            engine.apply("Nope", inserts(("A", "B"), [("a1", 1)]))


class TestNaiveSpecifics:
    def test_result_is_derived_on_read(self):
        engine = NaiveEngine(QUERY, order=ORDER)
        engine.initialize(toy_database())
        engine.apply("R", inserts(("A", "B"), [("a1", 1)]))
        # The delta stopped at the leaf; result() derives the root.
        assert set(engine.materialized) == {"V_R", "V_S"}
        assert engine.stats.delta_tuples_propagated == 0
        assert engine.result().payload(()) == 5
        assert engine.result().payload(()) == 5
        assert set(engine.materialized) == {"V_R", "V_S"}


class TestMultiRelationUpdateInterleaving:
    def test_updates_to_all_relations(self, engine):
        engine.apply("R", inserts(("A", "B"), [("a3", 3)]))
        engine.apply("S", inserts(("A", "C", "D"), [("a3", 1, 1)]))
        engine.apply("S", inserts(("A", "C", "D"), [("a3", 1, 1)]))
        assert engine.result().payload(()) == 3 + 2
