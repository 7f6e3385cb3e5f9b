"""The view-index subsystem: probe plans, O(delta) maintenance, probe counters."""

from repro.data import IndexedRelation, deletes, inserts
from repro.data.delta import delta_of
from repro.datasets import (
    RetailerConfig,
    UpdateStream,
    generate_retailer,
    retailer_query,
    retailer_row_factories,
    retailer_variable_order,
    toy_count_query,
    toy_covar_categorical_query,
    toy_covar_continuous_query,
    toy_database,
    toy_variable_order,
)
from repro.data.database import Database
from repro.data.relation import Relation
from repro.data.schema import RelationSchema
from repro.engine import FIVMEngine, FirstOrderEngine, NaiveEngine
from repro.query.query import Query
from repro.query.variable_order import VariableOrder, VONode
from repro.rings import CountSpec
from repro.viewtree import build_probe_plan
from tests.conftest import row_mode

R_SCHEMA = ("A", "B")
S_SCHEMA = ("A", "C", "D")


def toy_engines():
    """Fresh toy F-IVM, first-order and naive engines: the same program
    storing every probed sibling, deriving them for each delta, and
    stopping at the leaf."""
    engines = []
    for cls in (FIVMEngine, FirstOrderEngine, NaiveEngine):
        engine = cls(toy_count_query(), order=toy_variable_order())
        engine.initialize(toy_database())
        engines.append(engine)
    return tuple(engines)


def retailer_setup(seed=5):
    config = RetailerConfig(
        locations=4, dates=6, items=20, inventory_rows=200, seed=seed
    )
    database = generate_retailer(config)
    stream = UpdateStream(
        database,
        retailer_row_factories(config, database),
        targets=("Inventory",),
        batch_size=50,
        insert_ratio=0.7,
        seed=seed,
    )
    return database, stream


class TestProbePlan:
    def test_toy_plan_indexes_both_siblings_on_join_variable(self):
        tree = FIVMEngine(toy_count_query(), order=toy_variable_order()).tree
        plan = build_probe_plan(tree)
        assert plan.index_specs == {"V_R": (("A",),), "V_S": (("A",),)}
        (steps,) = plan.path_steps["R"]
        assert [(s.sibling, s.attrs) for s in steps] == [("V_S", ("A",))]

    def test_retailer_plan_covers_every_inner_view_on_each_path(self):
        engine = FIVMEngine(
            retailer_query(CountSpec()), order=retailer_variable_order()
        )
        plan = engine.probe_plan
        for name in engine.query.relation_names:
            path = engine.tree.path_to_root(name)
            assert len(plan.path_steps[name]) == len(path) - 1
        # Every probed attribute tuple is an index spec on that sibling.
        for per_view in plan.path_steps.values():
            for steps in per_view:
                for step in steps:
                    assert step.attrs in plan.index_specs[step.sibling]

    def test_probed_views_are_wrapped_with_lazy_indexes(self):
        engine, _plain, _oracle = toy_engines()
        for name, specs in engine.probe_plan.index_specs.items():
            view = engine.materialized[name]
            assert isinstance(view, IndexedRelation)
            # Lazy materialization: specs registered, nothing built yet.
            assert not view.indexes
            assert view.pending == set(specs)
        # The root is probed by nobody and stays a plain relation.
        assert not isinstance(
            engine.materialized[engine.tree.root.name], IndexedRelation
        )

    def test_indexes_materialize_on_first_probe_only(self):
        """Indexes stay absent until a maintenance path actually probes.

        An update to R probes V_S (the sibling) on A and must build
        exactly that index; V_R's own registered index stays pending —
        nothing probed it — so R-only streams pay no V_R index
        maintenance at all. Results are unchanged throughout.
        """
        engine, _plain, oracle = toy_engines()
        delta = inserts(R_SCHEMA, [("a1", 1)])
        engine.apply("R", delta)
        oracle.apply("R", delta)
        v_s = engine.materialized["V_S"]
        v_r = engine.materialized["V_R"]
        assert set(v_s.indexes) == {("A",)} and not v_s.pending
        assert not v_r.indexes and v_r.pending == {("A",)}
        assert engine.result() == oracle.result()
        # The reverse direction materializes V_R's index on first probe.
        delta = inserts(S_SCHEMA, [("a1", 2, 2)])
        engine.apply("S", delta)
        oracle.apply("S", delta)
        assert set(v_r.indexes) == {("A",)} and not v_r.pending
        assert v_r.index_on(("A",)).entry_count() == len(v_r)
        assert engine.result() == oracle.result()


class TestIndexedMaintenance:
    def test_indexed_and_scan_paths_agree_with_oracle(self):
        indexed_e, plain_e, oracle = toy_engines()
        steps = [
            ("R", inserts(R_SCHEMA, [("a1", 5), ("a9", 9)])),
            ("S", inserts(S_SCHEMA, [("a9", 1, 2), ("a1", 3, 3)])),
            ("R", deletes(R_SCHEMA, [("a1", 1)])),
            ("S", delta_of(S_SCHEMA, deleted=[("a1", 1, 1)])),
            ("R", deletes(R_SCHEMA, [("a9", 9)])),
        ]
        for name, delta in steps:
            for engine in (indexed_e, plain_e, oracle):
                engine.apply(name, delta)
            assert indexed_e.result() == oracle.result()
            assert plain_e.result() == oracle.result()

    def test_index_counters_advance_only_on_engines_that_probe(self):
        indexed_e, first_order, naive = toy_engines()
        delta = inserts(R_SCHEMA, [("a1", 1)])
        for engine in (indexed_e, first_order, naive):
            engine.apply("R", delta)
        # First-order probes the siblings it derived for the delta; the
        # naive engine's deltas stop at the leaf.
        assert first_order.stats.index_probes == indexed_e.stats.index_probes > 0
        assert indexed_e.stats.index_hits > 0
        assert indexed_e.stats.index_hits <= indexed_e.stats.index_probes
        assert naive.stats.index_probes == 0
        snapshot = indexed_e.stats.snapshot()
        assert snapshot["index_probes"] == indexed_e.stats.index_probes

    def test_cancellation_stream_returns_views_and_indexes_to_start(self):
        engine, _plain, _oracle = toy_engines()
        before = {name: dict(engine.view(name).data) for name in engine.tree.views}
        rows = [("a1", 77), ("a8", 8), ("a9", 9)]
        engine.apply("R", inserts(R_SCHEMA, rows))
        engine.apply("R", deletes(R_SCHEMA, rows[:1]))
        engine.apply("R", deletes(R_SCHEMA, rows[1:]))
        for name, data in before.items():
            view = engine.view(name)
            assert view.data == data
            if isinstance(view, IndexedRelation):
                for index in view.indexes.values():
                    assert index.entry_count() == len(view)

    def test_view_sizes_track_touched_path_only(self):
        engine, _plain, _oracle = toy_engines()
        engine.apply("R", inserts(R_SCHEMA, [("a7", 7)]))
        engine.apply("S", inserts(S_SCHEMA, [("a7", 1, 1), ("a1", 9, 9)]))
        assert engine.stats.view_sizes == {
            name: len(view) for name, view in engine.materialized.items()
        }

    def test_batched_vs_unbatched_with_indexes_on_and_off(self):
        """Batch 1 and batch 64, F-IVM against the first-order and naive
        engines: one result."""
        database, stream = retailer_setup()
        events = list(stream.tuples(400))
        query = retailer_query(CountSpec())
        order = retailer_variable_order()
        results = []
        for cls in (FIVMEngine, FirstOrderEngine, NaiveEngine):
            for batch_size in (1, 64):
                engine = cls(query, order=order)
                engine.initialize(database)
                engine.apply_stream(iter(events), batch_size=batch_size)
                results.append(engine.result())
        assert all(result == results[0] for result in results[1:])

    def test_delta_annihilated_mid_join_at_three_child_node(self):
        """A delta emptied by one sibling at a 3-child node must stop cleanly.

        V@A joins V_R, V_S and V@D, and its key D comes only from V@D —
        so when a δR finds no match in V_S, the partial join does not
        carry D yet and marginalizing it would raise. Regression test:
        propagation must stop without error and without corrupting views.
        """
        query = Query(
            "Q3",
            (
                RelationSchema("R", ("A", "B")),
                RelationSchema("S", ("A", "C")),
                RelationSchema("T", ("A", "D")),
            ),
            spec=CountSpec(),
            free=("D",),
        )
        order = VariableOrder(
            [VONode("A", relations=("R", "S"), children=[VONode("D", relations=("T",))])]
        )
        database = Database(
            [
                Relation(("A", "B"), name="R"),
                Relation(("A", "C"), name="S"),
                Relation.from_tuples(("A", "D"), [("a1", 7)], name="T"),
            ]
        )
        engine = FIVMEngine(query, order=order)
        engine.initialize(database)
        oracle = NaiveEngine(query, order=order)
        oracle.initialize(database)
        steps = [
            ("R", inserts(("A", "B"), [("a1", 5)])),  # no match in empty S
            ("S", inserts(("A", "C"), [("a1", 3)])),  # now the join completes
            ("S", deletes(("A", "C"), [("a1", 3)])),  # and annihilates again
        ]
        for name, delta in steps:
            engine.apply(name, delta)
            oracle.apply(name, delta)
            assert engine.result() == oracle.result()

    def test_nonscalar_ring_maintenance_with_indexes(self):
        query = toy_covar_categorical_query()
        indexed_e = FIVMEngine(query, order=toy_variable_order())
        plain_e = NaiveEngine(query, order=toy_variable_order())
        for engine in (indexed_e, plain_e):
            engine.initialize(toy_database())
        steps = [
            ("R", inserts(R_SCHEMA, [("a1", 4), ("a5", 5)])),
            ("S", inserts(S_SCHEMA, [("a5", 2, 2)])),
            ("R", deletes(R_SCHEMA, [("a5", 5)])),
        ]
        for name, delta in steps:
            indexed_e.apply(name, delta)
            plain_e.apply(name, delta)
        assert indexed_e.result().close_to(plain_e.result(), 1e-9)


class TestCheckpointWithIndexes:
    def snapshot_roundtrip(self):
        engine = FIVMEngine(toy_count_query(), order=toy_variable_order())
        engine.initialize(toy_database())
        engine.apply("R", inserts(R_SCHEMA, [("a1", 5)]))
        snapshot = engine.export_state()
        clone = FIVMEngine(toy_count_query(), order=toy_variable_order())
        clone.import_state(snapshot)
        return engine, clone

    def test_roundtrip_result_and_continued_maintenance(self):
        engine, clone = self.snapshot_roundtrip()
        assert clone.result() == engine.result()
        delta = delta_of(S_SCHEMA, inserted=[("a1", 8, 8)], deleted=[("a1", 1, 1)])
        engine.apply("S", delta)
        clone.apply("S", delta)
        assert clone.result() == engine.result()

    def test_indexes_registered_after_import(self):
        engine, clone = self.snapshot_roundtrip()
        for name, specs in clone.probe_plan.index_specs.items():
            view = clone.materialized[name]
            assert isinstance(view, IndexedRelation)
            for attrs in specs:
                # Registered lazily on restore; first probe materializes
                # a consistent index over the restored entries.
                assert attrs in view.pending
                index = view.ensure_index(attrs)
                assert index.entry_count() == len(view)

    def test_import_drops_ring_zero_payloads(self):
        engine, _clone = self.snapshot_roundtrip()
        snapshot = engine.export_state()
        snapshot["views"]["V_R"][("parked",)] = 0  # a parked cancellation
        clone = FIVMEngine(toy_count_query(), order=toy_variable_order())
        clone.import_state(snapshot)
        assert ("parked",) not in clone.view("V_R").data
        assert clone.stats.view_sizes["V_R"] == len(clone.view("V_R"))
        # The lazily materialized index must not carry the zombie either.
        assert clone.view("V_R").ensure_index(("A",)).keys("parked") == ()

    def test_import_restores_stats_counters(self):
        engine, clone = self.snapshot_roundtrip()
        assert clone.stats.updates_applied == engine.stats.updates_applied
        assert clone.stats.index_probes == engine.stats.index_probes
        assert clone.stats.view_sizes == {
            name: len(view) for name, view in clone.materialized.items()
        }

    def test_import_without_stats_resets_counters(self):
        engine, _clone = self.snapshot_roundtrip()
        snapshot = engine.export_state()
        del snapshot["stats"]
        clone = FIVMEngine(toy_count_query(), order=toy_variable_order())
        clone.import_state(snapshot)
        assert clone.stats.updates_applied == 0
        assert clone.stats.index_probes == 0

    def test_cross_mode_snapshot_compatible(self):
        """A snapshot written on the per-tuple path restores into an
        engine that continues on the fused path (integer-valued numeric
        COVAR, so both agree with the oracle exactly)."""
        query = toy_covar_continuous_query()
        plain = FIVMEngine(query, order=toy_variable_order())
        oracle = NaiveEngine(query, order=toy_variable_order())
        for engine in (plain, oracle):
            engine.initialize(toy_database())
        first = inserts(R_SCHEMA, [(f"a{i % 3}", 9 + i) for i in range(40)])
        with row_mode():
            plain.apply("R", first)
        oracle.apply("R", first)
        assert plain.stats.fused_batches == 0
        clone = FIVMEngine(query, order=toy_variable_order())
        clone.import_state(plain.export_state())
        assert clone.result() == plain.result()
        delta = inserts(S_SCHEMA, [(f"a{i % 3}", i, 1) for i in range(40)])
        with row_mode():
            plain.apply("S", delta)
        clone.apply("S", delta)
        oracle.apply("S", delta)
        assert clone.stats.fused_batches == 1
        assert clone.result() == plain.result() == oracle.result()


class TestProbeCounters:
    """Every sibling join is an index probe, counted once per step."""

    def small_engine(self):
        engine = FIVMEngine(toy_count_query(), order=toy_variable_order())
        engine.initialize(toy_database())
        return engine

    def big_delta(self, n=1200):
        delta = Relation(R_SCHEMA, name="R")
        delta.data = {(f"a{i}", i): 1 for i in range(n)}
        return delta

    def test_small_delta_always_probes(self):
        engine = self.small_engine()
        engine.apply("R", delta_of(R_SCHEMA, {("a1", 7): 1}, name="R"))
        assert engine.stats.scan_steps == 0
        assert engine.stats.probe_steps == 1

    def test_a_delta_that_dwarfs_its_sibling_probes_too(self):
        # |delta| = 1200 against a 2-key sibling: one probe step, and the
        # result is the oracle's through inserts and their cancellation.
        engine = self.small_engine()
        oracle = NaiveEngine(toy_count_query(), order=toy_variable_order())
        oracle.initialize(toy_database())
        for delta in (self.big_delta(), self.big_delta().neg()):
            engine.apply("R", delta.copy())
            oracle.apply("R", delta.copy())
            assert engine.result() == oracle.result()
        assert engine.stats.probe_steps == 2 and engine.stats.scan_steps == 0

    def test_counters_roundtrip_through_snapshot(self):
        engine = self.small_engine()
        engine.apply("R", self.big_delta())
        snapshot = engine.export_state()
        restored = FIVMEngine(toy_count_query(), order=toy_variable_order())
        restored.import_state(snapshot)
        assert restored.stats.scan_steps == engine.stats.scan_steps
        assert restored.stats.probe_steps == engine.stats.probe_steps
