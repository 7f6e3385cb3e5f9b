"""Engine-level contracts of slot-stored views (numeric COVAR, decay,
and the relational payloads: MI, mixed COVAR).

Views of a bulk non-scalar ring live in :class:`repro.data.SlotStore`
rows that maintenance adds into *in place*. These tests pin what that
must not break: published snapshots stay frozen, the checkpoint format
and a restore's continuation are unchanged, and — with updates to both
sides of a join, which the benchmark never sends — the fused path, the
per-tuple path, two shards and re-evaluation still agree. For the
relational payloads the dict ring they used to be kept in
(``tests/rings/reference_cofactor.py``) is the second reference: an
engine over it writes the snapshots the parent commit wrote.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineConfig, create_engine
from repro.data import IndexedRelation, SlotStore, UpdateBatcher
from repro.datasets import (
    RetailerConfig,
    UpdateStream,
    continuous_covar_features,
    generate_retailer,
    retailer_query,
    retailer_row_factories,
    retailer_variable_order,
)
from repro.engine import FIVMEngine, NaiveEngine, available_backends
from repro.ml import binning_for_attribute, covar_from_payload, mutual_information_matrix
from repro.rings import CountSpec, CovarSpec, Feature, GeneralCofactor, MISpec
from tests.conftest import row_mode
from tests.rings.reference_cofactor import (
    GeneralFloatCovarSpec,
    ReferenceCofactorSpec,
    as_dicts,
)

needs_process = pytest.mark.skipif(
    "process" not in available_backends(), reason="fork unavailable"
)

CONFIG = RetailerConfig(locations=4, dates=6, items=20, inventory_rows=300, seed=11)


def covar_query(limit=3):
    return retailer_query(
        CovarSpec(continuous_covar_features(limit=limit))
    )


def engine_for(config=None):
    return create_engine(covar_query(), config=config, order=retailer_variable_order())


def both_sides_batches(seed, total, batch_size, insert_ratio=0.5):
    """Flushed batches of a stream updating Inventory *and* Weather."""
    database = generate_retailer(CONFIG)
    stream = UpdateStream(
        database,
        retailer_row_factories(CONFIG, database),
        targets=("Inventory", "Weather"),
        batch_size=16,
        insert_ratio=insert_ratio,
        seed=seed,
    )
    query = covar_query()
    schemas = {name: query.schema_of(name).attributes for name in query.relation_names}
    batches = []
    batcher = UpdateBatcher(schemas, batch_size=batch_size, on_flush=batches.append)
    for relation, row, multiplicity in stream.tuples(total):
        batcher.add(relation, row, multiplicity)
    batcher.close()
    return generate_retailer(CONFIG), batches


def frozen(relation):
    """Bytes of every payload of a result relation, for bit comparison."""
    return {
        key: (float(p.c), p.s.tobytes(), p.q.tobytes(), p.support)
        for key, p in relation.data.items()
    }


def exported(engine):
    """An export's views as ``{view: [(key, payload bytes)]}``, in order."""
    return {
        name: [(key, (float(p.c), p.s.tobytes(), p.q.tobytes())) for key, p in data.items()]
        for name, data in engine.export_state()["views"].items()
    }


class TestViewForms:
    def test_covar_views_are_stores_with_lazy_indexes(self):
        engine = engine_for()
        engine.initialize(generate_retailer(CONFIG))
        for name, view in engine.materialized.items():
            assert isinstance(view, SlotStore), name
            assert not view.indexes
            assert view.pending == set(engine.probe_plan.index_specs.get(name, ()))
            assert view.support == engine._view_supports[name]

    def test_scalar_and_general_rings_keep_dict_relations(self):
        general = GeneralFloatCovarSpec(continuous_covar_features(limit=2))
        for spec in (CountSpec(), general):
            engine = FIVMEngine(retailer_query(spec), order=retailer_variable_order())
            engine.initialize(generate_retailer(CONFIG))
            for name, view in engine.materialized.items():
                assert not isinstance(view, SlotStore)
                probed = name in engine.probe_plan.index_specs
                assert isinstance(view, IndexedRelation) == probed

    def test_memory_report_reads_the_blocks(self):
        database, batches = both_sides_batches(seed=3, total=600, batch_size=100)
        engine = engine_for()
        engine.initialize(database)
        for batch in batches:
            engine.apply_many(batch)
        report = engine.memory_report()
        for name, view in engine.materialized.items():
            entry = report[name]
            payloads = view.copy().data.values()
            assert entry["entries"] == len(view)
            assert entry["payload_weight"] == sum(
                1 + np.count_nonzero(p.s) + np.count_nonzero(p.q) for p in payloads
            )
            assert entry["capacity"] == view.capacity >= view.high
            assert entry["free_slots"] == len(view.free)
            if view.indexes:
                assert entry["index_entries"] == len(view) * len(view.indexes)
                assert entry["index_buckets"] == sum(
                    len(index.buckets) for index in view.indexes.values()
                )
        assert any(entry["free_slots"] for entry in report.values())
        assert any("index_entries" in entry for entry in report.values())


class TestSnapshotImmutability:
    """publish() hands out payload copies: maintenance adds into store
    rows in place, and no earlier snapshot may see it."""

    def drive(self, engine, database, batches, decayed=False):
        engine.initialize(database)
        published = []

        def publish():
            snapshot = engine.publish()
            published.append((snapshot, frozen(snapshot.result)))

        publish()
        for i, batch in enumerate(batches):
            if i % 2:
                with row_mode():
                    engine.apply_many(batch)
            else:
                engine.apply_many(batch)
            if decayed:
                engine.advance_decay(1)
            publish()  # result() settles pending decay into every view
        assert len({snapshot.epoch for snapshot, _ in published}) == len(published)
        for snapshot, before in published:
            assert frozen(snapshot.result) == before, snapshot.epoch
        # The snapshots really are different states, not one frozen result.
        assert len({repr(sorted(before.items())) for _, before in published}) > 1
        return published

    def test_single_engine_fused_and_per_tuple(self):
        database, batches = both_sides_batches(seed=5, total=900, batch_size=150)
        engine = engine_for()
        self.drive(engine, database, batches)
        assert engine.stats.fused_batches > 0 and engine.stats.probe_steps > 0

    def test_single_engine_decayed_with_settles(self):
        database, batches = both_sides_batches(seed=6, total=600, batch_size=100)
        engine = engine_for(EngineConfig(decay="0.9/1000000"))
        self.drive(engine, database, batches, decayed=True)
        assert engine.stats.decay_settles >= len(batches)

    @pytest.mark.parametrize(
        "backend",
        ["serial", pytest.param("process", marks=needs_process)],
    )
    def test_two_shards(self, backend):
        database, batches = both_sides_batches(seed=7, total=600, batch_size=100)
        config = EngineConfig(shards=2, backend=backend)
        with engine_for(config) as engine:
            self.drive(engine, database, batches)


class TestCheckpointRoundTrip:
    def test_restore_continues_like_an_engine_that_never_stopped(self):
        database, batches = both_sides_batches(seed=9, total=1200, batch_size=150)
        head, tail = batches[:4], batches[4:]
        straight = engine_for()
        writer = engine_for()
        for engine in (straight, writer):
            engine.initialize(database)
            for batch in head:
                engine.apply_many(batch)
        # The current on-disk form: plain dicts of payload objects.
        state = pickle.loads(pickle.dumps(writer.export_state()))
        for name, data in state["views"].items():
            assert type(data) is dict and list(data) == list(writer.view(name).data)
        restored = engine_for()
        restored.import_state(state)
        assert all(isinstance(v, SlotStore) for v in restored.materialized.values())
        for engine in (straight, restored):
            engine.apply_many(tail[0])  # fused
            with row_mode():
                for batch in tail[1:]:
                    engine.apply_many(batch)
        assert restored.stats.fused_batches == straight.stats.fused_batches > 0
        assert restored.stats.probe_steps == straight.stats.probe_steps > 0
        assert exported(restored) == exported(straight)
        assert pickle.dumps(restored.export_state()["views"]) == pickle.dumps(
            straight.export_state()["views"]
        )

    def test_exported_payloads_do_not_alias_the_rows(self):
        database, batches = both_sides_batches(seed=10, total=300, batch_size=100)
        engine = engine_for()
        engine.initialize(database)
        views = engine.export_state()["views"]
        before = {
            name: [(k, p.c, p.s.copy(), p.q.copy()) for k, p in data.items()]
            for name, data in views.items()
        }
        for batch in batches:
            engine.apply_many(batch)
        for name, rows in before.items():
            for key, c, s, q in rows:
                payload = views[name][key]
                assert type(payload.c) is float and payload.c == c
                assert np.array_equal(payload.s, s) and np.array_equal(payload.q, q)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    batch_size=st.sampled_from([1, 5, 20, 64, 250]),
    insert_ratio=st.sampled_from([0.2, 0.5, 0.8]),
)
def test_both_sides_fused_per_tuple_sharded_naive_agree(seed, batch_size, insert_ratio):
    """Retailer numeric COVAR, Inventory and Weather both updated: the
    store rows a Weather batch probes are the ones Inventory batches
    mutate, and vice versa."""
    database, batches = both_sides_batches(seed, 700, batch_size, insert_ratio)
    fused, per_tuple = engine_for(), engine_for()
    naive = NaiveEngine(covar_query(), order=retailer_variable_order())
    for engine in (fused, per_tuple, naive):
        engine.initialize(database)
    with engine_for(EngineConfig(shards=2, backend="serial")) as sharded:
        sharded.initialize(database)
        for batch in batches:
            fused.apply_many(batch)
            naive.apply_many(batch)
            sharded.apply_many(batch)
            with row_mode():
                per_tuple.apply_many(batch)
        assert per_tuple.stats.fused_batches == 0
        if batch_size >= 64:
            assert fused.stats.fused_batches > 0
        assert exported(fused) == exported(per_tuple)
        assert fused.stats.delta_tuples_propagated == per_tuple.stats.delta_tuples_propagated
        # Across shard counts float sums associate differently (the
        # existing sharded suites' tolerance); across paths they do not.
        assert sharded.result().close_to(fused.result(), 1e-9)
        assert fused.result().close_to(naive.result(), 1e-8)


# ----------------------------------------------------------------------
# Relational payloads (MI, mixed COVAR) on the sparse ring
# ----------------------------------------------------------------------


def relational_features(kind):
    """Features from three relations: Item and Weather (updated
    dimensions) and Inventory (the fact table)."""
    database = generate_retailer(CONFIG)
    if kind == "mixed":
        return (
            Feature.categorical("subcategory"),
            Feature.continuous("prize"),
            Feature.continuous("inventoryunits"),
            Feature.categorical("rain"),
            Feature.continuous("maxtemp"),
        )

    def binned(relation, attr):
        return Feature(attr, "continuous", binning_for_attribute(database.relation(relation), attr, 4))

    return (
        Feature.categorical("ksn"),
        Feature.categorical("subcategory"),
        binned("Item", "prize"),
        binned("Inventory", "inventoryunits"),
        Feature.categorical("rain"),
        binned("Weather", "maxtemp"),
    )


def relational_spec(kind):
    features = relational_features(kind)
    return MISpec(features) if kind == "mi" else CovarSpec(features)


def relational_engine(kind, config=None, reference=False):
    spec = relational_spec(kind)
    if reference:
        spec = ReferenceCofactorSpec(spec.features)
    return create_engine(
        retailer_query(spec), config=config, order=retailer_variable_order()
    )


def three_relation_batches(seed, total, batch_size, insert_ratio=0.5):
    """Flushed batches updating Inventory, Weather *and* Item."""
    database = generate_retailer(CONFIG)
    factories = dict(retailer_row_factories(CONFIG, database))

    def item_factory(rng):
        ksn = int(rng.integers(0, CONFIG.items))
        subcategory = int(rng.integers(0, CONFIG.subcategories))
        category = subcategory % CONFIG.categories
        return (ksn, subcategory, category, category % CONFIG.clusters,
                round(5.0 + 3.0 * subcategory + float(rng.normal(0.0, 2.0)), 2))

    factories["Item"] = item_factory
    stream = UpdateStream(
        database, factories, targets=("Inventory", "Weather", "Item"),
        batch_size=16, insert_ratio=insert_ratio, seed=seed,
    )
    query = retailer_query(CountSpec())
    schemas = {name: query.schema_of(name).attributes for name in query.relation_names}
    batches = []
    batcher = UpdateBatcher(schemas, batch_size=batch_size, on_flush=batches.append)
    for relation, row, multiplicity in stream.tuples(total):
        batcher.add(relation, row, multiplicity)
    batcher.close()
    return generate_retailer(CONFIG), batches


def sparse_views(engine, ring):
    """Every exported view with its payloads in the sparse ring (an
    engine over the dict ring exports ``GeneralCofactor`` payloads)."""
    return {
        name: {
            key: ring.encode(p) if isinstance(p, GeneralCofactor) else p
            for key, p in data.items()
        }
        for name, data in engine.export_state()["views"].items()
    }


def assert_views_agree(kind, a, b):
    """Exact for MI counts. Mixed COVAR sums floats, whose order differs
    between the engines compared here: ``1e-9``, and a key or cell one
    side cancelled to exactly zero may survive as rounding residue on
    the other."""
    ring = relational_spec(kind).build().ring
    left, right = sparse_views(a, ring), sparse_views(b, ring)
    assert left.keys() == right.keys()
    zero = ring.zero()
    for name in left:
        if kind == "mi":
            assert left[name].keys() == right[name].keys(), name
        for key in left[name].keys() | right[name].keys():
            ours, theirs = left[name].get(key, zero), right[name].get(key, zero)
            if kind == "mi":
                assert ring.eq(ours, theirs), (name, key)
                assert as_dicts(ring.decode(ours)) == as_dicts(theirs.ring.decode(theirs))
            else:
                assert ring.close(ours, theirs, 1e-9), (name, key)


class TestRelationalPayloads:
    @pytest.mark.parametrize("kind", ["mi", "mixed"])
    def test_views_are_ragged_stores_and_weigh_their_cells(self, kind):
        database, batches = three_relation_batches(seed=3, total=600, batch_size=100)
        engine = relational_engine(kind)
        engine.initialize(database)
        for batch in batches:
            engine.apply_many(batch)
        assert engine.stats.fused_batches > 0
        report = engine.memory_report()
        names = engine.plan.layout.attributes
        ragged = set()
        for name, view in engine.materialized.items():
            assert isinstance(view, SlotStore), name
            entry = report[name]
            payloads = list(view.copy().data.values())
            if len({len(p.vals) for p in payloads}) > 1:
                ragged.add(name)
            assert entry["entries"] == len(view)
            assert entry["payload_weight"] == len(view) + sum(len(p.vals) for p in payloads)
            assert entry["support"] == tuple(names[i] for i in view.support)
            assert entry["capacity"] == view.capacity >= view.high
            assert entry["free_slots"] == len(view.free)
            assert "payload_cells" not in entry
        assert ragged  # rows of one view differ in width

    @pytest.mark.parametrize("kind", ["mi", "mixed"])
    def test_a_parent_commit_snapshot_restores_and_continues_bit_identically(self, kind):
        """The dict-ring engine *is* the parent commit's MI / general
        engine: its export is the snapshot format that commit wrote."""
        database, batches = three_relation_batches(seed=9, total=1200, batch_size=150)
        head, tail = batches[:4], batches[4:]
        straight, old = relational_engine(kind), relational_engine(kind, reference=True)
        for engine in (straight, old):
            engine.initialize(database)
            for batch in head:
                engine.apply_many(batch)
        assert old.stats.fused_batches == 0 < straight.stats.fused_batches
        legacy = pickle.loads(pickle.dumps(old.export_state()))
        assert all(
            isinstance(p, GeneralCofactor) for data in legacy["views"].values() for p in data.values()
        )
        restored = relational_engine(kind)
        restored.import_state(legacy)
        assert_views_agree(kind, restored, old)
        # ... and its own exports round-trip through their pickled form.
        again = relational_engine(kind)
        again.import_state(pickle.loads(pickle.dumps(straight.export_state())))
        for engine in (straight, restored, again, old):
            engine.apply_many(tail[0])  # fused (but for the dict ring)
            with row_mode():
                for batch in tail[1:]:
                    engine.apply_many(batch)
        assert again.stats.probe_steps == straight.stats.probe_steps > 0
        for other in (restored, again) if kind == "mi" else (again,):
            ours, theirs = straight.export_state()["views"], other.export_state()["views"]
            if other is again:
                # Key order too: its own export. The legacy engine's views
                # come from a row-mode load, a slot-store engine's from a
                # columnar one — only float association depends on it.
                assert {n: list(d) for n, d in ours.items()} == {n: list(d) for n, d in theirs.items()}
            assert {n: set(d) for n, d in ours.items()} == {n: set(d) for n, d in theirs.items()}
            assert all(ours[n][k] == theirs[n][k] for n in ours for k in ours[n])
        # (a mixed-COVAR snapshot of the dict engine differs from the sparse
        # engine's own state in the last bits of its float sums)
        assert_views_agree(kind, restored, straight)
        assert_views_agree(kind, restored, old)  # which never checkpointed

    def test_a_snapshot_outside_the_view_supports_is_refused(self):
        database, _ = three_relation_batches(seed=1, total=10, batch_size=10)
        engine = relational_engine("mi")
        engine.initialize(database)
        state = engine.export_state()
        root = next(iter(state["views"][engine.tree.root.name].values()))
        leaf = "V_Weather"
        state["views"][leaf] = {key: root for key in state["views"][leaf]}
        with pytest.raises(Exception, match="does not fit its subtree"):
            relational_engine("mi").import_state(state)

    @pytest.mark.parametrize("backend", ["serial", pytest.param("process", marks=needs_process)])
    @pytest.mark.parametrize("kind", ["mi", "mixed"])
    def test_two_shards_equal_a_single_engine(self, kind, backend):
        """Shard workers intern categories on their own (forked ones in
        their own processes); the roots they ship carry values."""
        database, batches = three_relation_batches(seed=7, total=600, batch_size=100)
        single = relational_engine(kind)
        single.initialize(database)
        config = EngineConfig(shards=2, backend=backend)
        with relational_engine(kind, config) as sharded:
            sharded.initialize(database)
            for batch in batches:
                single.apply_many(batch)
                sharded.apply_many(batch)
            ring, plan = single.plan.ring, single.plan
            ours, theirs = single.result().payload(()), sharded.result().payload(())
            if kind == "mi":
                assert ring.eq(ours, theirs)
                assert np.array_equal(
                    mutual_information_matrix(ours, plan).values,
                    mutual_information_matrix(theirs, plan).values,
                )
            else:
                assert ring.close(ours, theirs, 1e-9)
                a, b = covar_from_payload(ours, plan), covar_from_payload(theirs, plan)
                assert a.columns == b.columns
                assert np.allclose(a.moments, b.moments, rtol=1e-9)
            assert_views_agree(kind, single, sharded)


@settings(max_examples=10, deadline=None)
@given(
    kind=st.sampled_from(["mi", "mixed"]),
    seed=st.integers(0, 10_000),
    batch_size=st.sampled_from([1, 5, 20, 64, 250]),
    insert_ratio=st.sampled_from([0.2, 0.5, 0.8]),
)
def test_relational_fused_per_tuple_naive_and_dict_ring_agree(kind, seed, batch_size, insert_ratio):
    """MI and mixed COVAR with the fact table and two dimensions updated:
    fused ≡ per-tuple ≡ re-evaluation ≡ the dict ring the payloads used
    to live in — exactly for MI counts."""
    database, batches = three_relation_batches(seed, 500, batch_size, insert_ratio)
    fused, per_tuple = relational_engine(kind), relational_engine(kind)
    naive = NaiveEngine(  # re-evaluates when its result is read
        retailer_query(relational_spec(kind)), order=retailer_variable_order(),
    )
    old = relational_engine(kind, reference=True)
    for engine in (fused, per_tuple, naive, old):
        engine.initialize(database)
    for batch in batches:
        fused.apply_many(batch)
        naive.apply_many(batch)
        old.apply_many(batch)
        with row_mode():
            per_tuple.apply_many(batch)
    assert per_tuple.stats.fused_batches == 0
    if batch_size >= 64:
        assert fused.stats.fused_batches > 0
    assert fused.stats.delta_tuples_propagated == per_tuple.stats.delta_tuples_propagated
    assert_views_agree(kind, fused, per_tuple)
    assert_views_agree(kind, fused, old)
    ring = fused.plan.ring
    root, expected = fused.result().payload(()), naive.result().payload(())
    assert ring.eq(root, expected) if kind == "mi" else ring.close(root, expected, 1e-9)
