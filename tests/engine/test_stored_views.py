"""Which views F-IVM and its baseline policies store, and that dropping
the others changes nothing.

After initialization the engine stores every view. Once a relation has
received a delta ("observed"), the engine keeps a view stored only if it
is the root, a leaf, or a sibling some observed relation's path probes;
the inner views on an observed path that no such path probes are
dropped, and re-derived from their children whenever something reads
them. These tests pin that rule on the retailer tree, check every read
of a dropped view against the view computed in sqlite over the current
database (``tests/sql_oracle.py``), and check that the rebuild a newly
observed relation triggers happens once. First-order IVM stores only the
leaves and the root, re-evaluation only the leaves; their reads derive
the rest recursively.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineConfig, create_engine
from repro.data import Relation
from repro.datasets import (
    RetailerConfig,
    UpdateStream,
    continuous_covar_features,
    generate_retailer,
    retailer_query,
    retailer_row_factories,
    retailer_variable_order,
    toy_count_query,
    toy_covar_continuous_query,
    toy_database,
    toy_mi_query,
    toy_row_factories,
    toy_variable_order,
)
from repro.engine import (
    FirstOrderEngine,
    FIVMEngine,
    NaiveEngine,
    PerAggregateEngine,
    available_backends,
)
from repro.rings import CountSpec, CovarSpec, Feature, MISpec, SumSpec
from repro.testing import FaultInjector, FaultSpec, clear_injector, install_injector
from repro.viewtree import build_view_tree

from tests.sql_oracle import COVAR_RTOL, SqlOracle

needs_process = pytest.mark.skipif(
    "process" not in available_backends(), reason="fork unavailable"
)

CONFIG = RetailerConfig(locations=4, dates=6, items=20, inventory_rows=300, seed=11)
DECAY_RATE = 0.9
#: Rings whose arithmetic is exact on these data (counts; MI counts are
#: integer-valued floats): every read must equal sqlite's exactly.
EXACT = ("count", "mi")


def retailer_spec(payload):
    if payload == "count":
        return CountSpec()
    if payload == "mi":
        return MISpec(
            (
                Feature.categorical("ksn"),
                Feature.categorical("subcategory"),
                Feature.categorical("rain"),
            )
        )
    return CovarSpec(continuous_covar_features(limit=3))


TOY_QUERIES = {
    "count": toy_count_query,
    "covar": toy_covar_continuous_query,
    "mi": toy_mi_query,
    "decay": toy_covar_continuous_query,
}


def scenario(dataset, payload):
    """``(query, order, database, insert factories, config)``."""
    config = EngineConfig(decay=f"{DECAY_RATE}/1000000") if payload == "decay" else None
    if dataset == "toy":
        query = TOY_QUERIES[payload]()
        return query, toy_variable_order(), toy_database(), toy_row_factories(), config
    database = generate_retailer(CONFIG)
    query = retailer_query(retailer_spec(payload))
    factories = retailer_row_factories(CONFIG, database)
    return query, retailer_variable_order(), database, factories, config


def draw_delta(shadow, factories, name, size, seed):
    """A delta of about ``size`` updates to ``name``: deletes of live
    rows, inserts from the factory (or another copy of a live row for
    relations without one). ``None`` when it came out empty."""
    rng = np.random.default_rng(seed)
    relation = shadow.relation(name)
    live = list(relation.data)
    factory = factories.get(name)
    data = {}
    for _ in range(size):
        if live and (factory is None or rng.random() < 0.5) and rng.random() < 0.5:
            key = live[int(rng.integers(len(live)))]
            if relation.data[key] + data.get(key, 0) > 0:
                data[key] = data.get(key, 0) - 1
            continue
        if factory is not None:
            row = tuple(factory(rng))
        elif live:
            row = live[int(rng.integers(len(live)))]
        else:
            continue
        data[row] = data.get(row, 0) + 1
    delta = Relation(relation.schema, name=name)
    delta.data = {key: m for key, m in data.items() if m}
    return delta if delta.data else None


def inner_view_count(engine):
    return sum(not view.is_leaf for view in engine.tree.views.values())


def assert_stored_set(engine, observed):
    """The stored-set rule of the engine's policy, view by view."""
    stored = set(engine.materialized)
    tree = engine.tree
    leaves = {view.name for view in tree.leaf_of.values()}
    if engine.keeps == "probed":
        plan = engine.probe_plan
        probed = {
            step.sibling
            for name in observed
            for steps in plan.path_steps[name]
            for step in steps
        }
        on_paths = {
            view.name for name in observed for view in tree.path_to_root(name)[1:]
        }
        assert tree.root.name in stored
        assert leaves <= stored
        assert probed <= stored
        assert not (on_paths - probed - {tree.root.name}) & stored
    elif engine.keeps == "root":
        assert stored == leaves | {tree.root.name}
    else:
        assert stored == leaves
    assert set(engine.stats.view_sizes) == stored
    assert engine.total_view_tuples() == sum(len(v) for v in engine.materialized.values())
    report = engine.memory_report()
    assert set(report) == set(tree.views)
    for name, entry in report.items():
        if name in stored:
            assert entry["stored"] and entry["entries"] == len(engine.materialized[name])
        else:
            assert entry == {"entries": 0, "stored": False}


def assert_matches_oracle(engine, relations, reference_tree, exact):
    """Root and every view read through ``view()`` equal the view computed
    from sqlite's joined rows over ``relations``."""
    expected = SqlOracle(relations).views(reference_tree)
    engine.result()  # settles pending decay into the stored views
    for name, want in expected.items():
        got = engine.view(name).copy()
        if exact:
            assert got == want, name
        else:
            assert got.close_to(want, 1e-7), name
    root = engine.result()
    want = expected[engine.tree.root.name]
    assert root == want if exact else root.close_to(want, 1e-7)


STEP = st.one_of(
    st.tuples(
        st.just("delta"),
        st.integers(0, 4),  # an observed relation, or the next new one
        st.sampled_from([1, 3, 12]),  # 12 >= COLUMNAR_MIN_DELTA: fused path
        st.integers(0, 2**16),
    ),
    st.sampled_from([("restore",), ("tick",)]),  # tick: decayed engines only
)


@pytest.mark.parametrize("payload", ["count", "covar", "mi", "decay"])
@pytest.mark.parametrize("dataset", ["toy", "retailer"])
@settings(max_examples=15)
@given(data=st.data())
def test_reads_equal_sqlite_whatever_the_observation_order(dataset, payload, data):
    check_reads_against_sqlite(create_engine, dataset, payload, data)


@pytest.mark.parametrize("policy", [FirstOrderEngine, NaiveEngine], ids=lambda cls: cls.strategy)
@pytest.mark.parametrize("payload", ["count", "covar", "mi", "decay"])
@pytest.mark.parametrize("dataset", ["toy", "retailer"])
@settings(max_examples=10)
@given(data=st.data())
def test_baseline_reads_equal_sqlite(policy, dataset, payload, data):
    """The baselines derive every view they do not store, recursively
    down to the leaves, decayed or not, across restores."""
    check_reads_against_sqlite(policy, dataset, payload, data)


def check_reads_against_sqlite(factory, dataset, payload, data):
    """Drawn deltas, restores and decay ticks; after each step the
    stored set follows the engine's policy and every read equals
    sqlite. ``factory(query, config=, order=)`` builds the engine."""
    query, order, database, factories, config = scenario(dataset, payload)
    first_deltas = data.draw(st.permutations(sorted(query.relation_names)))
    steps = data.draw(st.lists(STEP, min_size=1, max_size=8))

    def build():
        return factory(query, config=config, order=order)

    engine = build()
    engine.initialize(database)
    reference_tree = build_view_tree(query, order=order, plan=query.build_plan())
    shadow = database.copy()
    # Decayed reference: every multiplicity weighted by rate ** its age.
    weights = {}
    for name in query.relation_names:
        base = shadow.relation(name)
        weights[name] = Relation(base.schema, name=name, data=dict(base.data))
    observed = []
    exact = payload in EXACT
    for step in steps:
        kind = step[0]
        if kind == "delta":
            _kind, pick, size, seed = step
            name = first_deltas[min(pick, len(observed), len(first_deltas) - 1)]
            delta = draw_delta(shadow, factories, name, size, seed)
            if delta is None:
                continue
            engine.apply(name, delta)
            shadow.apply(name, delta)
            weights[name].add_inplace(delta)
            if name not in observed:
                observed.append(name)
        elif kind == "tick":
            if payload != "decay":
                continue
            engine.advance_decay(1)
            for relation in weights.values():
                relation.data = {k: w * DECAY_RATE for k, w in relation.data.items()}
        elif kind == "restore":
            state = pickle.loads(pickle.dumps(engine.export_state()))
            engine = build()
            engine.import_state(state)
            observed = []  # a restore stores every view again
        # Every step ends in reads: memory report, view() of every view.
        assert_stored_set(engine, observed)
        assert_matches_oracle(engine, weights, reference_tree, exact)
        assert engine.stats.views_rebuilt <= inner_view_count(engine)


# ----------------------------------------------------------------------
# Deterministic cases on the retailer tree
# ----------------------------------------------------------------------


def inventory_stream(database, seed=3, batch_size=100):
    return UpdateStream(
        database,
        retailer_row_factories(CONFIG, database),
        targets=("Inventory",),
        batch_size=batch_size,
        insert_ratio=0.5,
        seed=seed,
    )


def mixed_batches(database, count=2):
    """Inventory, then Weather, then alternating batches of 10 updates."""
    stream = UpdateStream(
        database, retailer_row_factories(CONFIG, database),
        targets=("Inventory", "Weather"), batch_size=10, seed=4,
    )
    batches = list(stream.batches(count))
    assert [name for name, _delta in batches[:2]] == ["Inventory", "Weather"]
    return batches


def location_delta(database):
    """Another copy of one Location row (Location has no insert factory)."""
    relation = database.relation("Location")
    delta = Relation(relation.schema, name="Location")
    delta.data[next(iter(relation.data))] = 1
    return delta


class TestStoredSet:
    def test_inventory_only_drops_the_two_unprobed_inner_views(self):
        database = generate_retailer(CONFIG)
        engine = FIVMEngine(retailer_query(retailer_spec("covar")), order=retailer_variable_order())
        engine.initialize(database)
        assert set(engine.materialized) == set(engine.tree.views)
        engine.apply(*inventory_stream(database).next_batch())
        assert set(engine.tree.views) - set(engine.materialized) == {"V@ksn", "V@dateid"}
        assert engine.stats.views_rebuilt == 0

    def test_a_batch_of_inventory_and_weather_keeps_v_ksn_without_a_rebuild(self):
        database = generate_retailer(CONFIG)
        engine = FIVMEngine(retailer_query(retailer_spec("mi")), order=retailer_variable_order())
        engine.initialize(database)
        engine.apply_many(list(mixed_batches(database)))
        assert set(engine.tree.views) - set(engine.materialized) == {"V@dateid"}
        assert engine.stats.views_rebuilt == 0

    def test_weather_after_inventory_rebuilds_v_ksn_once(self):
        database = generate_retailer(CONFIG)
        engine = FIVMEngine(retailer_query(retailer_spec("mi")), order=retailer_variable_order())
        engine.initialize(database)
        for name, delta in mixed_batches(database, 6):
            engine.apply(name, delta)
        assert set(engine.tree.views) - set(engine.materialized) == {"V@dateid"}
        assert engine.stats.views_rebuilt == 1

    def test_first_location_delta_after_1000_inventory_deltas_rebuilds_once(self):
        database = generate_retailer(CONFIG)
        query = retailer_query(retailer_spec("count"))
        engine = FIVMEngine(query, order=retailer_variable_order())
        engine.initialize(database)
        stream = inventory_stream(database, batch_size=1)
        for name, delta in stream.batches(1000):
            engine.apply(name, delta)
        assert engine.stats.batches_applied == 1000
        assert engine.stats.views_rebuilt == 0
        location = location_delta(database)
        for _ in range(3):
            engine.apply("Location", location)
        # V@dateid is rebuilt (through a re-derived V@ksn, which stays
        # dropped) and from then on maintained by Inventory deltas too.
        assert engine.stats.views_rebuilt == 1
        assert "V@dateid" in engine.materialized
        assert "V@ksn" not in engine.materialized
        for name, delta in stream.batches(20):
            engine.apply(name, delta)
        assert engine.stats.views_rebuilt == 1
        shadow = stream.shadow.copy()
        for _ in range(3):
            shadow.apply("Location", location)
        expected = SqlOracle(shadow).views(engine.tree)
        assert engine.view("V@dateid") == expected["V@dateid"]
        assert engine.result() == expected[engine.tree.root.name]

    def test_shard_workers_observe_a_whole_batch(self):
        """Each shard hears a coalesced batch's relations before its first
        slice, and a recovered shard hears its replay log's: on Inventory
        + Weather batches no shard drops V@ksn only to rebuild it."""
        database = generate_retailer(CONFIG)
        engine = create_engine(
            retailer_query(retailer_spec("mi")),
            config=EngineConfig(shards=2, backend="serial", supervise=True),
            order=retailer_variable_order(),
        )
        with engine:
            engine.initialize(database)
            engine.apply_many(list(mixed_batches(database)))
            engine.result()
            # A shard restored from the baseline replays the same batch.
            install_injector(FaultInjector((FaultSpec("kill", site="worker.reply", op="result", shard=0),)))
            try:
                engine.result()
            finally:
                clear_injector()
            assert engine.health()["recoveries"] == 1
            for channel in engine._backend.connections:
                shard = channel.worker.engine
                assert set(shard.tree.views) - set(shard.materialized) == {"V@dateid"}
                assert shard.stats.views_rebuilt == 0

    def test_per_aggregate_engines_observe_a_whole_batch(self):
        database = generate_retailer(CONFIG)
        engine = PerAggregateEngine(
            retailer_query(CountSpec()), continuous_covar_features(limit=2),
            order=retailer_variable_order(),
        )
        engine.initialize(database)
        engine.apply_many(list(mixed_batches(database)))
        for sub in engine.engines.values():
            assert set(sub.tree.views) - set(sub.materialized) == {"V@dateid"}
            assert sub.stats.views_rebuilt == 0

    def test_view_of_a_dropped_view_is_not_stored_again(self):
        database = generate_retailer(CONFIG)
        engine = FIVMEngine(retailer_query(CountSpec()), order=retailer_variable_order())
        engine.initialize(database)
        engine.apply(*inventory_stream(database, batch_size=5).next_batch())
        before = engine.total_view_tuples()
        assert len(engine.view("V@ksn")) > 0
        assert "V@ksn" not in engine.materialized
        assert engine.total_view_tuples() == before
        assert engine.memory_report()["V@ksn"] == {"entries": 0, "stored": False}


def mi_stream_batches(database, count=8):
    stream = UpdateStream(
        database, retailer_row_factories(CONFIG, database),
        targets=("Inventory", "Weather"), batch_size=12, insert_ratio=0.5, seed=9,
    )
    return list(stream.batches(count))


class TestSnapshots:
    def test_checkpoint_with_dropped_views_restores_and_continues_identically(self):
        database = generate_retailer(CONFIG)
        query = retailer_query(retailer_spec("covar"))
        straight = FIVMEngine(query, order=retailer_variable_order())
        writer = FIVMEngine(query, order=retailer_variable_order())
        stream = inventory_stream(database, batch_size=40)
        head, tail = list(stream.batches(4)), list(stream.batches(4))
        for engine in (straight, writer):
            engine.initialize(database)
            for name, delta in head:
                engine.apply(name, delta)
        assert "V@ksn" not in writer.materialized
        state = pickle.loads(pickle.dumps(writer.export_state()))
        assert set(state["views"]) == set(writer.tree.views)
        restored = FIVMEngine(query, order=retailer_variable_order())
        restored.import_state(state)
        assert set(restored.materialized) == set(restored.tree.views)
        for engine in (straight, restored):
            for name, delta in tail:
                engine.apply(name, delta)
        assert set(restored.materialized) == set(straight.materialized)
        # Stored views continue bit for bit; exports re-derive the rest
        # from identical stored children.
        assert pickle.dumps(restored.export_state()["views"]) == pickle.dumps(
            straight.export_state()["views"]
        )

    @pytest.mark.parametrize("payload", ["covar", "count", "sum"])
    def test_re_derivation_equals_sqlite_and_counts_nothing(self, payload):
        """Exports and reads re-derive dropped views up an observed path's
        program — one block on slot stores, row mode on the dict views
        of count and sum — equal to the views computed in sqlite, and
        leave the maintenance counters where they were."""
        database = generate_retailer(CONFIG)
        spec = SumSpec("inventoryunits") if payload == "sum" else retailer_spec(payload)
        engine = FIVMEngine(retailer_query(spec), order=retailer_variable_order())
        engine.initialize(database)
        stream = inventory_stream(database, batch_size=40)
        for name, delta in stream.batches(3):
            engine.apply(name, delta)
        assert engine.stats.fused_batches == (3 if payload == "covar" else 0)
        assert {"V@ksn", "V@dateid"}.isdisjoint(engine.materialized)
        before = engine.stats.snapshot()
        views = engine.export_state()["views"]
        assert set(engine._derive("V@dateid")) == {"V@ksn", "V@dateid"}
        assert engine.stats.snapshot() == before
        expected = SqlOracle(stream.shadow).views(engine.tree)
        # Count and sum over the integer inventoryunits are exact.
        exact = payload != "covar"
        for name in ("V@ksn", "V@dateid"):
            want = expected[name]
            exported = Relation(want.schema, engine.plan.ring, data=views[name])
            for got in (exported, engine.view(name)):
                assert len(got) == len(want), name
                assert got == want if exact else got.close_to(want, COVAR_RTOL), name

    def test_export_lists_views_in_evaluation_order(self):
        database = generate_retailer(CONFIG)
        engine = FIVMEngine(retailer_query(CountSpec()), order=retailer_variable_order())
        engine.initialize(database)
        engine.apply(*inventory_stream(database, batch_size=5).next_batch())
        order = [view.name for view in engine.tree.all_views()]
        assert list(engine.export_state()["views"]) == order
        assert list(engine.memory_report()) == order

    @pytest.mark.parametrize(
        "backend", ["serial", pytest.param("process", marks=needs_process)]
    )
    def test_two_shards_equal_one_engine(self, backend):
        database = generate_retailer(CONFIG)
        query = retailer_query(retailer_spec("mi"))
        single = create_engine(query, order=retailer_variable_order())
        sharded = create_engine(
            query, config=EngineConfig(shards=2, backend=backend),
            order=retailer_variable_order(),
        )
        try:
            batches = mi_stream_batches(database)
            for engine in (single, sharded):
                engine.initialize(database)
                for name, delta in batches:
                    engine.apply(name, delta)
            assert sharded.result() == single.result()
            # Each shard re-derives its dropped V@dateid for the export.
            assert sharded.export_state()["views"] == single.export_state()["views"]
            for engine in (single, sharded):
                report = engine.memory_report()
                assert report["V@ksn"]["stored"] and not report["V@dateid"]["stored"]
        finally:
            sharded.close()


# ----------------------------------------------------------------------
# Guard: the stored set of a bulk-shaped run
# ----------------------------------------------------------------------


def stored_views_in_a_bulk_run(engine_cls=FIVMEngine):
    """Stored and dropped views after two warm ~1000-row Inventory
    batches shaped like ``retailer_covar_bulk``'s (32 locations x 90
    dates x 900 items), on an engine of the given storage policy."""
    config = RetailerConfig(
        locations=32, dates=90, items=900, inventory_rows=3000, seed=5
    )
    database = generate_retailer(config)
    engine = engine_cls(
        retailer_query(CovarSpec(continuous_covar_features(limit=3))),
        order=retailer_variable_order(),
    )
    engine.initialize(database)
    stream = UpdateStream(
        database,
        retailer_row_factories(config, database),
        targets=("Inventory",),
        batch_size=1000,
        insert_ratio=0.5,
        seed=5,
    )
    for _ in range(2):
        engine.apply(*stream.next_batch())
    assert engine.stats.fused_batches == 2
    report = engine.memory_report()
    return {
        "stored": tuple(name for name, entry in report.items() if entry["stored"]),
        "dropped": tuple(name for name, entry in report.items() if not entry["stored"]),
    }


LEAVES = ("V_Weather", "V_Inventory", "V_Item", "V_Location", "V_Census")
#: F-IVM's stored set after an Inventory-only bulk run.
FIVM_BULK_SET = {
    "stored": LEAVES + ("V@zip", "V@locn"),
    "dropped": ("V@ksn", "V@dateid"),
}


def test_stored_views_in_a_bulk_run():
    """Pinned: an Inventory-only run keeps the root, the five leaves and
    V@zip (probed by Inventory's path) and drops V@ksn and V@dateid,
    which no Inventory path step probes. A view that starts being
    scattered into on the bulk path again shows here."""
    assert stored_views_in_a_bulk_run() == FIVM_BULK_SET


def stored_views_per_policy():
    """:func:`stored_views_in_a_bulk_run` of every storage policy, by
    strategy name."""
    return {
        cls.strategy: stored_views_in_a_bulk_run(cls)
        for cls in (FIVMEngine, FirstOrderEngine, NaiveEngine)
    }


def test_stored_views_per_policy():
    """Pinned: F-IVM's set as above; first-order stores exactly the
    leaves and the root, re-evaluation exactly the leaves."""
    report = stored_views_per_policy()
    assert report["fivm"] == FIVM_BULK_SET
    assert report["first-order"] == {
        "stored": LEAVES + ("V@locn",),
        "dropped": ("V@ksn", "V@dateid", "V@zip"),
    }
    assert report["naive"] == {
        "stored": LEAVES,
        "dropped": ("V@ksn", "V@dateid", "V@zip", "V@locn"),
    }
