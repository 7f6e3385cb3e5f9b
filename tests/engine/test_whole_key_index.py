"""Which indexes a probe reads: the view itself on its whole key, a
bucket index only on part of it.

F-IVM joins a delta with the sibling views on its leaf-to-root path.
Where the delta carries a sibling's whole key, in key order, the index
is the sibling's own key map (``RelationIndex.whole``: no bucket dict,
row mode does one ``get``); where it carries part of the key — a
dimension update probing a fact leaf, a free variable carried above a
bound one — a partial index keeps ``hook -> keys`` buckets, never
payloads. These tests pin which kind each scenario's traffic reads:
the update streams of the serving scenarios and of the benchmark's
workloads probe whole keys only, and the partial specs the trees
register are exactly the dimension-to-fact probes no such stream runs.
On a free-variable query, whose updates do read a partial index, row
mode, columnar mode and sqlite agree while keys come and go under one
shared hook.

``PYTHONPATH=src:. python -c 'from tests.engine.test_whole_key_index
import index_kinds_on_bench_scenarios as f; print(f())'`` prints the
whole-key / partial indexes a bench-shaped run builds.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_serving_scenario
from repro.data import Relation
from repro.datasets import (
    RetailerConfig,
    UpdateStream,
    continuous_covar_features,
    generate_retailer,
    retailer_query,
    retailer_row_factories,
    retailer_variable_order,
)
from repro.engine import FIVMEngine
from repro.engine.base import EngineStatistics
from repro.query import Query
from repro.rings import CountSpec, CovarSpec, Feature
from repro.viewtree import build_view_tree
from repro.viewtree.builder import build_probe_plan

from tests.conftest import assert_same_as_rebuilt, row_mode
from tests.engine.test_free_variables import R, S, db, order_free_below
from tests.engine.test_initialize import BENCH_SEED
from tests.sql_oracle import SqlOracle

SCENARIOS = [
    (dataset, payload)
    for dataset in ("toy", "retailer", "favorita")
    for payload in ("count", "covar", "mi")
]

#: The index specs that hash part of a view's key: a fact leaf probed on
#: the key of the dimension relation whose update reaches it.
PARTIAL_SPECS = {
    "toy": set(),
    "retailer": {("V_Inventory", ("ksn",)), ("V_Location", ("zip",))},
    "favorita": {("V_Transactions", ("store",)), ("V_Sales", ("item",))},
}


def partial_specs(tree, plan):
    return {
        (view, attrs)
        for view, specs in plan.index_specs.items()
        for attrs in specs
        if attrs != tuple(tree.views[view].key)
    }


@pytest.mark.parametrize("dataset,payload", SCENARIOS)
def test_scenario_traffic_probes_whole_keys(dataset, payload):
    """Every probe on an updated relation's path carries the sibling's
    whole key in key order; the partial specs are only the dimension
    updates' probes into fact leaves."""
    scenario = build_serving_scenario(dataset, payload)
    tree = build_view_tree(scenario.query, scenario.order)
    plan = build_probe_plan(tree)
    assert partial_specs(tree, plan) == PARTIAL_SPECS[dataset]
    for relation in scenario.targets:
        for steps in plan.path_steps[relation]:
            for step in steps:
                assert step.attrs == tuple(tree.views[step.sibling].key), step


def built_indexes(engine):
    return [
        index
        for view in engine.materialized.values()
        for index in getattr(view, "indexes", {}).values()
    ]


def assert_indexes_hold_keys_only(engine):
    """No whole-key index holds a bucket dict, no bucket a payload, and
    every index covers its view's keys."""
    for index in built_indexes(engine):
        assert (index.buckets is None) == index.whole
        if not index.whole:
            for hook, bucket in index.buckets.items():
                assert bucket and set(bucket.values()) == {None}
                assert all(index.hook_of(key) == hook for key in bucket)
        assert index.entry_count() == len(index.view)


def bench_runs():
    """``name -> engine`` after a few batches shaped like the benchmark's
    workloads: their queries, targets and batch sizes over small data."""
    config = RetailerConfig(locations=32, dates=90, items=900, inventory_rows=3000, seed=5)
    database = generate_retailer(config)
    covar = retailer_query(CovarSpec(continuous_covar_features(limit=12)))
    retailer = (covar, retailer_variable_order(), database,
                retailer_row_factories(config, database))
    mi = build_serving_scenario("retailer", "mi", seed=BENCH_SEED)
    favorita = build_serving_scenario("favorita", "covar", seed=BENCH_SEED)
    shapes = {
        "retailer_covar_bulk": (retailer, ("Inventory",), 1000, 3),
        "retailer_covar_trickle": (retailer, ("Inventory",), 1, 200),
        "retailer_mi_mixed": (
            (mi.query, mi.order, mi.database, mi.factories),
            ("Inventory", "Weather"), 100, 6,
        ),
        "favorita_sharded_serve": (
            (favorita.query, favorita.order, favorita.database, favorita.factories),
            ("Sales",), 500, 3,
        ),
    }
    for name, ((query, order, data, factories), targets, size, count) in shapes.items():
        engine = FIVMEngine(query, order=order)
        engine.initialize(data)
        stream = UpdateStream(
            data, factories, targets=targets, batch_size=size, insert_ratio=0.5, seed=5
        )
        for _ in range(count):
            engine.apply(*stream.next_batch())
        yield name, engine


def index_kinds(engine):
    """The whole-key and partial indexes ``engine`` built, and the
    buckets the partial ones hold."""
    indexes = built_indexes(engine)
    whole = sum(index.whole for index in indexes)
    return {
        "whole": whole,
        "partial": len(indexes) - whole,
        "buckets": sum(len(index.buckets) for index in indexes if not index.whole),
    }


def index_kinds_on_bench_scenarios():
    """:func:`index_kinds` per bench-shaped run."""
    return {name: index_kinds(engine) for name, engine in bench_runs()}


def test_bench_shaped_runs_build_whole_key_indexes_only():
    for name, engine in bench_runs():
        kinds = index_kinds(engine)
        assert kinds["whole"] and not kinds["partial"] and not kinds["buckets"], name
        assert_indexes_hold_keys_only(engine)


# ----------------------------------------------------------------------
# A free-variable query: a partial index under keys that come and go
# ----------------------------------------------------------------------

SPECS = {
    "count": CountSpec,
    "covar": lambda: CovarSpec((Feature.continuous("C"),)),
}


def free_query(payload):
    """The free-variable query of ``test_free_variables``: under
    ``order_free_below()`` (A bound above B free) V@B is keyed (A, B)
    and S's path probes it on A alone."""
    return Query("Q", (R, S), spec=SPECS[payload](), free=("B",))


def test_the_free_variable_query_registers_a_partial_index():
    tree = build_view_tree(free_query("count"), order_free_below())
    plan = build_probe_plan(tree)
    assert partial_specs(tree, plan) == {("V@B", ("A",))}


#: One step: R rows ``(A, B)`` to insert and to delete — all under hook
#: A of V@B's partial index — then S rows to insert (probing V@B on A).
hooks = st.integers(0, 2)
steps = st.lists(
    st.tuples(
        st.lists(st.tuples(hooks, st.integers(10, 15)), max_size=4, unique=True),
        st.lists(st.tuples(hooks, st.integers(7, 9)), min_size=1, max_size=3, unique=True),
        st.booleans(),
    ),
    min_size=1,
    max_size=5,
)


def delta(schema, rows, sign):
    return Relation(schema, data={row: sign for row in rows})


@pytest.mark.parametrize("payload", sorted(SPECS))
@settings(max_examples=25, deadline=None)
@given(steps=steps)
def test_row_and_columnar_modes_equal_sqlite_as_keys_come_and_go(payload, steps):
    """R inserts and deletes add and remove V@B keys under shared hooks
    between S updates that probe V@B on A alone: the case a partial
    index's probe arrays are dropped and built again for. Row mode,
    columnar mode (on slot stores) and sqlite agree after every step,
    and every index holds keys only."""
    database = db()
    query = free_query(payload)
    engines = {mode: FIVMEngine(query, order=order_free_below()) for mode in ("row", "columnar")}
    for engine in engines.values():
        engine.initialize(database)
    oracle = SqlOracle(db())
    live = set(database.relation("R").data)
    for inserted, s_rows, delete_first in steps:
        doomed = sorted(live)[: len(inserted)] if delete_first else []
        born = [row for row in inserted if row not in live]
        updates = [("R", delta(("A", "B"), doomed, -1)), ("R", delta(("A", "B"), born, 1)),
                   ("S", delta(("A", "C"), s_rows, 1))]
        live = (live - set(doomed)) | set(born)
        for name, update in updates:
            if not update.data:
                continue
            with row_mode():
                engines["row"].apply(name, update.copy())
            with mock.patch.object(EngineStatistics, "COLUMNAR_MIN_DELTA", 1):
                engines["columnar"].apply(name, update.copy())
            oracle.apply(name, update)
        want = oracle.result(engines["row"])
        for mode, engine in engines.items():
            assert engine.result() == want, mode
            assert_indexes_hold_keys_only(engine)
    v_b = engines["columnar"].materialized["V@B"]
    index = v_b.indexes[("A",)]
    assert not index.whole
    if payload == "covar":
        assert engines["columnar"].stats.fused_batches > 0
        if index.cache is not None:
            assert_same_as_rebuilt(index)
