"""Initialization by maintenance.

When every relation of the query has a compiled fused path, F-IVM
initializes by installing empty views and loading each base relation up
its own path as insert deltas of ``_LOAD_CHUNK_ROWS`` rows, smallest
relation first. These tests pin that the loaded views are the evaluated
ones, that nothing of the load is visible afterwards (counters, observed
relations, built indexes, the caller's database), that rings without
fused paths still evaluate the tree, and what a load costs on the
benchmark's bulk and MI scenarios.
"""

import pickle
import tracemalloc
from collections import Counter
from contextlib import ExitStack
from itertools import islice
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.fivm as fivm
from repro import EngineConfig, build_serving_scenario, create_engine
from repro.data import Database, Relation
from repro.datasets import (
    RetailerConfig,
    continuous_covar_features,
    generate_retailer,
    retailer_query,
    retailer_variable_order,
    toy_covar_categorical_query,
    toy_covar_continuous_query,
    toy_database,
    toy_mi_query,
    toy_variable_order,
)
from repro.engine import FIVMEngine, NaiveEngine, available_backends, evaluate_tree
from repro.errors import EngineError
from repro.rings import CountSpec, CovarSpec, Feature, MISpec

needs_process = pytest.mark.skipif(
    "process" not in available_backends(), reason="fork unavailable"
)

CONFIG = RetailerConfig(locations=4, dates=6, items=20, inventory_rows=300, seed=11)

TOY_QUERIES = {
    "covar": toy_covar_continuous_query,
    "decay": toy_covar_continuous_query,
    "mi": toy_mi_query,
    "mixed": toy_covar_categorical_query,
}


def retailer_spec(payload):
    if payload == "mi":
        return MISpec(
            (
                Feature.categorical("ksn"),
                Feature.categorical("subcategory"),
                Feature.categorical("rain"),
            )
        )
    if payload == "mixed":
        return CovarSpec(
            (
                Feature.categorical("subcategory"),
                Feature.continuous("prize"),
                Feature.continuous("inventoryunits"),
                Feature.categorical("rain"),
                Feature.continuous("maxtemp"),
            )
        )
    return CovarSpec(continuous_covar_features(limit=3))


def scenario(dataset, payload):
    """``(query, order, database, config)``."""
    config = EngineConfig(decay="0.9/1000000") if payload == "decay" else None
    if dataset == "toy":
        return TOY_QUERIES[payload](), toy_variable_order(), toy_database(), config
    query = retailer_query(retailer_spec(payload))
    return query, retailer_variable_order(), generate_retailer(CONFIG), config


def truncated(database, sizes):
    """A copy of ``database`` keeping the first ``sizes[name]`` rows of a
    relation (all of them where the size is ``None``)."""
    copy = Database()
    for relation in database:
        rows = islice(relation.data.items(), sizes.get(relation.name))
        copy.add(Relation(relation.schema, name=relation.name, data=dict(rows)))
    return copy


def evaluated_views(engine, database):
    expected = {}
    relations = {name: database.relation(name) for name in engine.query.relation_names}
    evaluate_tree(engine.tree, relations, expected)
    return expected


def assert_views_equal_evaluation(engine, database, exact):
    for name, want in evaluated_views(engine, database).items():
        got = engine.view(name).copy()
        assert set(got.data) == set(want.data), name
        assert got == want if exact else got.close_to(want, 1e-9), name


def counters(engine):
    return {k: v for k, v in engine.stats.snapshot().items() if not k.startswith("view:")}


def assert_nothing_of_the_load_shows(engine, never_initialized):
    assert counters(engine) == counters(never_initialized)
    assert engine.stats.stage_seconds == {}
    assert engine._observed == set()
    assert engine.stats.views_rebuilt == 0
    assert set(engine.materialized) == set(engine.tree.views)
    assert engine.stats.view_sizes == {
        name: len(view) for name, view in engine.materialized.items()
    }
    specs = engine.probe_plan.index_specs
    for name, view in engine.materialized.items():
        assert view.indexes == {}, name
        assert view.pending == {tuple(attrs) for attrs in specs.get(name, ())}, name


def growth_delta(database):
    """Another copy of up to 12 rows of the largest relation (``None``
    when the database is empty)."""
    relation = max(database, key=len)
    if not relation.data:
        return None
    delta = Relation(relation.schema, name=relation.name)
    delta.data = {key: 1 for key in islice(relation.data, 12)}
    return delta


@pytest.mark.parametrize("payload", ["covar", "mi", "mixed", "decay"])
@pytest.mark.parametrize("dataset", ["toy", "retailer"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_a_chunked_load_is_the_evaluated_database(dataset, payload, data):
    query, order, full, config = scenario(dataset, payload)
    # Chunk sizes below and above COLUMNAR_MIN_DELTA; each relation 0 to
    # 3 chunks long, or whole.
    chunk = data.draw(st.sampled_from([2, 5, 12]), label="chunk")
    sizes = {
        name: data.draw(st.none() | st.integers(0, 3 * chunk), label=name)
        for name in sorted(query.relation_names)
    }
    database = truncated(full, sizes)

    def build():
        return create_engine(query, config=config, order=order)

    engine = build()
    assert len(engine._fused_paths) == len(engine._paths)
    with mock.patch.object(fivm, "_LOAD_CHUNK_ROWS", chunk):
        engine.initialize(database)
    assert_views_equal_evaluation(engine, database, exact=payload == "mi")
    assert_nothing_of_the_load_shows(engine, build())
    # A restore of the loaded engine continues as the loaded engine does.
    restored = build()
    restored.import_state(pickle.loads(pickle.dumps(engine.export_state())))
    delta = growth_delta(database)
    if delta is not None:
        for each in (engine, restored):
            each.apply(delta.name, delta)
    ours, theirs = engine.export_state()["views"], restored.export_state()["views"]
    assert {n: list(d) for n, d in ours.items()} == {n: list(d) for n, d in theirs.items()}
    assert all(ours[n][k] == theirs[n][k] for n in ours for k in ours[n])


# ----------------------------------------------------------------------
# Deterministic cases
# ----------------------------------------------------------------------


@pytest.mark.parametrize("payload", ["covar", "mi"])
def test_the_callers_database_is_left_alone(payload):
    query, order, database, _config = scenario("retailer", payload)
    before = {relation.name: dict(relation.data) for relation in database}
    engine = FIVMEngine(query, order=order)
    engine.initialize(database)
    assert {relation.name: dict(relation.data) for relation in database} == before
    assert all(relation._columnar is None for relation in database)
    root = engine.result()
    inventory = database.relation("Inventory")
    delta = Relation(inventory.schema, name="Inventory")
    delta.data = {key: 1 for key in islice(inventory.data, 50)}
    database.apply("Inventory", delta)
    assert engine.result() == root


@pytest.mark.parametrize(
    "payload, evaluates", [("count", True), ("covar", False), ("mi", False)]
)
def test_only_engines_whose_programs_cannot_run_columnar_evaluate_the_tree(
    payload, evaluates
):
    query = retailer_query(CountSpec() if payload == "count" else retailer_spec(payload))
    database = generate_retailer(CONFIG)
    engine = FIVMEngine(query, order=retailer_variable_order())
    with mock.patch.object(fivm, "evaluate_tree", wraps=fivm.evaluate_tree) as spy:
        engine.initialize(database)
    assert spy.called is evaluates
    assert len(engine._fused_paths) == len(engine._paths)
    assert all(fpath.bulk for fpath in engine._fused_paths.values()) is not evaluates
    assert_views_equal_evaluation(engine, database, exact=payload != "covar")


@pytest.mark.parametrize("payload", ["count", "covar"])
@pytest.mark.parametrize("defect", ["missing", "schema"])
def test_a_database_that_does_not_fit_the_query_is_refused_by_name(payload, defect):
    query = retailer_query(CountSpec() if payload == "count" else retailer_spec(payload))
    database = Database()
    for relation in generate_retailer(CONFIG):
        if relation.name != "Weather":
            database.add(relation)
        elif defect == "schema":
            schema = relation.schema[1:] + relation.schema[:1]
            database.add(Relation(schema, name="Weather"))
    engine = FIVMEngine(query, order=retailer_variable_order())
    message = "no relation 'Weather'" if defect == "missing" else "relation 'Weather' has schema"
    with pytest.raises(EngineError, match=message):
        engine.initialize(database)


@pytest.mark.parametrize(
    "backend", ["serial", pytest.param("process", marks=needs_process)]
)
def test_two_loaded_shards_equal_one_loaded_engine(backend):
    query, order, database, _config = scenario("retailer", "mi")
    single = create_engine(query, order=order)
    sharded = create_engine(query, config=EngineConfig(shards=2, backend=backend), order=order)
    with sharded:
        for engine in (single, sharded):
            engine.initialize(database)
        assert sharded.result() == single.result()
        assert sharded.export_state()["views"] == single.export_state()["views"]


# ----------------------------------------------------------------------
# The benchmark's bulk and MI scenarios
# ----------------------------------------------------------------------

#: The benchmark's dataset seed (``bench/workloads.py``).
BENCH_SEED = 20180601


def bench_scenarios():
    """``name -> (query, order, database)``: ``retailer_covar_bulk``'s
    12-feature numeric COVAR over 40k Inventory rows, and
    ``retailer_mi_mixed``'s MI over the scale-4 retailer serving data."""
    config = RetailerConfig(
        locations=32, dates=90, items=900, inventory_rows=40_000, seed=BENCH_SEED
    )
    bulk = retailer_query(CovarSpec(continuous_covar_features(limit=12)))
    mi = build_serving_scenario("retailer", "mi", scale=4, seed=BENCH_SEED)
    return {
        "retailer_covar_bulk": (bulk, retailer_variable_order(), generate_retailer(config)),
        "retailer_mi_mixed": (mi.query, mi.order, mi.database),
    }


def test_loaded_roots_equal_naive_re_evaluation():
    """An oracle independent of F-IVM's ``initialize`` (which the bench's
    reference check also runs): exact on MI, ``1e-9`` on COVAR."""
    for name, (query, order, database) in bench_scenarios().items():
        engine = FIVMEngine(query, order=order)
        engine.initialize(database)
        assert len(engine._fused_paths) == len(engine._paths), name
        naive = NaiveEngine(query, order=order)
        naive.initialize(database)
        if name == "retailer_mi_mixed":
            assert engine.result() == naive.result()
        else:
            assert engine.result().close_to(naive.result(), 1e-9)


def initialize_cost_on_bench_scenarios():
    """Per bench scenario, what ``initialize`` costs: the payload-at-a-time
    ``lift`` / ``mul`` / ``add`` calls on the engine's ring, and the
    tracemalloc peak in MB."""
    out = {}
    for name, (query, order, database) in bench_scenarios().items():
        engine = FIVMEngine(query, order=order)
        ring_type = type(engine.plan.ring)
        calls = Counter()

        def counting(method, original):
            def counted(self, *args, **kwargs):
                calls[method] += 1
                return original(self, *args, **kwargs)

            return counted

        with ExitStack() as stack:
            for method in ("lift", "mul", "add"):
                original = getattr(ring_type, method)
                stack.enter_context(
                    mock.patch.object(ring_type, method, counting(method, original))
                )
            tracemalloc.start()
            try:
                engine.initialize(database)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        out[name] = {
            "scalar_ring_calls": sum(calls.values()),
            "tracemalloc_peak_mb": round(peak / 2**20, 1),
        }
    return out


#: tracemalloc peaks of a load measured at 7.5 (bulk) and 9.6 MB (MI),
#: with ~30 % margin. Evaluating the tree payload by payload peaked at
#: 28.1 / 13.7 MB.
BULK_PEAK_MB = 10.0
MI_PEAK_MB = 12.0


def test_initialize_cost_on_bench_scenarios():
    """Pinned: no payload object is lifted, multiplied or added one at a
    time (evaluating the tree made 157,649 such calls on bulk and 34,240
    on MI), and the load's allocation peak stays bounded."""
    cost = initialize_cost_on_bench_scenarios()
    assert {name: c["scalar_ring_calls"] for name, c in cost.items()} == {
        "retailer_covar_bulk": 0,
        "retailer_mi_mixed": 0,
    }
    assert cost["retailer_covar_bulk"]["tracemalloc_peak_mb"] < BULK_PEAK_MB
    assert cost["retailer_mi_mixed"]["tracemalloc_peak_mb"] < MI_PEAK_MB
