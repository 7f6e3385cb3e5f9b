"""Every stored numeric COVAR payload spans exactly its view's subtree.

A payload of view ``V`` is a sum of products with one lift per feature
lifted at or below ``V`` and nothing else, so its support must be those
features' layout slots — after ``initialize``, after fused and
per-tuple batches, and after a checkpoint restore. The engine never
sets a support; it only multiplies and adds, so this is the algebra's
invariant seen from the views.
"""

import pytest

from repro import EngineConfig, create_engine
from repro.datasets import (
    FavoritaConfig,
    RetailerConfig,
    UpdateStream,
    continuous_covar_features,
    favorita_query,
    favorita_row_factories,
    favorita_variable_order,
    generate_favorita,
    generate_retailer,
    retailer_query,
    retailer_row_factories,
    retailer_variable_order,
)
from repro.rings import CovarSpec, Feature
from tests.conftest import per_tuple_path


def retailer():
    config = RetailerConfig(locations=4, dates=6, items=20, inventory_rows=300, seed=5)
    database = generate_retailer(config)
    query = retailer_query(CovarSpec(continuous_covar_features(limit=12)))
    factories = retailer_row_factories(config, database)
    return database, query, retailer_variable_order(), factories, "Inventory"


def favorita():
    config = FavoritaConfig(stores=4, dates=8, items=12, sales_rows=300, seed=5)
    database = generate_favorita(config)
    features = tuple(
        Feature.continuous(name)
        for name in ("unitsales", "onpromotion", "perishable", "cluster",
                     "transactions", "oilprize")
    )
    query = favorita_query(CovarSpec(features))
    factories = favorita_row_factories(config, database)
    return database, query, favorita_variable_order(), factories, "Sales"


def subtree_slots(engine):
    """Layout slots lifted at or below each view, from the tree alone."""
    layout = engine.plan.layout

    def slots(view):
        own = {layout.index(attr) for attr in view.lifted}
        return own.union(*(slots(child) for child in view.children))

    return {
        name: tuple(sorted(slots(view))) for name, view in engine.tree.views.items()
    }


def assert_payloads_span_their_subtrees(engine):
    expected = subtree_slots(engine)
    report = engine.memory_report()
    names = engine.plan.layout.attributes
    for name in engine.tree.views:
        want = expected[name]
        k = len(want)
        # Dropped views are re-derived from their children, and must
        # come out over the same support.
        data = engine.view(name).data
        assert data, name
        for key, payload in data.items():
            assert payload.support == want, (name, key)
            assert payload.s.shape == (k,) and payload.q.shape == (k, k)
        if report[name]["stored"]:
            assert report[name]["support"] == tuple(names[i] for i in want)
    root = engine.tree.root.name
    assert expected[root] == tuple(range(engine.plan.ring.degree))


@pytest.mark.parametrize("dataset", (retailer, favorita))
def test_support_is_the_subtree_through_the_engine_life(dataset):
    database, query, order, factories, target = dataset()
    stream = UpdateStream(
        database, factories, targets=(target,), batch_size=64,
        insert_ratio=0.5, seed=5,
    )
    engine = create_engine(query, order=order)
    engine.initialize(database)
    assert_payloads_span_their_subtrees(engine)

    engine.apply_stream(stream.tuples(400), batch_size=64)
    assert engine.stats.fused_batches > 0
    assert_payloads_span_their_subtrees(engine)

    fused_before = engine.stats.fused_batches
    with per_tuple_path():
        engine.apply_stream(stream.tuples(200), batch_size=64)
    engine.apply_stream(stream.tuples(50), batch_size=1)
    assert engine.stats.fused_batches == fused_before
    assert engine.stats.probe_steps > 0
    assert_payloads_span_their_subtrees(engine)

    restored = create_engine(query, order=order)
    restored.import_state(engine.export_state())
    assert_payloads_span_their_subtrees(restored)
    restored.apply_stream(stream.tuples(200), batch_size=64)
    assert_payloads_span_their_subtrees(restored)


def test_sharded_memory_report_keeps_support():
    database, query, order, _factories, _target = retailer()
    single = create_engine(query, order=order)
    sharded = create_engine(
        query, order=order, config=EngineConfig(shards=2, backend="serial")
    )
    try:
        for engine in (single, sharded):
            engine.initialize(database)
        want, got = single.memory_report(), sharded.memory_report()
        for name, entry in want.items():
            assert got[name]["support"] == entry["support"]
    finally:
        sharded.close()
