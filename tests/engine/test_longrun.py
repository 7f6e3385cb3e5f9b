"""Long-run stress: hundreds of mixed batches, engines stay in lockstep.

Where the hypothesis suite covers breadth (random shapes), this covers
depth: a seeded 200-batch stream over the Retailer join, with periodic
cross-checks of F-IVM against full re-evaluation and against the query
run in sqlite (``tests/sql_oracle.py``), view-size sanity and
delete-dominated phases that shrink the database back down.
"""

import pytest

from repro.datasets import (
    RetailerConfig,
    UpdateStream,
    generate_retailer,
    retailer_query,
    retailer_row_factories,
    retailer_variable_order,
)
from repro.engine import FIVMEngine, NaiveEngine
from repro.rings import CountSpec, CovarSpec, Feature

from tests.sql_oracle import COVAR_RTOL, SqlOracle, engine_covar_gap

pytestmark = pytest.mark.slow

CONFIG = RetailerConfig(locations=5, dates=8, items=25, inventory_rows=300, seed=77)


def spec():
    return CovarSpec(
        (Feature.continuous("prize"), Feature.continuous("inventoryunits")),
    )


@pytest.mark.parametrize(
    "payload_spec,tolerance",
    [(CountSpec(), None), (spec(), 1e-6)],
    ids=["count", "covar"],
)
def test_200_batches_with_periodic_crosscheck(payload_spec, tolerance):
    db = generate_retailer(CONFIG)
    order = retailer_variable_order()
    query = retailer_query(payload_spec)
    fivm = FIVMEngine(query, order=order)
    fivm.initialize(db)
    naive = NaiveEngine(query, order=order)
    naive.initialize(db)
    oracle = SqlOracle(db)
    stream = UpdateStream(
        db,
        retailer_row_factories(CONFIG, db),
        targets=("Inventory", "Weather"),
        batch_size=20,
        insert_ratio=0.6,
        seed=5,
    )
    for index, (name, delta) in enumerate(stream.batches(200)):
        fivm.apply(name, delta)
        naive.apply(name, delta)
        oracle.apply(name, delta)
        if index % 50 == 49:
            if tolerance is None:
                assert fivm.result() == naive.result(), f"diverged at batch {index}"
                assert fivm.result().data == oracle.count(), f"sqlite at batch {index}"
            else:
                assert fivm.result().close_to(
                    naive.result(), tolerance
                ), f"diverged at batch {index}"
                gap = engine_covar_gap(fivm, oracle)
                assert gap <= COVAR_RTOL, f"sqlite at batch {index}"
    # Final state: the leaf view tracks the live shadow database exactly.
    expected_leaf = oracle.view(fivm.tree, "V_Inventory")
    assert fivm.view("V_Inventory").close_to(expected_leaf, 1e-6)


def test_delete_phase_shrinks_views():
    """Insert-heavy phase then delete-only phase: view sizes must shrink
    back, and the result must track re-evaluation throughout."""
    db = generate_retailer(CONFIG)
    order = retailer_variable_order()
    query = retailer_query(CountSpec())
    engine = FIVMEngine(query, order=order)
    engine.initialize(db)
    grow = UpdateStream(
        db,
        retailer_row_factories(CONFIG, db),
        targets=("Inventory",),
        batch_size=50,
        insert_ratio=1.0,
        seed=9,
    )
    for name, delta in grow.batches(10):
        engine.apply(name, delta)
    grown_size = engine.stats.view_sizes["V_Inventory"]
    # delete-only stream continuing from the grown shadow state
    shrink = UpdateStream(
        grow.shadow,
        {},
        targets=("Inventory",),
        batch_size=50,
        insert_ratio=0.0,
        seed=10,
    )
    for name, delta in shrink.batches(10):
        engine.apply(name, delta)
    shrunk_size = engine.stats.view_sizes["V_Inventory"]
    assert shrunk_size < grown_size
    naive = NaiveEngine(query, order=order)
    naive.initialize(shrink.shadow)
    assert engine.result() == naive.result()
    assert engine.result().data == SqlOracle(shrink.shadow).count()
