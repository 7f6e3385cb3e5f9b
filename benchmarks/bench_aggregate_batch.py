"""Batches of aggregates: compound ring vs per-aggregate maintenance.

F-IVM maintains all 1 + m + m(m+1)/2 COVAR aggregates as ONE compound
payload; a DBToaster-style system maintains each aggregate as its own
view. Sweeping the feature count m isolates the sharing benefit: the
per-aggregate cost grows ~quadratically in m while the compound ring pays
one traversal with (cheap numpy) payload ops.
"""

import pytest

from repro.datasets import RetailerConfig, generate_retailer, retailer_query, retailer_variable_order
from repro.engine import FIVMEngine, PerAggregateEngine
from repro.rings import CountSpec, CovarSpec, Feature

from benchmarks.conftest import apply_all, total_updates
from repro.datasets import UpdateStream, retailer_row_factories

# A small database keeps the m=8 per-aggregate run (45 engines) tractable.
TINY_CONFIG = RetailerConfig(locations=5, dates=8, items=30, inventory_rows=300, seed=103)

ATTRS = (
    "prize",
    "inventoryunits",
    "maxtemp",
    "avghhi",
    "population",
    "meanwind",
    "medianage",
    "tot_area_sq_ft",
)


def features_of(m):
    return tuple(Feature.continuous(attr) for attr in ATTRS[:m])


@pytest.fixture(scope="module")
def tiny_db():
    return generate_retailer(TINY_CONFIG)


def tiny_batches(database, count=3, batch_size=50):
    stream = UpdateStream(
        database,
        retailer_row_factories(TINY_CONFIG, database),
        targets=("Inventory",),
        batch_size=batch_size,
        insert_ratio=0.7,
        seed=11,
    )
    return list(stream.batches(count))


@pytest.mark.parametrize("m", [2, 4, 8])
def test_compound_ring(benchmark, m, tiny_db):
    query = retailer_query(CovarSpec(features_of(m)))
    order = retailer_variable_order()
    batches = tiny_batches(tiny_db)
    benchmark.extra_info["updates"] = total_updates(batches)
    benchmark.extra_info["aggregates"] = 1 + m + m * (m + 1) // 2

    def setup():
        engine = FIVMEngine(query, order=order)
        engine.initialize(tiny_db)
        return (engine, batches), {}

    benchmark.pedantic(apply_all, setup=setup, rounds=2)


@pytest.mark.parametrize("m", [2, 4, 8])
def test_per_aggregate(benchmark, m, tiny_db):
    query = retailer_query(CountSpec())
    order = retailer_variable_order()
    batches = tiny_batches(tiny_db)
    benchmark.extra_info["updates"] = total_updates(batches)
    benchmark.extra_info["aggregates"] = 1 + m + m * (m + 1) // 2

    def setup():
        engine = PerAggregateEngine(query, features_of(m), order=order)
        engine.initialize(tiny_db)
        return (engine, batches), {}

    benchmark.pedantic(apply_all, setup=setup, rounds=1)
