"""Ablations on F-IVM's design choices (README, *How a delta is maintained*).

1. Variable-order quality: the Figure-2d tree vs a single-path chain —
   the chain widens dependency sets (e.g. Census keyed by the whole path),
   so deltas touch larger views.
2. Workload mix: insert-only vs heavy-delete streams — deletes are just
   negative multiplicities, so cost must stay in the same range.
"""

import pytest

from repro.datasets import retailer_query
from repro.engine import FIVMEngine
from repro.query import VariableOrder
from repro.rings import CovarSpec, Feature

from benchmarks.conftest import apply_all, retailer_batches, total_updates


def spec():
    return CovarSpec(
        (
            Feature.continuous("prize"),
            Feature.continuous("inventoryunits"),
            Feature.continuous("population"),
        ),
    )


def chain_order():
    """A valid but deliberately bad single-path variable order.

    Rooting at ``zip`` and putting ``locn`` deepest gives V@locn the
    dependency set (zip, ksn, dateid) — an intermediate view as wide as
    the fact table — exactly the blow-up good variable orders avoid.
    """
    return VariableOrder.chain(
        ("zip", "ksn", "dateid", "locn"),
        {
            "Inventory": "locn",
            "Weather": "locn",
            "Location": "locn",
            "Item": "ksn",
            "Census": "zip",
        },
    )


@pytest.mark.parametrize("order_kind", ["figure2d", "chain"])
def test_variable_order_quality(benchmark, order_kind, retailer_db, retailer_order):
    order = retailer_order if order_kind == "figure2d" else chain_order()
    query = retailer_query(spec())
    batches = retailer_batches(retailer_db, 4, batch_size=100, seed=21)
    benchmark.extra_info["updates"] = total_updates(batches)
    benchmark.extra_info["order"] = order_kind

    def setup():
        engine = FIVMEngine(query, order=order)
        engine.initialize(retailer_db)
        return (engine, batches), {}

    benchmark.pedantic(apply_all, setup=setup, rounds=2)


@pytest.mark.parametrize("insert_ratio", [1.0, 0.5])
def test_workload_mix(benchmark, insert_ratio, retailer_db, retailer_order):
    query = retailer_query(spec())
    batches = retailer_batches(
        retailer_db, 4, batch_size=100, insert_ratio=insert_ratio, seed=22
    )
    benchmark.extra_info["updates"] = total_updates(batches)
    benchmark.extra_info["insert_ratio"] = insert_ratio

    def setup():
        engine = FIVMEngine(query, order=retailer_order)
        engine.initialize(retailer_db)
        return (engine, batches), {}

    benchmark.pedantic(apply_all, setup=setup, rounds=2)


def test_chain_order_correct(retailer_db, retailer_order):
    """Both orders must produce identical results (correctness gate)."""
    query = retailer_query(spec())
    batches = retailer_batches(retailer_db, 3, batch_size=50, seed=23)
    results = []
    for order in (retailer_order, chain_order()):
        engine = FIVMEngine(query, order=order)
        engine.initialize(retailer_db)
        apply_all(engine, batches)
        results.append(engine.result())
    assert results[0].close_to(results[1], 1e-7)
