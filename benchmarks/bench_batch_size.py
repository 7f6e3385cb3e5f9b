"""Batching: throughput vs update batch size.

The paper processes updates in bulks/batches ("batches of up to thousands
of aggregates", 10K-update bulks in the demo). Fixed total work (~600
single-tuple updates), varying the batch size; per-update cost must drop
as batches grow, flattening once per-batch overheads amortize.
"""

import pytest

from repro.datasets import retailer_query
from repro.engine import FIVMEngine
from repro.rings import CovarSpec, Feature

from benchmarks.conftest import apply_all, retailer_batches, total_updates

TOTAL_UPDATES = 600


def spec():
    return CovarSpec(
        (
            Feature.continuous("prize"),
            Feature.continuous("inventoryunits"),
            Feature.continuous("maxtemp"),
        ),
    )


@pytest.mark.parametrize("batch_size", [1, 10, 100, 600])
def test_throughput_vs_batch_size(benchmark, batch_size, retailer_db, retailer_order):
    query = retailer_query(spec())
    count = TOTAL_UPDATES // batch_size
    batches = retailer_batches(
        retailer_db, count, batch_size=batch_size, insert_ratio=0.7, seed=9
    )
    benchmark.extra_info["updates"] = total_updates(batches)
    benchmark.extra_info["batch_size"] = batch_size

    def setup():
        engine = FIVMEngine(query, order=retailer_order)
        engine.initialize(retailer_db)
        return (engine, batches), {}

    benchmark.pedantic(apply_all, setup=setup, rounds=2)
