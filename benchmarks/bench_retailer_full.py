"""The "thousands of aggregates over joins of five relations" claim.

Full 43-attribute continuous COVAR over the Retailer join: 990 aggregates
(1 + 43 + 43*44/2) maintained as one degree-43 compound payload, batches
of 1000 updates — the configuration behind the paper's "average throughput
of 10K updates per second ... for batches of up to thousands of aggregates
over joins of five relations on one thread". Absolute numbers are CPython,
not the authors' compiled C++; see README, *Datasets*.
"""


from repro.datasets import continuous_covar_features, retailer_query
from repro.engine import FIVMEngine
from repro.rings import CovarSpec

from benchmarks.conftest import apply_all, retailer_batches, total_updates


def test_full_covar_initialization(benchmark, retailer_db, retailer_order):
    query = retailer_query(CovarSpec(continuous_covar_features()))

    def initialize():
        engine = FIVMEngine(query, order=retailer_order)
        engine.initialize(retailer_db)
        return engine

    engine = benchmark.pedantic(initialize, rounds=2)
    payload = engine.result().payload(())
    assert payload.c > 0
    assert payload.q.shape == (43, 43)


def test_full_covar_batch_1000(benchmark, retailer_db, retailer_order):
    query = retailer_query(CovarSpec(continuous_covar_features()))
    batches = retailer_batches(retailer_db, 2, batch_size=1000, seed=12)
    benchmark.extra_info["updates"] = total_updates(batches)
    benchmark.extra_info["aggregates"] = 990

    def setup():
        engine = FIVMEngine(query, order=retailer_order)
        engine.initialize(retailer_db)
        return (engine, batches), {}

    benchmark.pedantic(apply_all, setup=setup, rounds=2)
