"""Section 1's headline claim: F-IVM vs first-order IVM vs re-evaluation.

Update throughput on the five-relation Retailer join, for the count ring
and the COVAR ring. The paper reports "several orders of magnitude
performance speedup over DBToaster"; the expected *shape* here is
fivm >> first-order >> naive, with result equality across engines
(asserted). Throughput (updates/second) = extra_info["updates"] / mean.
"""

import pytest

from repro.datasets import regression_features, retailer_query
from repro.engine import FIVMEngine, FirstOrderEngine, NaiveEngine
from repro.rings import CountSpec, CovarSpec, Feature

from benchmarks.conftest import apply_all, retailer_batches, total_updates

ENGINES = {
    "fivm": FIVMEngine,
    "first-order": FirstOrderEngine,
    "naive": NaiveEngine,
}

BATCHES = 6
BATCH_SIZE = 100


def covar_spec():
    features, _ = regression_features()
    return CovarSpec(features)


def continuous_covar_spec():
    return CovarSpec(
        (
            Feature.continuous("prize"),
            Feature.continuous("inventoryunits"),
            Feature.continuous("maxtemp"),
            Feature.continuous("avghhi"),
        ),
    )


@pytest.mark.parametrize("strategy", list(ENGINES))
def test_count_maintenance(benchmark, strategy, retailer_db, retailer_order):
    query = retailer_query(CountSpec())
    batches = retailer_batches(retailer_db, BATCHES, BATCH_SIZE)
    benchmark.extra_info["updates"] = total_updates(batches)
    benchmark.extra_info["strategy"] = strategy

    def setup():
        engine = ENGINES[strategy](query, order=retailer_order)
        engine.initialize(retailer_db)
        return (engine, batches), {}

    benchmark.pedantic(apply_all, setup=setup, rounds=3)


@pytest.mark.parametrize("strategy", list(ENGINES))
def test_covar_continuous_maintenance(benchmark, strategy, retailer_db, retailer_order):
    query = retailer_query(continuous_covar_spec())
    batches = retailer_batches(retailer_db, BATCHES, BATCH_SIZE)
    benchmark.extra_info["updates"] = total_updates(batches)
    benchmark.extra_info["strategy"] = strategy

    def setup():
        engine = ENGINES[strategy](query, order=retailer_order)
        engine.initialize(retailer_db)
        return (engine, batches), {}

    benchmark.pedantic(apply_all, setup=setup, rounds=3)


@pytest.mark.parametrize("strategy", ["fivm", "first-order"])
def test_covar_categorical_maintenance(benchmark, strategy, retailer_db, retailer_order):
    """The demo's mixed categorical/continuous COVAR (Figure 2b feature set)."""
    query = retailer_query(covar_spec())
    batches = retailer_batches(retailer_db, 4, BATCH_SIZE)
    benchmark.extra_info["updates"] = total_updates(batches)
    benchmark.extra_info["strategy"] = strategy

    def setup():
        engine = ENGINES[strategy](query, order=retailer_order)
        engine.initialize(retailer_db)
        return (engine, batches), {}

    benchmark.pedantic(apply_all, setup=setup, rounds=2)


@pytest.mark.parametrize("strategy", list(ENGINES))
def test_count_maintenance_weather_updates(
    benchmark, strategy, retailer_db, retailer_order
):
    """Updates to Weather, which joins against the materialized Inventory
    subtree. First-order IVM re-aggregates the fact table on every batch;
    F-IVM probes its materialized V@ksn — this is where the paper's
    orders-of-magnitude gap comes from."""
    query = retailer_query(CountSpec())
    batches = weather_batches(retailer_db, BATCHES, BATCH_SIZE)
    benchmark.extra_info["updates"] = total_updates(batches)
    benchmark.extra_info["strategy"] = strategy

    def setup():
        engine = ENGINES[strategy](query, order=retailer_order)
        engine.initialize(retailer_db)
        return (engine, batches), {}

    benchmark.pedantic(apply_all, setup=setup, rounds=3)


def weather_batches(database, count, batch_size):
    from benchmarks.conftest import RETAILER_CONFIG
    from repro.datasets import UpdateStream, retailer_row_factories

    stream = UpdateStream(
        database,
        retailer_row_factories(RETAILER_CONFIG, database),
        targets=("Weather",),
        batch_size=batch_size,
        insert_ratio=0.7,
        seed=8,
    )
    return list(stream.batches(count))


def test_engines_agree_on_final_result(retailer_db, retailer_order):
    """Correctness gate for the whole comparison (not a timing benchmark)."""
    query = retailer_query(CountSpec())
    batches = retailer_batches(retailer_db, BATCHES, BATCH_SIZE)
    results = []
    for strategy, engine_cls in ENGINES.items():
        engine = engine_cls(query, order=retailer_order)
        engine.initialize(retailer_db)
        apply_all(engine, batches)
        results.append((strategy, engine.result()))
    reference = results[0][1]
    for strategy, result in results[1:]:
        assert reference == result, strategy
