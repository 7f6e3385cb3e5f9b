"""Figure 2 tabs: per-bulk refresh latency of the three applications.

The demo refreshes each application after every bulk of updates; these
benchmarks measure (a) pushing a bulk through the engine that maintains
the tab's payload and (b) recomputing the application output (ranking /
model / tree) from its root payload.
"""

import pytest

from repro.datasets import (
    RETAILER_SCHEMAS,
    UpdateStream,
    regression_features,
    retailer_row_factories,
)
from repro.engine import FIVMEngine
from repro.ml import (
    RidgeRegression,
    chow_liu_tree,
    covar_from_payload,
    mutual_information_matrix,
    rank_features,
)
from repro.ml.discretize import binning_for_attribute
from repro.query import Query
from repro.rings import CovarSpec, Feature, MISpec

from benchmarks.conftest import RETAILER_CONFIG


def mi_features_subset(database):
    item = database.relation("Item")
    inventory = database.relation("Inventory")
    return (
        Feature.categorical("subcategory"),
        Feature.categorical("category"),
        Feature.categorical("categoryCluster"),
        Feature("prize", "continuous", binning_for_attribute(item, "prize", 6)),
        Feature(
            "inventoryunits",
            "continuous",
            binning_for_attribute(inventory, "inventoryunits", 6),
        ),
        Feature.categorical("rain"),
    )


def bulk_slices(database, n_slices, batches_per_slice=2, batch_size=100, seed=31):
    stream = UpdateStream(
        database,
        retailer_row_factories(RETAILER_CONFIG, database),
        targets=("Inventory",),
        batch_size=batch_size,
        insert_ratio=0.7,
        seed=seed,
    )
    return [list(stream.batches(batches_per_slice)) for _ in range(n_slices)]


def maintained(database, spec, order):
    engine = FIVMEngine(Query("Retailer", RETAILER_SCHEMAS, spec=spec), order=order)
    engine.initialize(database)
    return engine


def mi_matrix(engine):
    return mutual_information_matrix(engine.result().payload(()), engine.plan)


@pytest.fixture(scope="module")
def mi_engine(retailer_db, retailer_order):
    return maintained(retailer_db, MISpec(mi_features_subset(retailer_db)), retailer_order)


@pytest.fixture(scope="module")
def covar_engine(retailer_db, retailer_order):
    features, _label = regression_features()
    return maintained(retailer_db, CovarSpec(features), retailer_order)


def bulk_benchmark(benchmark, engine, slices):
    iterator = iter(slices)

    def process():
        engine.apply_batch(next(iterator))

    benchmark.pedantic(process, rounds=3)


class TestModelSelectionTab:
    def test_model_selection_refresh(self, benchmark, mi_engine):
        """MI matrix + ranking from the maintained payload (read-only)."""
        ranking = benchmark(lambda: rank_features(mi_matrix(mi_engine), "inventoryunits"))
        assert len(ranking.ranked) == 5

    def test_model_selection_bulk(self, benchmark, mi_engine, retailer_db):
        bulk_benchmark(benchmark, mi_engine, bulk_slices(retailer_db, 12))


class TestRegressionTab:
    def test_regression_refresh(self, benchmark, covar_engine):
        """One direct ridge solve against the current COVAR."""
        _features, label = regression_features()
        solver = RidgeRegression(
            [f.name for f in covar_engine.plan.features if f.name != label],
            label,
            regularization=1e-2,
        )

        def refresh():
            payload = covar_engine.result().payload(())
            return solver.fit(covar_from_payload(payload, covar_engine.plan))

        model = benchmark(refresh)
        assert model.training_rmse < 50.0

    def test_regression_bulk(self, benchmark, covar_engine, retailer_db):
        bulk_benchmark(benchmark, covar_engine, bulk_slices(retailer_db, 12, seed=32))


class TestChowLiuTab:
    def test_chowliu_refresh(self, benchmark, mi_engine):
        """MI matrix + maximum spanning tree."""
        tree = benchmark(lambda: chow_liu_tree(mi_matrix(mi_engine)))
        assert len(tree.edges) == 5
