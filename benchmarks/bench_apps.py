"""Figure 2 tabs: per-bulk refresh latency of the three applications.

The demo refreshes each application after every bulk of updates; these
benchmarks measure (a) pushing a bulk through the maintained payload and
(b) recomputing the application output (ranking / model / tree) from it.
"""

import pytest

from repro.apps import ChowLiuApp, ModelSelectionApp, RegressionApp
from repro.datasets import (
    RETAILER_SCHEMAS,
    UpdateStream,
    regression_features,
    retailer_row_factories,
)
from repro.ml.discretize import binning_for_attribute
from repro.rings import Feature

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


@pytest.fixture(scope="module")
def model_selection_app(retailer_db, retailer_order):
    return ModelSelectionApp(
        retailer_db,
        RETAILER_SCHEMAS,
        mi_features_subset(retailer_db),
        label="inventoryunits",
        threshold=0.05,
        order=retailer_order,
    )


@pytest.fixture(scope="module")
def regression_app(retailer_db, retailer_order):
    features, label = regression_features()
    return RegressionApp(
        retailer_db, RETAILER_SCHEMAS, features, label, order=retailer_order
    )


@pytest.fixture(scope="module")
def chowliu_app(retailer_db, retailer_order):
    return ChowLiuApp(
        retailer_db,
        RETAILER_SCHEMAS,
        mi_features_subset(retailer_db),
        order=retailer_order,
    )


class TestModelSelectionTab:
    def test_model_selection_refresh(self, benchmark, model_selection_app):
        """MI matrix + ranking from the maintained payload (read-only)."""
        ranking = benchmark(model_selection_app.ranking)
        assert len(ranking.ranked) == 5

    def test_model_selection_bulk(self, benchmark, model_selection_app, retailer_db):
        slices = bulk_slices(retailer_db, 12)
        iterator = iter(slices)

        def process():
            model_selection_app.process_bulk(next(iterator))

        benchmark.pedantic(process, rounds=3)


class TestRegressionTab:
    def test_regression_refresh(self, benchmark, regression_app):
        """Warm-started CG re-convergence against the current COVAR."""
        model = benchmark(regression_app.refresh_model)
        assert model.training_rmse < 50.0

    def test_regression_bulk(self, benchmark, regression_app, retailer_db):
        slices = bulk_slices(retailer_db, 12, seed=32)
        iterator = iter(slices)

        def process():
            regression_app.process_bulk(next(iterator))

        benchmark.pedantic(process, rounds=3)


class TestChowLiuTab:
    def test_chowliu_refresh(self, benchmark, chowliu_app):
        """MI matrix + maximum spanning tree."""
        tree = benchmark(chowliu_app.tree)
        assert len(tree.edges) == 5
