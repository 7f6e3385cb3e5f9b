"""The demo tabs end-to-end on the synthetic Retailer database."""

from unittest import mock

import numpy as np
import pytest

from repro.apps import (
    ChowLiuApp,
    MaintenanceStrategyApp,
    ModelSelectionApp,
    RegressionApp,
)
from repro.data import Database, Relation, RelationSchema
from repro.datasets import (
    RETAILER_SCHEMAS,
    UpdateStream,
    regression_features,
    retailer_query,
    retailer_row_factories,
    retailer_variable_order,
)
from repro.engine import NaiveEngine
from repro.errors import FIVMError
from repro.ml.discretize import binning_for_attribute
from repro.rings import CountSpec, Feature


@pytest.fixture(scope="module")
def mi_feature_subset(small_retailer_db_module):
    db = small_retailer_db_module
    return (
        Feature.categorical("subcategory"),
        Feature.categorical("category"),
        Feature(
            "prize", "continuous", binning_for_attribute(db.relation("Item"), "prize", 6)
        ),
        Feature(
            "inventoryunits",
            "continuous",
            binning_for_attribute(db.relation("Inventory"), "inventoryunits", 6),
        ),
        Feature.categorical("rain"),
    )


@pytest.fixture(scope="module")
def small_retailer_db_module(request):
    from repro.datasets import RetailerConfig, generate_retailer

    return generate_retailer(
        RetailerConfig(locations=6, dates=10, items=30, inventory_rows=400, seed=11)
    )


@pytest.fixture(scope="module")
def stream_factory(small_retailer_db_module):
    from repro.datasets import RetailerConfig

    config = RetailerConfig(locations=6, dates=10, items=30, inventory_rows=400, seed=11)

    def make(seed=5, batch_size=100):
        return UpdateStream(
            small_retailer_db_module,
            retailer_row_factories(config, small_retailer_db_module),
            targets=("Inventory",),
            batch_size=batch_size,
            insert_ratio=0.7,
            seed=seed,
        )

    return make


class TestModelSelectionApp:
    def test_planted_signal_ranked_first(self, small_retailer_db_module, mi_feature_subset):
        app = ModelSelectionApp(
            small_retailer_db_module,
            RETAILER_SCHEMAS,
            mi_feature_subset,
            label="inventoryunits",
            threshold=0.05,
            order=retailer_variable_order(),
        )
        ranking = app.ranking()
        ranked_attrs = [attr for attr, _ in ranking.ranked]
        # inventoryunits = f(price, subcategory, ...): those rank above rain
        assert ranked_attrs.index("subcategory") < ranked_attrs.index("rain")
        assert ranked_attrs.index("prize") < ranked_attrs.index("rain")
        assert "rain" not in app.selected_features()

    def test_refresh_under_updates(
        self, small_retailer_db_module, mi_feature_subset, stream_factory
    ):
        app = ModelSelectionApp(
            small_retailer_db_module,
            RETAILER_SCHEMAS,
            mi_feature_subset,
            label="inventoryunits",
            threshold=0.05,
            order=retailer_variable_order(),
        )
        report = app.process_bulk(stream_factory().batches(3))
        assert report.updates > 0
        ranking = app.ranking()
        assert len(ranking.ranked) == len(mi_feature_subset) - 1

    def test_label_must_be_feature(self, small_retailer_db_module, mi_feature_subset):
        with pytest.raises(FIVMError):
            ModelSelectionApp(
                small_retailer_db_module,
                RETAILER_SCHEMAS,
                mi_feature_subset,
                label="nope",
            )

    def test_render(self, small_retailer_db_module, mi_feature_subset):
        app = ModelSelectionApp(
            small_retailer_db_module,
            RETAILER_SCHEMAS,
            mi_feature_subset,
            label="inventoryunits",
            threshold=0.05,
            order=retailer_variable_order(),
        )
        assert "label: inventoryunits" in app.render()


STABLE_FEATURES = (
    Feature.continuous("prize"),
    Feature.categorical("subcategory"),
    Feature.continuous("inventoryunits"),
)


class TestRegressionApp:
    def test_model_recovers_planted_price_slope(self, small_retailer_db_module):
        # Within a subcategory, inventoryunits = ... - 0.8 * prize + noise;
        # the demo's full feature set includes per-item one-hots that absorb
        # the price effect, so the slope check uses the reduced model.
        app = RegressionApp(
            small_retailer_db_module,
            RETAILER_SCHEMAS,
            STABLE_FEATURES,
            "inventoryunits",
            regularization=1e-4,
            order=retailer_variable_order(),
        )
        model = app.refresh_model()
        assert model.coefficients()["prize"] < 0
        assert model.training_rmse < 20.0

    def test_demo_feature_set_fits(self, small_retailer_db_module):
        features, label = regression_features()
        app = RegressionApp(
            small_retailer_db_module,
            RETAILER_SCHEMAS,
            features,
            label,
            order=retailer_variable_order(),
        )
        model = app.refresh_model()
        # one column per live ksn plus the category tree plus price
        assert len(model.feature_columns) > 10
        assert model.converged
        assert model.training_rmse == pytest.approx(
            app.solver.fit_closed_form(app.covar()).training_rmse, rel=1e-9
        )
        assert model.training_rmse < 20.0

    def test_refit_after_bulk(self, small_retailer_db_module, stream_factory):
        app = RegressionApp(
            small_retailer_db_module,
            RETAILER_SCHEMAS,
            STABLE_FEATURES,
            "inventoryunits",
            order=retailer_variable_order(),
        )
        first = app.refresh_model()
        app.process_bulk(stream_factory(seed=9).batches(2))
        second = app.refresh_model()
        assert first.converged and second.converged
        if second.theta.shape == first.theta.shape:
            # a small bulk moves the parameters but keeps them in one region
            assert np.linalg.norm(second.theta - first.theta) < max(
                np.linalg.norm(first.theta), 1.0
            )
        assert np.isfinite(second.training_rmse)

    def test_session_consistent_with_naive(self, small_retailer_db_module, stream_factory):
        features, label = regression_features()
        app = RegressionApp(
            small_retailer_db_module,
            RETAILER_SCHEMAS,
            features,
            label,
            order=retailer_variable_order(),
        )
        app.process_bulk(stream_factory(seed=2).batches(2))
        naive = NaiveEngine(app.session.query, order=retailer_variable_order())
        naive.initialize(app.session.database)
        assert app.session.result().close_to(naive.result(), 1e-6)

    def test_render(self, small_retailer_db_module):
        features, label = regression_features()
        app = RegressionApp(
            small_retailer_db_module,
            RETAILER_SCHEMAS,
            features,
            label,
            order=retailer_variable_order(),
        )
        text = app.render()
        assert "intercept" in text and "prize" in text
        assert "converged=True" in text and "gradient=" in text

    def test_refit_follows_columns_when_a_category_is_swapped(self):
        """A bulk retires category 0 of C and introduces category 3: the
        column count stays the same, and the refit is a fresh solve over
        the new columns that owes nothing to the previous model."""
        r_rows = [(a, a % 3 - 1) for a in range(6)]
        s_rows = [(a, c, 10 * c + a) for a in range(6) for c in range(3)]
        database = Database(
            [
                Relation.from_tuples(("A", "B"), r_rows, name="R"),
                Relation.from_tuples(("A", "C", "D"), s_rows, name="S"),
            ]
        )
        app = RegressionApp(
            database,
            (RelationSchema("R", ("A", "B")), RelationSchema("S", ("A", "C", "D"))),
            (Feature.continuous("B"), Feature.categorical("C"), Feature.continuous("D")),
            "D",
        )
        first = app.refresh_model()
        swap = Relation(("A", "C", "D"), name="S")
        for a in range(6):
            swap.data[(a, 0, a)] = -1
            swap.data[(a, 3, 30 + a)] = 1
        app.process_bulk([("S", swap)])
        with mock.patch.object(app.solver, "fit", wraps=app.solver.fit) as fit:
            second = app.refresh_model()
        assert fit.call_args.kwargs == {}
        assert len(second.theta) == len(first.theta)
        assert [c.label for c in second.feature_columns] == ["B", "C=1", "C=2", "C=3"]
        assert second.theta.tolist() == app.solver.fit(app.covar()).theta.tolist()
        assert second.converged


class TestChowLiuApp:
    def test_tree_spans_all_features(self, small_retailer_db_module, mi_feature_subset):
        app = ChowLiuApp(
            small_retailer_db_module,
            RETAILER_SCHEMAS,
            mi_feature_subset,
            order=retailer_variable_order(),
        )
        tree = app.tree()
        assert len(tree.edges) == len(mi_feature_subset) - 1

    def test_correlated_attributes_adjacent(self, small_retailer_db_module, mi_feature_subset):
        app = ChowLiuApp(
            small_retailer_db_module,
            RETAILER_SCHEMAS,
            mi_feature_subset,
            order=retailer_variable_order(),
        )
        tree = app.tree()
        edges = {frozenset((u, v)) for u, v, _ in tree.edges}
        # category is a deterministic function of subcategory
        assert frozenset(("subcategory", "category")) in edges

    def test_refresh_under_updates(
        self, small_retailer_db_module, mi_feature_subset, stream_factory
    ):
        app = ChowLiuApp(
            small_retailer_db_module,
            RETAILER_SCHEMAS,
            mi_feature_subset,
            order=retailer_variable_order(),
        )
        app.process_bulk(stream_factory(seed=3).batches(2))
        assert len(app.tree().edges) == len(mi_feature_subset) - 1

    def test_render(self, small_retailer_db_module, mi_feature_subset):
        app = ChowLiuApp(
            small_retailer_db_module,
            RETAILER_SCHEMAS,
            mi_feature_subset,
            root="subcategory",
            order=retailer_variable_order(),
        )
        text = app.render()
        assert "subcategory" in text


class TestMaintenanceStrategyApp:
    def test_renders_tree_and_m3(self):
        app = MaintenanceStrategyApp(
            retailer_query(CountSpec()), order=retailer_variable_order()
        )
        text = app.render()
        assert "V@locn" in text
        assert "DECLARE MAP" in text

    def test_single_view_lookup(self):
        app = MaintenanceStrategyApp(
            retailer_query(CountSpec()), order=retailer_variable_order()
        )
        block = app.render_view("V@ksn")
        assert "V_ksn" in block

    def test_dot_output(self):
        app = MaintenanceStrategyApp(
            retailer_query(CountSpec()), order=retailer_variable_order()
        )
        assert app.render_dot().startswith("digraph")
