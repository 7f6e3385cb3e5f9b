"""The demo's applications as functions of one maintained root payload.

Model Selection ranks features by mutual information with a label, the
Regression tab fits a ridge model and the Chow-Liu tab builds a tree,
each from the root payload of one F-IVM engine (an MI or a COVAR
payload) — the same calls ``repro run`` prints and ``repro serve``
answers ``/topk`` and ``/model`` with. Here they run on the synthetic
Retailer and Favorita databases, whose generators plant the signals
checked for, before and after bulks of updates; after the bulks the
maintained payload is checked against sqlite (``tests/sql_oracle.py``).
"""

import numpy as np
import pytest

from repro.data import Database, Relation, RelationSchema
from repro.datasets import (
    FAVORITA_SCHEMAS,
    RETAILER_SCHEMAS,
    FavoritaConfig,
    RetailerConfig,
    UpdateStream,
    favorita_regression_features,
    favorita_row_factories,
    favorita_variable_order,
    generate_favorita,
    generate_retailer,
    regression_features,
    retailer_row_factories,
    retailer_variable_order,
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

from tests.sql_oracle import COVAR_RTOL, SqlOracle, engine_covar_gap

RETAILER = RetailerConfig(locations=6, dates=10, items=30, inventory_rows=400, seed=11)
FAVORITA = FavoritaConfig(stores=6, dates=15, items=25, sales_rows=400, seed=19)

#: Within a subcategory, inventoryunits = ... - 0.8 * prize + noise; the
#: demo's full feature set has per-item one-hots that absorb the price
#: effect, so the slope check uses this reduced model.
STABLE_FEATURES = (
    Feature.continuous("prize"),
    Feature.categorical("subcategory"),
    Feature.continuous("inventoryunits"),
)


def maintained(database, schemas, spec, order=None):
    engine = FIVMEngine(Query("Q", tuple(schemas), spec=spec), order=order)
    engine.initialize(database)
    return engine


def ranking(engine, label):
    mi = mutual_information_matrix(engine.result().payload(()), engine.plan)
    return rank_features(mi, label)


def tree(engine, root=None):
    mi = mutual_information_matrix(engine.result().payload(()), engine.plan)
    return chow_liu_tree(mi, root=root)


def ridge(engine, label, regularization=1e-2):
    features = [f.name for f in engine.plan.features if f.name != label]
    covar = covar_from_payload(engine.result().payload(()), engine.plan)
    return RidgeRegression(features, label, regularization).fit(covar)


def apply_bulk(engine, oracle, stream, batches):
    for name, delta in stream.batches(batches):
        engine.apply(name, delta)
        oracle.apply(name, delta)


@pytest.fixture(scope="module")
def retailer_db():
    return generate_retailer(RETAILER)


@pytest.fixture(scope="module")
def retailer_mi(retailer_db):
    return MISpec(
        (
            Feature.categorical("subcategory"),
            Feature.categorical("category"),
            Feature(
                "prize",
                "continuous",
                binning_for_attribute(retailer_db.relation("Item"), "prize", 6),
            ),
            Feature(
                "inventoryunits",
                "continuous",
                binning_for_attribute(
                    retailer_db.relation("Inventory"), "inventoryunits", 6
                ),
            ),
            Feature.categorical("rain"),
        )
    )


def retailer_stream(database, seed):
    return UpdateStream(
        database,
        retailer_row_factories(RETAILER, database),
        targets=("Inventory",),
        batch_size=100,
        insert_ratio=0.7,
        seed=seed,
    )


class TestRetailerModelSelection:
    def test_planted_signal_ranked_first(self, retailer_db, retailer_mi):
        engine = maintained(
            retailer_db, RETAILER_SCHEMAS, retailer_mi, retailer_variable_order()
        )
        ranked = ranking(engine, "inventoryunits")
        attributes = [attribute for attribute, _ in ranked.ranked]
        # inventoryunits = f(price, subcategory, ...): those rank above rain
        assert attributes.index("subcategory") < attributes.index("rain")
        assert attributes.index("prize") < attributes.index("rain")
        assert "rain" not in ranked.selected(0.05)
        assert "label: inventoryunits" in ranked.render(0.05)

    def test_ranking_refreshes_after_bulks(self, retailer_db, retailer_mi):
        engine = maintained(
            retailer_db, RETAILER_SCHEMAS, retailer_mi, retailer_variable_order()
        )
        oracle = SqlOracle(retailer_db)
        before = ranking(engine, "inventoryunits")
        apply_bulk(engine, oracle, retailer_stream(retailer_db, seed=5), 3)
        after = ranking(engine, "inventoryunits")
        assert len(after.ranked) == len(retailer_mi.features) - 1
        assert after.ranked != before.ranked
        assert engine_covar_gap(engine, oracle) <= COVAR_RTOL


class TestRetailerRegression:
    def test_model_recovers_planted_price_slope(self, retailer_db):
        engine = maintained(
            retailer_db,
            RETAILER_SCHEMAS,
            CovarSpec(STABLE_FEATURES),
            retailer_variable_order(),
        )
        model = ridge(engine, "inventoryunits", regularization=1e-4)
        assert model.coefficients()["prize"] < 0
        assert model.training_rmse < 20.0

    def test_demo_feature_set_fits(self, retailer_db):
        features, label = regression_features()
        engine = maintained(
            retailer_db, RETAILER_SCHEMAS, CovarSpec(features), retailer_variable_order()
        )
        model = ridge(engine, label)
        # one column per live ksn plus the category tree plus price
        assert len(model.feature_columns) > 10
        assert model.converged
        assert model.training_rmse < 20.0
        text = model.render()
        assert "intercept" in text and "prize" in text
        assert "converged=True" in text and "gradient=" in text

    def test_refit_after_bulks(self, retailer_db):
        engine = maintained(
            retailer_db,
            RETAILER_SCHEMAS,
            CovarSpec(STABLE_FEATURES),
            retailer_variable_order(),
        )
        oracle = SqlOracle(retailer_db)
        first = ridge(engine, "inventoryunits")
        apply_bulk(engine, oracle, retailer_stream(retailer_db, seed=9), 2)
        second = ridge(engine, "inventoryunits")
        assert first.converged and second.converged
        assert second.theta.tolist() != first.theta.tolist()
        if second.theta.shape == first.theta.shape:
            # a small bulk moves the parameters but keeps them in one region
            assert np.linalg.norm(second.theta - first.theta) < max(
                np.linalg.norm(first.theta), 1.0
            )
        assert np.isfinite(second.training_rmse)

    def test_demo_covar_consistent_after_bulks(self, retailer_db):
        features, _label = regression_features()
        engine = maintained(
            retailer_db, RETAILER_SCHEMAS, CovarSpec(features), retailer_variable_order()
        )
        oracle = SqlOracle(retailer_db)
        apply_bulk(engine, oracle, retailer_stream(retailer_db, seed=2), 2)
        assert engine_covar_gap(engine, oracle) <= COVAR_RTOL

    def test_refit_follows_columns_when_a_category_is_swapped(self):
        """A bulk retires category 0 of C and introduces category 3: the
        column count stays the same, and the refit is a fresh solve over
        the new columns."""
        r_rows = [(a, a % 3 - 1) for a in range(6)]
        s_rows = [(a, c, 10 * c + a) for a in range(6) for c in range(3)]
        database = Database(
            [
                Relation.from_tuples(("A", "B"), r_rows, name="R"),
                Relation.from_tuples(("A", "C", "D"), s_rows, name="S"),
            ]
        )
        engine = maintained(
            database,
            (RelationSchema("R", ("A", "B")), RelationSchema("S", ("A", "C", "D"))),
            CovarSpec(
                (Feature.continuous("B"), Feature.categorical("C"), Feature.continuous("D"))
            ),
        )
        first = ridge(engine, "D")
        swap = Relation(("A", "C", "D"), name="S")
        for a in range(6):
            swap.data[(a, 0, a)] = -1
            swap.data[(a, 3, 30 + a)] = 1
        engine.apply("S", swap)
        second = ridge(engine, "D")
        assert len(second.theta) == len(first.theta)
        assert [c.label for c in second.feature_columns] == ["B", "C=1", "C=2", "C=3"]
        assert second.converged


class TestRetailerChowLiu:
    def test_tree_spans_every_attribute(self, retailer_db, retailer_mi):
        engine = maintained(
            retailer_db, RETAILER_SCHEMAS, retailer_mi, retailer_variable_order()
        )
        built = tree(engine)
        assert len(built.edges) == len(retailer_mi.features) - 1
        assert {node for edge in built.edges for node in edge[:2]} == {
            feature.name for feature in retailer_mi.features
        }

    def test_correlated_attributes_adjacent(self, retailer_db, retailer_mi):
        engine = maintained(
            retailer_db, RETAILER_SCHEMAS, retailer_mi, retailer_variable_order()
        )
        edges = {frozenset((u, v)) for u, v, _ in tree(engine).edges}
        # category is a deterministic function of subcategory
        assert frozenset(("subcategory", "category")) in edges

    def test_tree_refreshes_after_bulks(self, retailer_db, retailer_mi):
        engine = maintained(
            retailer_db, RETAILER_SCHEMAS, retailer_mi, retailer_variable_order()
        )
        oracle = SqlOracle(retailer_db)
        apply_bulk(engine, oracle, retailer_stream(retailer_db, seed=3), 2)
        built = tree(engine, root="subcategory")
        assert len(built.edges) == len(retailer_mi.features) - 1
        assert built.render().startswith("subcategory")
        assert engine_covar_gap(engine, oracle) <= COVAR_RTOL


@pytest.fixture(scope="module")
def favorita_db():
    return generate_favorita(FAVORITA)


@pytest.fixture(scope="module")
def favorita_mi(favorita_db):
    sales = favorita_db.relation("Sales")
    oil = favorita_db.relation("Oil")
    return MISpec(
        (
            Feature.categorical("onpromotion"),
            Feature.categorical("family"),
            Feature.categorical("holidaytype"),
            Feature("oilprize", "continuous", binning_for_attribute(oil, "oilprize", 5)),
            Feature(
                "unitsales", "continuous", binning_for_attribute(sales, "unitsales", 6)
            ),
        )
    )


def favorita_stream(database):
    return UpdateStream(
        database,
        favorita_row_factories(FAVORITA, database),
        targets=("Sales",),
        batch_size=100,
        insert_ratio=0.7,
        seed=3,
    )


class TestFavorita:
    def test_planted_signals_have_positive_mi(self, favorita_db, favorita_mi):
        # Every MI feature is a planted signal in the Favorita generator
        # (promotion +6 units, holidays +4, family and oil price smaller),
        # so all must carry measurable MI with the label.
        engine = maintained(
            favorita_db, FAVORITA_SCHEMAS, favorita_mi, favorita_variable_order()
        )
        scores = dict(ranking(engine, "unitsales").ranked)
        assert scores["onpromotion"] > 0.02
        assert all(mi > 0 for mi in scores.values())
        assert len(tree(engine).edges) == len(favorita_mi.features) - 1

    def test_ranking_survives_bulks(self, favorita_db, favorita_mi):
        engine = maintained(
            favorita_db, FAVORITA_SCHEMAS, favorita_mi, favorita_variable_order()
        )
        oracle = SqlOracle(favorita_db)
        apply_bulk(engine, oracle, favorita_stream(favorita_db), 3)
        assert len(ranking(engine, "unitsales").ranked) == 4
        assert engine_covar_gap(engine, oracle) <= COVAR_RTOL

    def test_promotion_lifts_prediction(self, favorita_db):
        features, label = favorita_regression_features()
        engine = maintained(
            favorita_db, FAVORITA_SCHEMAS, CovarSpec(features), favorita_variable_order()
        )
        model = ridge(engine, label)
        base = {"onpromotion": 0, "family": 1, "oilprize": 45.0, "holidaytype": 0}
        assert model.predict(dict(base, onpromotion=1)) > model.predict(base)

    def test_covar_consistent_after_bulks(self, favorita_db):
        features, _label = favorita_regression_features()
        engine = maintained(
            favorita_db, FAVORITA_SCHEMAS, CovarSpec(features), favorita_variable_order()
        )
        oracle = SqlOracle(favorita_db)
        apply_bulk(engine, oracle, favorita_stream(favorita_db), 3)
        assert engine_covar_gap(engine, oracle) <= COVAR_RTOL


@pytest.mark.slow
def test_full_demo_session():
    """Model Selection picks the features the Regression tab then learns
    over, beside a Chow-Liu tree over the MI features; one stream drives
    both engines, and afterwards every tab still answers and the
    maintained regression COVAR equals sqlite's."""
    config = RetailerConfig(locations=6, dates=10, items=30, inventory_rows=500, seed=23)
    database = generate_retailer(config)
    order = retailer_variable_order()
    item, inventory = database.relation("Item"), database.relation("Inventory")
    mi_spec = MISpec(
        (
            Feature.categorical("ksn"),
            Feature.categorical("subcategory"),
            Feature.categorical("category"),
            Feature("prize", "continuous", binning_for_attribute(item, "prize", 6)),
            Feature(
                "inventoryunits",
                "continuous",
                binning_for_attribute(inventory, "inventoryunits", 6),
            ),
            Feature.categorical("rain"),
        )
    )
    selection = maintained(database, RETAILER_SCHEMAS, mi_spec, order)
    selected = ranking(selection, "inventoryunits").selected(0.05)
    assert "rain" not in selected and len(selected) >= 2

    kinds = {
        "ksn": Feature.categorical("ksn"),
        "subcategory": Feature.categorical("subcategory"),
        "category": Feature.categorical("category"),
        "prize": Feature.continuous("prize"),
    }
    regression_spec = CovarSpec(
        tuple(kinds[name] for name in selected if name in kinds)
        + (Feature.continuous("inventoryunits"),)
    )
    regression = maintained(database, RETAILER_SCHEMAS, regression_spec, order)
    before = ridge(regression, "inventoryunits")
    assert len(tree(selection).edges) == len(mi_spec.features) - 1

    oracle = SqlOracle(database)
    stream = UpdateStream(
        database,
        retailer_row_factories(config, database),
        targets=("Inventory",),
        batch_size=200,
        insert_ratio=0.7,
        seed=77,
    )
    for name, delta in stream.batches(4):
        selection.apply(name, delta)
        regression.apply(name, delta)
        oracle.apply(name, delta)

    assert len(ranking(selection, "inventoryunits").ranked) == len(mi_spec.features) - 1
    assert ridge(regression, "inventoryunits").training_rmse < before.training_rmse * 2
    assert len(tree(selection).edges) == len(mi_spec.features) - 1
    assert engine_covar_gap(regression, oracle) <= COVAR_RTOL
    assert engine_covar_gap(selection, oracle) <= COVAR_RTOL
