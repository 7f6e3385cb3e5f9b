"""Synthetic Favorita: schemas, determinism, view tree."""

import pytest

from repro.datasets import (
    FAVORITA_SCHEMAS,
    FavoritaConfig,
    favorita_query,
    favorita_regression_features,
    favorita_row_factories,
    favorita_variable_order,
    generate_favorita,
)
from repro.rings import CountSpec

from tests.sql_oracle import SqlOracle


@pytest.fixture(scope="module")
def config():
    return FavoritaConfig(stores=5, dates=12, items=20, sales_rows=200, seed=4)


@pytest.fixture(scope="module")
def db(config):
    return generate_favorita(config)


class TestSchemas:
    def test_six_relations(self):
        assert [s.name for s in FAVORITA_SCHEMAS] == [
            "Sales",
            "Items",
            "Stores",
            "Transactions",
            "Oil",
            "Holiday",
        ]

    def test_join_keys(self):
        query = favorita_query(CountSpec())
        assert set(query.join_attributes) == {"date", "store", "item"}
        assert query.is_acyclic()


class TestGenerator:
    def test_deterministic(self, config):
        db1 = generate_favorita(config)
        db2 = generate_favorita(config)
        for schema in FAVORITA_SCHEMAS:
            assert db1.relation(schema.name) == db2.relation(schema.name)

    def test_cardinalities(self, config, db):
        assert len(db.relation("Stores")) == config.stores
        assert len(db.relation("Oil")) == config.dates
        assert len(db.relation("Items")) == config.items
        assert len(db.relation("Transactions")) == config.stores * config.dates

    def test_join_nonempty(self, db):
        assert SqlOracle(db).count()[()] > 0

    def test_promotion_lifts_sales(self, db):
        promoted, other = [], []
        for key, mult in db.relation("Sales").data.items():
            (promoted if key[4] else other).extend([key[3]] * mult)
        assert sum(promoted) / len(promoted) > sum(other) / len(other)


class TestOrderAndFeatures:
    def test_variable_order_valid(self):
        order = favorita_variable_order()
        order.validate(favorita_query(CountSpec()))
        assert order.roots[0].variable == "date"
        assert order.anchor_of("Sales") == "item"
        assert order.anchor_of("Oil") == "date"

    def test_regression_features(self):
        features, label = favorita_regression_features()
        assert label == "unitsales"
        assert {f.name for f in features} >= {"onpromotion", "oilprize"}

    def test_row_factories(self, config, db):
        factories = favorita_row_factories(config, db)
        row = factories["Sales"](config.rng())
        assert len(row) == 5
