"""Synthetic Retailer: schemas, determinism, correlations, view tree."""


from repro.datasets import (
    RETAILER_SCHEMAS,
    continuous_covar_features,
    generate_retailer,
    mi_features,
    regression_features,
    retailer_query,
    retailer_row_factories,
    retailer_variable_order,
)
from repro.rings import CountSpec

from tests.sql_oracle import SqlOracle


class TestSchemas:
    def test_five_relations(self):
        assert [s.name for s in RETAILER_SCHEMAS] == [
            "Inventory",
            "Location",
            "Census",
            "Item",
            "Weather",
        ]

    def test_43_distinct_attributes(self):
        attrs = set()
        for schema in RETAILER_SCHEMAS:
            attrs.update(schema.attributes)
        assert len(attrs) == 43  # the Figure 2c attribute list

    def test_join_keys(self):
        query = retailer_query(CountSpec())
        assert set(query.join_attributes) == {"locn", "dateid", "ksn", "zip"}
        assert query.is_acyclic()


class TestGenerator:
    def test_deterministic(self, small_retailer_config):
        db1 = generate_retailer(small_retailer_config)
        db2 = generate_retailer(small_retailer_config)
        for schema in RETAILER_SCHEMAS:
            assert db1.relation(schema.name) == db2.relation(schema.name)

    def test_schemas_match(self, small_retailer_db):
        for schema in RETAILER_SCHEMAS:
            assert small_retailer_db.relation(schema.name).schema == schema.attributes

    def test_dimension_cardinalities(self, small_retailer_config, small_retailer_db):
        assert len(small_retailer_db.relation("Location")) == small_retailer_config.locations
        assert len(small_retailer_db.relation("Census")) == small_retailer_config.locations
        assert len(small_retailer_db.relation("Item")) == small_retailer_config.items
        assert (
            len(small_retailer_db.relation("Weather"))
            == small_retailer_config.locations * small_retailer_config.dates
        )

    def test_join_is_nonempty(self, small_retailer_db):
        assert SqlOracle(small_retailer_db).count()[()] > 0

    def test_inventory_skewed_towards_low_ksn(self, small_retailer_db):
        ksn_counts = {}
        for key, mult in small_retailer_db.relation("Inventory").data.items():
            ksn_counts[key[2]] = ksn_counts.get(key[2], 0) + mult
        low = sum(c for k, c in ksn_counts.items() if k < 5)
        high = sum(c for k, c in ksn_counts.items() if k >= 5)
        assert low > high  # zipf skew

    def test_price_correlates_with_subcategory(self, small_retailer_db):
        rows = list(small_retailer_db.relation("Item").data)
        # Same subcategory -> similar base price (band of ±3*sigma around 5+3*sub).
        for ksn, subcategory, _cat, _cl, prize in rows:
            assert abs(prize - (5.0 + 3.0 * subcategory)) < 8.0


class TestRowFactories:
    def test_factories_produce_valid_rows(self, small_retailer_config, small_retailer_db):
        factories = retailer_row_factories(small_retailer_config, small_retailer_db)
        rng = small_retailer_config.rng()
        inv_row = factories["Inventory"](rng)
        assert len(inv_row) == 4
        weather_row = factories["Weather"](rng)
        assert len(weather_row) == 8


class TestFeatureSets:
    def test_regression_features(self):
        features, label = regression_features()
        assert label == "inventoryunits"
        names = [f.name for f in features]
        assert "prize" in names and "ksn" in names

    def test_continuous_features_cover_everything(self):
        features = continuous_covar_features()
        assert len(features) == 43
        assert all(not f.is_categorical for f in features)
        # 1 + m + m(m+1)/2 aggregates maintained as one payload
        m = len(features)
        assert 1 + m + m * (m + 1) // 2 == 990

    def test_limited_continuous_features(self):
        assert len(continuous_covar_features(5)) == 5

    def test_mi_features_all_binned_or_categorical(self, small_retailer_db):
        features = mi_features(small_retailer_db, bins=4)
        assert len(features) == 43
        assert all(f.is_categorical for f in features)


class TestVariableOrder:
    def test_matches_figure_2d(self):
        order = retailer_variable_order()
        query = retailer_query(CountSpec())
        order.validate(query)
        assert order.roots[0].variable == "locn"
        assert order.anchor_of("Inventory") == "ksn"
        assert order.anchor_of("Weather") == "dateid"
        assert order.anchor_of("Census") == "zip"
        assert order.dependency_set(query, "ksn") == ("locn", "dateid")
        assert order.dependency_set(query, "zip") == ("locn",)
