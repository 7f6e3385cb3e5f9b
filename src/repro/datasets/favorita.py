"""Synthetic Favorita database (the demo's second dataset, ref [2]).

The Kaggle "Corporación Favorita Grocery Sales Forecasting" data joins a
sales fact table with items, stores, daily transactions, the oil price and
a holiday calendar on ``date``, ``store`` and ``item``. As with Retailer
(see README, *Datasets*), we reproduce the schema, join keys and value correlations
synthetically: unit sales depend on the item family, promotions, the oil
price (fuel costs) and holidays, so the learned models have real signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from repro.data.database import Database
from repro.data.relation import Relation
from repro.data.schema import RelationSchema
from repro.query.query import Query
from repro.query.variable_order import VONode, VariableOrder
from repro.rings.lifting import Feature
from repro.rings.specs import PayloadSpec

__all__ = [
    "FavoritaConfig",
    "FAVORITA_SCHEMAS",
    "generate_favorita",
    "favorita_query",
    "favorita_variable_order",
    "favorita_row_factories",
    "favorita_regression_features",
]

SALES = RelationSchema("Sales", ("date", "store", "item", "unitsales", "onpromotion"))
ITEMS = RelationSchema("Items", ("item", "family", "itemclass", "perishable"))
STORES = RelationSchema("Stores", ("store", "city", "state", "storetype", "cluster"))
TRANSACTIONS = RelationSchema("Transactions", ("date", "store", "transactions"))
OIL = RelationSchema("Oil", ("date", "oilprize"))
HOLIDAY = RelationSchema("Holiday", ("date", "holidaytype", "locale", "transferred"))

FAVORITA_SCHEMAS: Tuple[RelationSchema, ...] = (
    SALES,
    ITEMS,
    STORES,
    TRANSACTIONS,
    OIL,
    HOLIDAY,
)


@dataclass(frozen=True)
class FavoritaConfig:
    """Scale and randomness knobs."""

    stores: int = 15
    dates: int = 60
    items: int = 80
    sales_rows: int = 3000
    families: int = 8
    seed: int = 20170817

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


def _oil_price(dateid: int, rng: np.random.Generator) -> float:
    return round(45.0 + 10.0 * np.sin(dateid / 9.0) + float(rng.normal(0, 1.5)), 2)


def generate_favorita(config: FavoritaConfig = FavoritaConfig()) -> Database:
    rng = config.rng()
    items = [
        (
            item,
            int(rng.integers(0, config.families)),       # family
            int(rng.integers(1000, 1000 + 4 * config.families)),  # itemclass
            int(rng.random() < 0.3),                      # perishable
        )
        for item in range(config.items)
    ]
    stores = [
        (
            store,
            int(rng.integers(0, 12)),     # city
            int(rng.integers(0, 6)),      # state
            int(rng.integers(0, 5)),      # storetype
            int(rng.integers(1, 18)),     # cluster
        )
        for store in range(config.stores)
    ]
    oil = [(dateid, _oil_price(dateid, rng)) for dateid in range(config.dates)]
    holiday = [
        (
            dateid,
            int(rng.integers(0, 3)),   # holidaytype (0 = workday)
            int(rng.integers(0, 3)),   # locale
            int(rng.random() < 0.1),   # transferred
        )
        for dateid in range(config.dates)
    ]
    transactions = [
        (dateid, store, int(rng.integers(500, 4000)))
        for dateid in range(config.dates)
        for store in range(config.stores)
    ]
    oil_by_date = {row[0]: row[1] for row in oil}
    holiday_by_date = {row[0]: row[1] for row in holiday}
    family_by_item = {row[0]: row[1] for row in items}
    sales = [
        _sales_row(rng, config, oil_by_date, holiday_by_date, family_by_item)
        for _ in range(config.sales_rows)
    ]
    return Database(
        [
            Relation.from_tuples(SALES.attributes, sales, name="Sales"),
            Relation.from_tuples(ITEMS.attributes, items, name="Items"),
            Relation.from_tuples(STORES.attributes, stores, name="Stores"),
            Relation.from_tuples(
                TRANSACTIONS.attributes, transactions, name="Transactions"
            ),
            Relation.from_tuples(OIL.attributes, oil, name="Oil"),
            Relation.from_tuples(HOLIDAY.attributes, holiday, name="Holiday"),
        ]
    )


def _sales_row(
    rng: np.random.Generator,
    config: FavoritaConfig,
    oil_by_date: Dict[int, float],
    holiday_by_date: Dict[int, int],
    family_by_item: Dict[int, int],
) -> Tuple:
    item = int(min(rng.zipf(1.3), config.items) - 1)
    store = int(rng.integers(0, config.stores))
    dateid = int(rng.integers(0, config.dates))
    onpromotion = int(rng.random() < 0.2)
    units = (
        8.0
        + 3.0 * (family_by_item[item] % 3)
        + 6.0 * onpromotion
        + 4.0 * (holiday_by_date[dateid] > 0)
        - 0.1 * oil_by_date[dateid]
        + float(rng.normal(0.0, 2.0))
    )
    return (dateid, store, item, max(0, int(round(units))), onpromotion)


def favorita_row_factories(
    config: FavoritaConfig, database: Database
) -> Dict[str, Callable[[np.random.Generator], Tuple]]:
    """Insert factories for the update stream (Sales is the moving table)."""
    oil_by_date = {key[0]: key[1] for key in database.relation("Oil").data}
    holiday_by_date = {key[0]: key[1] for key in database.relation("Holiday").data}
    family_by_item = {key[0]: key[1] for key in database.relation("Items").data}

    def sales_factory(rng: np.random.Generator) -> Tuple:
        return _sales_row(rng, config, oil_by_date, holiday_by_date, family_by_item)

    return {"Sales": sales_factory}


def favorita_query(spec: PayloadSpec, name: str = "Favorita") -> Query:
    """The six-relation natural join."""
    return Query(name, FAVORITA_SCHEMAS, spec=spec)


def favorita_variable_order() -> VariableOrder:
    """date at the root, store below it, item below that (fact at item)."""
    return VariableOrder(
        [
            VONode(
                "date",
                children=(
                    VONode(
                        "store",
                        children=(VONode("item", relations=("Sales", "Items")),),
                        relations=("Stores", "Transactions"),
                    ),
                ),
                relations=("Oil", "Holiday"),
            )
        ]
    )


def favorita_regression_features() -> Tuple[Tuple[Feature, ...], str]:
    """Predict unit sales from promotion, family, oil price and holidays."""
    features = (
        Feature.categorical("onpromotion"),
        Feature.categorical("family"),
        Feature.continuous("oilprize"),
        Feature.categorical("holidaytype"),
        Feature.continuous("unitsales"),
    )
    return features, "unitsales"
