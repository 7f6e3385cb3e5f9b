"""Synthetic Retailer database (the paper's primary demo dataset).

Substitution note (see README, *Datasets*): the real Retailer dataset is
proprietary. This generator reproduces its published *shape* — the five
relations, the 43 attributes listed in the demo's Figure 2c, the join keys
(``locn``, ``dateid``, ``ksn``, ``zip``) and a skewed fact table — with
seeded, correlated synthetic values so that the ML applications produce
meaningful (and deterministic) output:

- ``inventoryunits`` depends on the item's price, its subcategory and the
  location's population, plus noise — so COVAR-based regression has signal
  to find and MI-based model selection ranks those attributes highly;
- census attributes are correlated with each other through ``population``;
- weather attributes are correlated with ``dateid`` (seasonality).

Scales are configurable; defaults keep pure-Python maintenance fast while
preserving relative engine behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.data.database import Database
from repro.data.relation import Relation
from repro.data.schema import RelationSchema
from repro.query.query import Query
from repro.query.variable_order import VONode, VariableOrder
from repro.rings.lifting import Feature
from repro.rings.specs import PayloadSpec

__all__ = [
    "RetailerConfig",
    "RETAILER_SCHEMAS",
    "generate_retailer",
    "retailer_query",
    "retailer_variable_order",
    "retailer_row_factories",
    "regression_features",
    "continuous_covar_features",
    "mi_features",
]

INVENTORY = RelationSchema(
    "Inventory", ("locn", "dateid", "ksn", "inventoryunits")
)
LOCATION = RelationSchema(
    "Location",
    (
        "locn",
        "zip",
        "rgn_cd",
        "clim_zn_nbr",
        "tot_area_sq_ft",
        "sell_area_sq_ft",
        "avghhi",
        "supertargetdistance",
        "supertargetdrivetime",
        "targetdistance",
        "targetdrivetime",
        "walmartdistance",
        "walmartdrivetime",
        "walmartsupercenterdistance",
        "walmartsupercenterdrivetime",
    ),
)
CENSUS = RelationSchema(
    "Census",
    (
        "zip",
        "population",
        "white",
        "asian",
        "pacific",
        "black",
        "medianage",
        "occupiedhouseunits",
        "houseunits",
        "families",
        "households",
        "husbwife",
        "males",
        "females",
        "householdschildren",
        "hispanic",
    ),
)
ITEM = RelationSchema(
    "Item", ("ksn", "subcategory", "category", "categoryCluster", "prize")
)
WEATHER = RelationSchema(
    "Weather",
    ("locn", "dateid", "rain", "snow", "maxtemp", "mintemp", "meanwind", "thunder"),
)

RETAILER_SCHEMAS: Tuple[RelationSchema, ...] = (
    INVENTORY,
    LOCATION,
    CENSUS,
    ITEM,
    WEATHER,
)


@dataclass(frozen=True)
class RetailerConfig:
    """Scale and randomness knobs for the generator."""

    locations: int = 20
    dates: int = 60
    items: int = 120
    inventory_rows: int = 4000
    subcategories: int = 12
    categories: int = 6
    clusters: int = 3
    seed: int = 20180601

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


def _item_row(rng: np.random.Generator, ksn: int, config: RetailerConfig) -> Tuple:
    subcategory = int(rng.integers(0, config.subcategories))
    category = subcategory % config.categories
    cluster = category % config.clusters
    # Price has a per-subcategory base so it correlates with the category tree.
    prize = round(5.0 + 3.0 * subcategory + float(rng.normal(0.0, 2.0)), 2)
    return (ksn, subcategory, category, cluster, prize)


def _census_row(rng: np.random.Generator, zip_code: int) -> Tuple:
    population = int(rng.integers(5_000, 100_000))
    white = int(population * rng.uniform(0.3, 0.8))
    asian = int(population * rng.uniform(0.01, 0.2))
    pacific = int(population * rng.uniform(0.0, 0.05))
    black = int(population * rng.uniform(0.05, 0.4))
    hispanic = int(population * rng.uniform(0.05, 0.4))
    households = int(population / rng.uniform(2.0, 3.5))
    return (
        zip_code,
        population,
        white,
        asian,
        pacific,
        black,
        int(rng.integers(25, 55)),              # medianage
        int(households * rng.uniform(0.85, 0.99)),  # occupiedhouseunits
        int(households * rng.uniform(1.0, 1.15)),   # houseunits
        int(households * rng.uniform(0.55, 0.8)),   # families
        households,
        int(households * rng.uniform(0.35, 0.6)),   # husbwife
        int(population * rng.uniform(0.47, 0.52)),  # males
        int(population * rng.uniform(0.48, 0.53)),  # females
        int(households * rng.uniform(0.2, 0.45)),   # householdschildren
        hispanic,
    )


def _location_row(rng: np.random.Generator, locn: int, zip_code: int) -> Tuple:
    total_area = float(rng.uniform(20_000, 200_000))
    return (
        locn,
        zip_code,
        int(rng.integers(1, 10)),       # rgn_cd
        int(rng.integers(1, 8)),        # clim_zn_nbr
        round(total_area, 1),
        round(total_area * rng.uniform(0.5, 0.9), 1),  # sell_area_sq_ft
        round(float(rng.uniform(30_000, 120_000)), 0),  # avghhi
        round(float(rng.uniform(1, 40)), 1),   # supertargetdistance
        round(float(rng.uniform(2, 60)), 1),   # supertargetdrivetime
        round(float(rng.uniform(1, 30)), 1),   # targetdistance
        round(float(rng.uniform(2, 45)), 1),   # targetdrivetime
        round(float(rng.uniform(0.5, 20)), 1),  # walmartdistance
        round(float(rng.uniform(1, 30)), 1),   # walmartdrivetime
        round(float(rng.uniform(1, 35)), 1),   # walmartsupercenterdistance
        round(float(rng.uniform(2, 50)), 1),   # walmartsupercenterdrivetime
    )


def _weather_row(rng: np.random.Generator, locn: int, dateid: int) -> Tuple:
    # Seasonality: temperature swings with the date index.
    season = 20.0 + 15.0 * np.sin(2.0 * np.pi * dateid / 365.0)
    maxtemp = round(float(season + rng.normal(8.0, 3.0)), 1)
    mintemp = round(float(season - rng.normal(8.0, 3.0)), 1)
    return (
        locn,
        dateid,
        int(rng.random() < 0.25),        # rain
        int(rng.random() < 0.05),        # snow
        maxtemp,
        mintemp,
        round(float(rng.uniform(0, 25)), 1),  # meanwind
        int(rng.random() < 0.08),        # thunder
    )


def _inventory_row(
    rng: np.random.Generator,
    config: RetailerConfig,
    item_price: Dict[int, float],
    item_subcategory: Dict[int, int],
    zip_population: Dict[int, int],
    location_zip: Dict[int, int],
) -> Tuple:
    # Popularity skew: low item ids are ordered far more often.
    ksn = int(min(rng.zipf(1.4), config.items) - 1)
    locn = int(rng.integers(0, config.locations))
    dateid = int(rng.integers(0, config.dates))
    price = item_price[ksn]
    subcategory = item_subcategory[ksn]
    population = zip_population[location_zip[locn]]
    units = (
        40.0
        - 0.8 * price
        + 2.0 * (subcategory % 4)
        + population / 25_000.0
        + float(rng.normal(0.0, 4.0))
    )
    return (locn, dateid, ksn, max(0, int(round(units))))


def generate_retailer(config: RetailerConfig = RetailerConfig()) -> Database:
    """Generate a full five-relation Retailer database."""
    rng = config.rng()
    items = [_item_row(rng, ksn, config) for ksn in range(config.items)]
    zips = [30000 + i for i in range(config.locations)]
    location_zip = {locn: zips[locn] for locn in range(config.locations)}
    census = [_census_row(rng, zip_code) for zip_code in zips]
    locations = [
        _location_row(rng, locn, location_zip[locn])
        for locn in range(config.locations)
    ]
    weather = [
        _weather_row(rng, locn, dateid)
        for locn in range(config.locations)
        for dateid in range(config.dates)
    ]
    item_price = {row[0]: row[4] for row in items}
    item_subcategory = {row[0]: row[1] for row in items}
    zip_population = {row[0]: row[1] for row in census}
    inventory = [
        _inventory_row(rng, config, item_price, item_subcategory, zip_population, location_zip)
        for _ in range(config.inventory_rows)
    ]
    return Database(
        [
            Relation.from_tuples(INVENTORY.attributes, inventory, name="Inventory"),
            Relation.from_tuples(LOCATION.attributes, locations, name="Location"),
            Relation.from_tuples(CENSUS.attributes, census, name="Census"),
            Relation.from_tuples(ITEM.attributes, items, name="Item"),
            Relation.from_tuples(WEATHER.attributes, weather, name="Weather"),
        ]
    )


def retailer_row_factories(
    config: RetailerConfig, database: Database
) -> Dict[str, Callable[[np.random.Generator], Tuple]]:
    """Row factories for the update stream (fresh plausible inserts).

    Only the fact tables receive a factory — the demo streams updates to
    ``Inventory`` (and ``Weather``); dimension tables stay fixed, matching
    the original experiments.
    """
    item_price = {
        key[0]: key[4] for key in database.relation("Item").data
    }
    item_subcategory = {
        key[0]: key[1] for key in database.relation("Item").data
    }
    location_zip = {
        key[0]: key[1] for key in database.relation("Location").data
    }
    zip_population = {
        key[0]: key[1] for key in database.relation("Census").data
    }

    def inventory_factory(rng: np.random.Generator) -> Tuple:
        return _inventory_row(
            rng, config, item_price, item_subcategory, zip_population, location_zip
        )

    def weather_factory(rng: np.random.Generator) -> Tuple:
        locn = int(rng.integers(0, config.locations))
        dateid = int(rng.integers(0, config.dates))
        return _weather_row(rng, locn, dateid)

    return {"Inventory": inventory_factory, "Weather": weather_factory}


def retailer_query(spec: PayloadSpec, name: str = "Retailer") -> Query:
    """The five-relation natural join of the demo."""
    return Query(name, RETAILER_SCHEMAS, spec=spec)


def retailer_variable_order() -> VariableOrder:
    """The view tree of Figure 2d.

    ``locn`` at the root; the date/item branch carries Inventory, Item and
    Weather; the zip branch carries Location and Census.
    """
    return VariableOrder(
        [
            VONode(
                "locn",
                children=(
                    VONode(
                        "dateid",
                        children=(
                            VONode("ksn", relations=("Inventory", "Item")),
                        ),
                        relations=("Weather",),
                    ),
                    VONode("zip", relations=("Location", "Census")),
                ),
            )
        ]
    )


def regression_features() -> Tuple[Tuple[Feature, ...], str]:
    """The demo's Figure 2b feature set and label.

    Features: ``ksn``, ``prize`` (price), ``subcategory``, ``category``,
    ``categoryCluster``; label: ``inventoryunits``. ``ksn`` and the
    category attributes are categorical, price and the label continuous.
    """
    features = (
        Feature.categorical("ksn"),
        Feature.continuous("prize"),
        Feature.categorical("subcategory"),
        Feature.categorical("category"),
        Feature.categorical("categoryCluster"),
        Feature.continuous("inventoryunits"),
    )
    return features, "inventoryunits"


def continuous_covar_features(limit: int = 43) -> Tuple[Feature, ...]:
    """All-continuous features over the Retailer attributes.

    Used by the "thousands of aggregates" experiment: the full 43-attribute
    COVAR matrix has 1 + 43 + 43*44/2 = 990 aggregates maintained as one
    compound payload (44^2 = 1936 scalar entries counting symmetry).
    """
    attrs: List[str] = []
    for schema in RETAILER_SCHEMAS:
        for attr in schema.attributes:
            if attr not in attrs:
                attrs.append(attr)
    return tuple(Feature.continuous(attr) for attr in attrs[:limit])


def mi_features(database: Database, bins: int = 8) -> Tuple[Feature, ...]:
    """MI features over all 43 attributes (Figure 2c).

    Join keys and category-coded attributes are categorical; continuous
    attributes are discretized into equi-width bins derived from the data.
    """
    from repro.ml.discretize import binning_for_attribute

    categorical = {
        "locn",
        "dateid",
        "ksn",
        "zip",
        "rgn_cd",
        "clim_zn_nbr",
        "subcategory",
        "category",
        "categoryCluster",
        "rain",
        "snow",
        "thunder",
    }
    features: List[Feature] = []
    seen = set()
    for schema in RETAILER_SCHEMAS:
        relation = database.relation(schema.name)
        for attr in schema.attributes:
            if attr in seen:
                continue
            seen.add(attr)
            if attr in categorical:
                features.append(Feature.categorical(attr))
            else:
                binning = binning_for_attribute(relation, attr, bins)
                features.append(Feature(attr, "continuous", binning))
    return tuple(features)
