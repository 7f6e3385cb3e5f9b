"""Serving scenarios: one recipe shared by the server, bench and tests.

`repro serve` boots an engine over a dataset and streams seeded updates
into it; the load generator (and the CI smoke job) must be able to
rebuild *exactly* that engine and stream to verify served reads against
a post-hoc batch evaluation. :func:`build_serving_scenario` is that
shared recipe: dataset x payload -> (database, query, order, stream
factories, model labels), fully determined by ``(dataset, payload,
scale, seed)``. The server advertises those four values (plus the batch
size and insert ratio) under ``/stats``, which is all a verifier needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.data.database import Database
from repro.datasets import (
    FavoritaConfig,
    RetailerConfig,
    UpdateStream,
    favorita_query,
    favorita_regression_features,
    favorita_row_factories,
    favorita_variable_order,
    generate_favorita,
    generate_retailer,
    regression_features,
    retailer_query,
    retailer_row_factories,
    retailer_variable_order,
    toy_covar_continuous_query,
    toy_database,
    toy_mi_query,
    toy_query,
    toy_row_factories,
    toy_variable_order,
)
from repro.config import EngineConfig, create_engine
from repro.engine.base import MaintenanceEngine
from repro.errors import EngineError
from repro.ml.discretize import binning_for_attribute
from repro.query.query import Query
from repro.query.variable_order import VariableOrder
from repro.rings import CountSpec, CovarSpec, Feature, MISpec

__all__ = ["ServingScenario", "build_serving_scenario"]

DATASETS = ("toy", "retailer", "favorita")
PAYLOADS = ("count", "covar", "mi")


@dataclass
class ServingScenario:
    """Everything needed to serve — or to re-derive what was served."""

    dataset: str
    payload: str
    scale: int
    seed: int
    database: Database
    query: Query
    order: VariableOrder
    factories: Dict[str, Callable]
    targets: Tuple[str, ...]
    #: Label attribute for ``/predict``/``/model`` (COVAR) or ``/topk`` (MI).
    regression_label: Optional[str] = None
    mi_label: Optional[str] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def stream(
        self,
        batch_size: int = 500,
        insert_ratio: float = 0.7,
        seed: Optional[int] = None,
    ) -> UpdateStream:
        """A fresh seeded update stream (same arguments -> same events)."""
        return UpdateStream(
            self.database,
            self.factories,
            targets=self.targets,
            batch_size=batch_size,
            insert_ratio=insert_ratio,
            seed=self.seed if seed is None else seed,
        )

    def engine(
        self,
        shards: int = 1,
        backend: str = "auto",
        config: Optional[EngineConfig] = None,
    ) -> MaintenanceEngine:
        """An initialized engine maintaining the scenario's query.

        ``config`` wins when given; the ``shards``/``backend`` shorthand
        builds an equivalent :class:`EngineConfig`.
        """
        if config is None:
            config = EngineConfig(shards=shards, backend=backend)
        built = create_engine(self.query, config=config, order=self.order)
        built.initialize(self.database)
        return built

    def provenance(self, batch_size: int, insert_ratio: float) -> Dict[str, Any]:
        """The ``/stats`` metadata a verifier needs to replay the stream."""
        return {
            "dataset": self.dataset,
            "payload": self.payload,
            "scale": self.scale,
            "seed": self.seed,
            "batch_size": batch_size,
            "insert_ratio": insert_ratio,
        }


def _toy_scenario(payload: str, scale: int, seed: int) -> ServingScenario:
    database = toy_database()
    if payload == "covar":
        query = toy_covar_continuous_query()
        regression_label, mi_label = "D", None
    elif payload == "mi":
        query = toy_mi_query()
        regression_label, mi_label = None, "B"
    else:
        query = toy_query(CountSpec(), name="Q_count")
        regression_label = mi_label = None
    return ServingScenario(
        dataset="toy",
        payload=payload,
        scale=scale,
        seed=seed,
        database=database,
        query=query,
        order=toy_variable_order(),
        factories=toy_row_factories(),
        targets=("R", "S"),
        regression_label=regression_label,
        mi_label=mi_label,
    )


def _retailer_scenario(payload: str, scale: int, seed: int) -> ServingScenario:
    config = RetailerConfig(
        locations=scale * 8,
        dates=scale * 15,
        items=scale * 60,
        inventory_rows=scale * 1200,
        seed=seed,
    )
    database = generate_retailer(config)
    regression_label = mi_label = None
    if payload == "covar":
        features, regression_label = regression_features()
        query = retailer_query(CovarSpec(features))
    elif payload == "mi":
        # The CLI's Model Selection feature set (binned continuous attrs).
        item = database.relation("Item")
        inventory = database.relation("Inventory")
        features = (
            Feature.categorical("ksn"),
            Feature.categorical("subcategory"),
            Feature.categorical("category"),
            Feature.categorical("categoryCluster"),
            Feature("prize", "continuous", binning_for_attribute(item, "prize", 8)),
            Feature(
                "inventoryunits",
                "continuous",
                binning_for_attribute(inventory, "inventoryunits", 8),
            ),
            Feature.categorical("rain"),
        )
        mi_label = "inventoryunits"
        query = retailer_query(MISpec(features))
    else:
        query = retailer_query(CountSpec())
    return ServingScenario(
        dataset="retailer",
        payload=payload,
        scale=scale,
        seed=seed,
        database=database,
        query=query,
        order=retailer_variable_order(),
        factories=retailer_row_factories(config, database),
        targets=("Inventory",),
        regression_label=regression_label,
        mi_label=mi_label,
    )


def _favorita_scenario(payload: str, scale: int, seed: int) -> ServingScenario:
    config = FavoritaConfig(
        stores=scale * 8,
        dates=scale * 20,
        items=scale * 50,
        sales_rows=scale * 1000,
        seed=seed,
    )
    database = generate_favorita(config)
    regression_label = mi_label = None
    if payload == "covar":
        features, regression_label = favorita_regression_features()
        query = favorita_query(CovarSpec(features))
    elif payload == "mi":
        sales = database.relation("Sales")
        oil = database.relation("Oil")
        features = (
            Feature.categorical("onpromotion"),
            Feature.categorical("family"),
            Feature.categorical("holidaytype"),
            Feature("oilprize", "continuous", binning_for_attribute(oil, "oilprize", 6)),
            Feature(
                "unitsales", "continuous", binning_for_attribute(sales, "unitsales", 8)
            ),
        )
        mi_label = "unitsales"
        query = favorita_query(MISpec(features))
    else:
        query = favorita_query(CountSpec())
    return ServingScenario(
        dataset="favorita",
        payload=payload,
        scale=scale,
        seed=seed,
        database=database,
        query=query,
        order=favorita_variable_order(),
        factories=favorita_row_factories(config, database),
        targets=("Sales",),
        regression_label=regression_label,
        mi_label=mi_label,
    )


def build_serving_scenario(
    dataset: str, payload: str, scale: int = 1, seed: int = 1
) -> ServingScenario:
    """Deterministic serving recipe for ``(dataset, payload, scale, seed)``."""
    if dataset not in DATASETS:
        raise EngineError(f"unknown serving dataset {dataset!r} (one of {DATASETS})")
    if payload not in PAYLOADS:
        raise EngineError(f"unknown serving payload {payload!r} (one of {PAYLOADS})")
    if dataset == "toy":
        return _toy_scenario(payload, scale, seed)
    if dataset == "retailer":
        return _retailer_scenario(payload, scale, seed)
    return _favorita_scenario(payload, scale, seed)
