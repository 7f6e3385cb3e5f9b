#!/usr/bin/env python3
"""End-to-end pipeline on the Favorita database (the demo's second dataset).

Model selection (MI ranking) picks the features, then ridge regression
learns unit sales from them — both maintained incrementally under a stream
of Sales updates.

Run:  python examples/favorita_pipeline.py
"""

import time

from repro.datasets import (
    FAVORITA_SCHEMAS,
    FavoritaConfig,
    UpdateStream,
    favorita_regression_features,
    favorita_row_factories,
    favorita_variable_order,
    generate_favorita,
)
from repro.engine import FIVMEngine
from repro.ml import (
    RidgeRegression,
    covar_from_payload,
    mutual_information_matrix,
    rank_features,
)
from repro.ml.discretize import binning_for_attribute
from repro.query import Query
from repro.rings import CovarSpec, Feature, MISpec


def maintained(database, spec):
    """An F-IVM engine over ``database`` maintaining ``spec``'s payload."""
    engine = FIVMEngine(
        Query("Favorita", FAVORITA_SCHEMAS, spec=spec), order=favorita_variable_order()
    )
    engine.initialize(database)
    return engine


def main() -> None:
    config = FavoritaConfig(stores=10, dates=40, items=60, sales_rows=2000)
    database = generate_favorita(config)
    print(f"Favorita database: {database}")

    # ------------------------------------------------------------------
    # Step 1: model selection — which attributes predict unitsales?
    # ------------------------------------------------------------------
    sales = database.relation("Sales")
    oil = database.relation("Oil")
    mi_features = (
        Feature.categorical("onpromotion"),
        Feature.categorical("family"),
        Feature.categorical("perishable"),
        Feature.categorical("holidaytype"),
        Feature.categorical("storetype"),
        Feature("oilprize", "continuous", binning_for_attribute(oil, "oilprize", 6)),
        Feature(
            "unitsales",
            "continuous",
            binning_for_attribute(sales, "unitsales", 8),
        ),
    )
    selection = maintained(database, MISpec(mi_features))
    mi = mutual_information_matrix(selection.result().payload(()), selection.plan)
    ranking = rank_features(mi, "unitsales")
    print("\nMI ranking against unitsales:")
    print(ranking.render(0.02))
    print(f"selected: {ranking.selected(0.02)}")

    # ------------------------------------------------------------------
    # Step 2: ridge regression over the demo's feature set
    # ------------------------------------------------------------------
    features, label = favorita_regression_features()
    regression = maintained(database, CovarSpec(features))
    solver = RidgeRegression(
        [f.name for f in features if f.name != label], label, regularization=1e-2
    )

    def refit():
        payload = regression.result().payload(())
        return solver.fit(covar_from_payload(payload, regression.plan))

    model = refit()
    print("\nInitial regression model:")
    print(model.render())

    # ------------------------------------------------------------------
    # Step 3: maintain both under a stream of Sales updates
    # ------------------------------------------------------------------
    stream = UpdateStream(
        database,
        favorita_row_factories(config, database),
        batch_size=400,
        insert_ratio=0.8,
        seed=21,
    )
    print(f"\n{'bulk':>5} {'updates':>8} {'upd/s':>10} {'RMSE':>8}")
    for bulk in range(1, 5):
        batches = list(stream.batches(3))
        updates = sum(sum(map(abs, delta.data.values())) for _, delta in batches)
        started = time.perf_counter()
        regression.apply_batch(batches)
        seconds = time.perf_counter() - started
        model = refit()
        print(
            f"{bulk:>5} {updates:>8} {updates / seconds:>10.0f} "
            f"{model.training_rmse:>8.3f}"
        )

    print("\npromotion effect (one-hot weights):")
    for name, weight in model.coefficients().items():
        if name.startswith("onpromotion"):
            print(f"  {name:<20} {weight:+.4f}")


if __name__ == "__main__":
    main()
