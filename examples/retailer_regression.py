#!/usr/bin/env python3
"""The Regression tab (Figure 2b) on the synthetic Retailer database.

Maintains the COVAR matrix for the demo's feature set — ksn, price,
subcategory, category, categoryCluster (features) and inventoryunits
(label) — under bulks of updates, refitting the ridge model after every
bulk by one direct solve over the maintained matrix.

Run:  python examples/retailer_regression.py
"""

import time

from repro.datasets import (
    RETAILER_SCHEMAS,
    RetailerConfig,
    UpdateStream,
    generate_retailer,
    regression_features,
    retailer_row_factories,
    retailer_variable_order,
)
from repro.engine import FIVMEngine
from repro.ml import RidgeRegression, covar_from_payload
from repro.query import Query
from repro.rings import CovarSpec


def main() -> None:
    config = RetailerConfig(locations=10, dates=25, items=60, inventory_rows=2000)
    database = generate_retailer(config)
    print(f"Retailer database: {database}")

    features, label = regression_features()
    # One engine maintains the COVAR matrix; every refit is one direct solve
    # over its root payload.
    engine = FIVMEngine(
        Query("Regression", RETAILER_SCHEMAS, spec=CovarSpec(features)),
        order=retailer_variable_order(),
    )
    engine.initialize(database)
    solver = RidgeRegression(
        [f.name for f in features if f.name != label], label, regularization=1e-2
    )

    def covar():
        return covar_from_payload(engine.result().payload(()), engine.plan)

    model = solver.fit(covar())
    print(
        f"\nInitial model over {covar().dimension} one-hot columns "
        f"({len(model.feature_columns)} feature columns):"
    )
    print(model.render())

    stream = UpdateStream(
        database,
        retailer_row_factories(config, database),
        targets=("Inventory",),
        batch_size=500,
        insert_ratio=0.75,
        seed=42,
    )

    print("\nProcessing bulks of updates (insert/delete mix on Inventory):")
    print(f"{'bulk':>5} {'updates':>8} {'upd/s':>10} {'RMSE':>8} {'gradient':>9}")
    for bulk in range(1, 6):
        batches = list(stream.batches(4))
        updates = sum(sum(map(abs, delta.data.values())) for _, delta in batches)
        started = time.perf_counter()
        engine.apply_batch(batches)
        seconds = time.perf_counter() - started
        model = solver.fit(covar())
        print(
            f"{bulk:>5} {updates:>8} {updates / seconds:>10.0f} "
            f"{model.training_rmse:>8.3f} {model.gradient_norm:>9.1e}"
        )

    print("\nFinal parameters (top weights by magnitude):")
    coefficients = sorted(
        model.coefficients().items(), key=lambda kv: -abs(kv[1])
    )
    print(f"  intercept                    {model.intercept:+9.4f}")
    for name, weight in coefficients[:10]:
        print(f"  {name:<28} {weight:+9.4f}")

    example_row = {
        "ksn": 3,
        "prize": 20.0,
        "subcategory": 5,
        "category": 5,
        "categoryCluster": 2,
    }
    print(f"\npredict({example_row}) = {model.predict(example_row):.2f} units")


if __name__ == "__main__":
    main()
