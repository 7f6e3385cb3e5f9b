#!/usr/bin/env python3
"""The Regression tab (Figure 2b) on the synthetic Retailer database.

Maintains the COVAR matrix for the demo's feature set — ksn, price,
subcategory, category, categoryCluster (features) and inventoryunits
(label) — under bulks of updates, re-converging the ridge model after
every bulk with warm-started conjugate gradients.

Run:  python examples/retailer_regression.py
"""

from repro.apps import RegressionApp
from repro.datasets import (
    RETAILER_SCHEMAS,
    RetailerConfig,
    UpdateStream,
    generate_retailer,
    regression_features,
    retailer_row_factories,
    retailer_variable_order,
)


def main() -> None:
    config = RetailerConfig(locations=10, dates=25, items=60, inventory_rows=2000)
    database = generate_retailer(config)
    print(f"Retailer database: {database}")

    features, label = regression_features()
    app = RegressionApp(
        database,
        RETAILER_SCHEMAS,
        features,
        label,
        regularization=1e-2,
        order=retailer_variable_order(),
    )
    model = app.refresh_model()
    covar = app.covar()
    print(
        f"\nInitial model over {covar.dimension} one-hot columns "
        f"({len(model.feature_columns)} feature columns):"
    )
    print(app.render())

    stream = UpdateStream(
        app.session.database,
        retailer_row_factories(config, database),
        targets=("Inventory",),
        batch_size=500,
        insert_ratio=0.75,
        seed=42,
    )

    print("\nProcessing bulks of updates (insert/delete mix on Inventory):")
    print(f"{'bulk':>5} {'updates':>8} {'upd/s':>10} {'RMSE':>8} {'iters':>6}")
    for bulk in range(1, 6):
        report = app.process_bulk(stream.batches(4))
        model = app.refresh_model()
        print(
            f"{bulk:>5} {report.updates:>8} {report.throughput:>10.0f} "
            f"{model.training_rmse:>8.3f} {model.iterations:>6}"
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
