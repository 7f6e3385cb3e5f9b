#!/usr/bin/env python3
"""The Chow-Liu Tree tab (Figure 2c) on the synthetic Retailer database.

Maintains the pairwise MI matrix and rebuilds the optimal tree-shaped
Bayesian network after every bulk of updates.

Run:  python examples/retailer_chowliu.py
"""

import time

from repro.datasets import (
    RETAILER_SCHEMAS,
    RetailerConfig,
    UpdateStream,
    generate_retailer,
    retailer_row_factories,
    retailer_variable_order,
)
from repro.engine import FIVMEngine
from repro.ml import chow_liu_tree, mutual_information_matrix
from repro.ml.discretize import binning_for_attribute
from repro.query import Query
from repro.rings import Feature, MISpec


def main() -> None:
    config = RetailerConfig(locations=10, dates=25, items=60, inventory_rows=1500)
    database = generate_retailer(config)
    print(f"Retailer database: {database}")

    item = database.relation("Item")
    inventory = database.relation("Inventory")
    weather = database.relation("Weather")
    features = (
        Feature.categorical("subcategory"),
        Feature.categorical("category"),
        Feature.categorical("categoryCluster"),
        Feature("prize", "continuous", binning_for_attribute(item, "prize", 6)),
        Feature(
            "inventoryunits",
            "continuous",
            binning_for_attribute(inventory, "inventoryunits", 6),
        ),
        Feature("maxtemp", "continuous", binning_for_attribute(weather, "maxtemp", 6)),
        Feature("mintemp", "continuous", binning_for_attribute(weather, "mintemp", 6)),
        Feature.categorical("rain"),
    )

    # One engine maintains the MI counts over all attribute pairs; the tree
    # is rebuilt from its root payload.
    query = Query("ChowLiu", RETAILER_SCHEMAS, spec=MISpec(features))
    engine = FIVMEngine(query, order=retailer_variable_order())
    engine.initialize(database)

    def mi_matrix():
        return mutual_information_matrix(engine.result().payload(()), engine.plan)

    mi = mi_matrix()
    print("\nInitial MI matrix and Chow-Liu tree:")
    print(mi.render())
    print()
    print(chow_liu_tree(mi, root="inventoryunits").render())

    stream = UpdateStream(
        database,
        retailer_row_factories(config, database),
        targets=("Inventory", "Weather"),
        batch_size=500,
        insert_ratio=0.7,
        seed=13,
    )

    for bulk in range(1, 3):
        batches = list(stream.batches(4))
        updates = sum(sum(map(abs, delta.data.values())) for _, delta in batches)
        started = time.perf_counter()
        engine.apply_batch(batches)
        seconds = time.perf_counter() - started
        print(f"\nAfter bulk {bulk} ({updates} updates, {updates / seconds:.0f} upd/s):")
        print(chow_liu_tree(mi_matrix(), root="inventoryunits").render())


if __name__ == "__main__":
    main()
