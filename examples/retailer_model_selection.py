#!/usr/bin/env python3
"""The Model Selection tab (Figure 2a) on the synthetic Retailer database.

Ranks attributes by pairwise mutual information with the label
``inventoryunits`` and selects those above a threshold, re-ranking after
every bulk of 10K updates exactly like the demo.

Run:  python examples/retailer_model_selection.py
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
from repro.ml import mutual_information_matrix, rank_features
from repro.ml.discretize import binning_for_attribute
from repro.query import Query
from repro.rings import Feature, MISpec

THRESHOLD = 0.10


def main() -> None:
    config = RetailerConfig(locations=10, dates=25, items=60, inventory_rows=2000)
    database = generate_retailer(config)
    print(f"Retailer database: {database}")

    # The demo computes MI over all attributes; a representative subset
    # keeps this example snappy in pure Python. Continuous attributes are
    # discretized into bins derived from the data (Section 2).
    item = database.relation("Item")
    inventory = database.relation("Inventory")
    census = database.relation("Census")
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
        Feature(
            "population", "continuous", binning_for_attribute(census, "population", 8)
        ),
        Feature.categorical("rain"),
        Feature.categorical("snow"),
    )

    # One engine maintains the MI counts; the ranking is read off its root
    # payload whenever the tab refreshes.
    query = Query("ModelSelection", RETAILER_SCHEMAS, spec=MISpec(features))
    engine = FIVMEngine(query, order=retailer_variable_order())
    engine.initialize(database)

    def ranking():
        mi = mutual_information_matrix(engine.result().payload(()), engine.plan)
        return rank_features(mi, "inventoryunits")

    print("\nInitial ranking:")
    print(ranking().render(THRESHOLD))

    stream = UpdateStream(
        database,
        retailer_row_factories(config, database),
        targets=("Inventory",),
        batch_size=1000,
        insert_ratio=0.7,
        seed=7,
    )

    for bulk in range(1, 4):
        batches = list(stream.bulk(10_000))
        updates = sum(sum(map(abs, delta.data.values())) for _, delta in batches)
        started = time.perf_counter()
        engine.apply_batch(batches)
        seconds = time.perf_counter() - started
        print(f"\nAfter bulk {bulk} ({updates} updates, {updates / seconds:.0f} upd/s):")
        refreshed = ranking()
        print(refreshed.render(THRESHOLD))
        print(f"selected features: {refreshed.selected(THRESHOLD)}")


if __name__ == "__main__":
    main()
