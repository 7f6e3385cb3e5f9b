"""Shared benchmark fixtures: scaled-down Retailer/Favorita workloads.

Sizes are chosen so the whole suite finishes in minutes under CPython
while preserving the relative behaviour the paper's experiments measure
(see README, *Datasets*).
"""

from __future__ import annotations

import pytest

from repro.datasets import (
    FavoritaConfig,
    RetailerConfig,
    UpdateStream,
    favorita_row_factories,
    favorita_variable_order,
    generate_favorita,
    generate_retailer,
    retailer_row_factories,
    retailer_variable_order,
)

RETAILER_CONFIG = RetailerConfig(
    locations=8, dates=15, items=60, inventory_rows=1200, seed=101
)
FAVORITA_CONFIG = FavoritaConfig(
    stores=8, dates=20, items=50, sales_rows=1000, seed=102
)


@pytest.fixture(scope="session")
def retailer_db():
    return generate_retailer(RETAILER_CONFIG)


@pytest.fixture(scope="session")
def retailer_order():
    return retailer_variable_order()


@pytest.fixture(scope="session")
def favorita_db():
    return generate_favorita(FAVORITA_CONFIG)


@pytest.fixture(scope="session")
def favorita_order():
    return favorita_variable_order()


def retailer_batches(database, count, batch_size=100, insert_ratio=0.7, seed=5):
    """A reproducible list of update batches against Inventory."""
    stream = UpdateStream(
        database,
        retailer_row_factories(RETAILER_CONFIG, database),
        targets=("Inventory",),
        batch_size=batch_size,
        insert_ratio=insert_ratio,
        seed=seed,
    )
    return list(stream.batches(count))


def favorita_batches(database, count, batch_size=100, insert_ratio=0.7, seed=6):
    stream = UpdateStream(
        database,
        favorita_row_factories(FAVORITA_CONFIG, database),
        targets=("Sales",),
        batch_size=batch_size,
        insert_ratio=insert_ratio,
        seed=seed,
    )
    return list(stream.batches(count))


def apply_all(engine, batches):
    """The benchmark body: push every batch through the engine and read
    the result after each (re-evaluation derives it on read)."""
    for name, delta in batches:
        engine.apply(name, delta)
        engine.result()


def total_updates(batches):
    return sum(
        sum(abs(m) for m in delta.data.values()) for _name, delta in batches
    )
