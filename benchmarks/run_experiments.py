#!/usr/bin/env python3
"""Full experiment harness: prints every experiment's table/series.

Each experiment prints the paper claim it reproduces and a measured table.
Absolute numbers are CPython on the synthetic datasets; the *shapes*
(who wins, how gaps scale) are the reproduction targets — see README,
*Datasets*.

Run:  python benchmarks/run_experiments.py [--quick]
"""

from __future__ import annotations

import argparse
import time

from repro.datasets import (
    RETAILER_SCHEMAS,
    FavoritaConfig,
    RetailerConfig,
    UpdateStream,
    continuous_covar_features,
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
)
from repro.engine import FIVMEngine, FirstOrderEngine, NaiveEngine, PerAggregateEngine
from repro.ml import (
    RidgeRegression,
    chow_liu_tree,
    covar_from_payload,
    mutual_information_matrix,
    rank_features,
)
from repro.ml.discretize import binning_for_attribute
from repro.query import Query, VariableOrder
from repro.rings import CountSpec, CovarSpec, Feature, MISpec

ENGINES = {
    "fivm": FIVMEngine,
    "first-order": FirstOrderEngine,
    "naive": NaiveEngine,
}


def banner(title: str, claim: str) -> None:
    print()
    print("=" * 76)
    print(title)
    print(f"paper: {claim}")
    print("=" * 76)


def timed_apply(engine, batches) -> float:
    """Seconds to apply every batch and read the result after each
    (re-evaluation derives it on read)."""
    started = time.perf_counter()
    for name, delta in batches:
        engine.apply(name, delta)
        engine.result()
    return time.perf_counter() - started


def updates_in(batches) -> int:
    return sum(sum(abs(m) for m in delta.data.values()) for _n, delta in batches)


def make_batches(db, config, targets, count, batch_size, seed=5, insert_ratio=0.7):
    stream = UpdateStream(
        db,
        retailer_row_factories(config, db),
        targets=targets,
        batch_size=batch_size,
        insert_ratio=insert_ratio,
        seed=seed,
    )
    return list(stream.batches(count))


# ----------------------------------------------------------------------
# Experiment 1: engine comparison, scaling the fact table
# ----------------------------------------------------------------------


def exp_throughput_scaling(quick: bool) -> None:
    banner(
        "E1  Update throughput vs database scale (count ring, 5-relation join)",
        "several orders of magnitude performance speedup over DBToaster; "
        "gap grows with database size (F-IVM cost tracks the delta, "
        "re-evaluation tracks the database)",
    )
    sizes = [500, 2000] if quick else [500, 2000, 8000]
    header = f"{'inventory_rows':>14} {'target':>10}" + "".join(
        f"{name:>14}" for name in ENGINES
    )
    print(header + "   (updates/second)")
    for rows in sizes:
        config = RetailerConfig(
            locations=8, dates=15, items=60, inventory_rows=rows, seed=101
        )
        db = generate_retailer(config)
        order = retailer_variable_order()
        for target in ("Inventory", "Weather"):
            batches = make_batches(db, config, (target,), 5, 100)
            n_updates = updates_in(batches)
            cells = []
            for engine_cls in ENGINES.values():
                engine = engine_cls(retailer_query(CountSpec()), order=order)
                engine.initialize(db)
                seconds = timed_apply(engine, batches)
                cells.append(f"{n_updates / seconds:>14.0f}")
            print(f"{rows:>14} {target:>10}" + "".join(cells))


# ----------------------------------------------------------------------
# Experiment 2: batch size sweep
# ----------------------------------------------------------------------


def exp_batch_size(quick: bool) -> None:
    banner(
        "E2  Throughput vs batch size (F-IVM, numeric COVAR m=3)",
        "updates are processed in batches (demo: bulks of 10K); throughput "
        "rises with batch size and flattens",
    )
    config = RetailerConfig(locations=8, dates=15, items=60, inventory_rows=1200, seed=101)
    db = generate_retailer(config)
    order = retailer_variable_order()
    spec = CovarSpec(
        (
            Feature.continuous("prize"),
            Feature.continuous("inventoryunits"),
            Feature.continuous("maxtemp"),
        ),
    )
    total = 600 if quick else 2000
    print(f"{'batch_size':>10} {'updates':>8} {'seconds':>9} {'upd/s':>10}")
    for batch_size in (1, 10, 100, total):
        batches = make_batches(
            db, config, ("Inventory",), total // batch_size, batch_size, seed=9
        )
        engine = FIVMEngine(retailer_query(spec), order=order)
        engine.initialize(db)
        seconds = timed_apply(engine, batches)
        n_updates = updates_in(batches)
        print(
            f"{batch_size:>10} {n_updates:>8} {seconds:>9.3f} "
            f"{n_updates / seconds:>10.0f}"
        )


# ----------------------------------------------------------------------
# Experiment 3: compound ring vs per-aggregate maintenance
# ----------------------------------------------------------------------


def exp_aggregate_batch(quick: bool) -> None:
    banner(
        "E3  Batch of aggregates: compound ring vs per-aggregate views",
        "F-IVM maintains batches of aggregates as one compound payload, "
        "sharing computation across the batch; per-aggregate maintenance "
        "scales with the number of aggregates (~m^2)",
    )
    config = RetailerConfig(locations=5, dates=8, items=30, inventory_rows=300, seed=103)
    db = generate_retailer(config)
    order = retailer_variable_order()
    attrs = (
        "prize",
        "inventoryunits",
        "maxtemp",
        "avghhi",
        "population",
        "meanwind",
        "medianage",
        "tot_area_sq_ft",
    )
    ms = (2, 4) if quick else (2, 4, 8)
    print(f"{'m':>3} {'aggregates':>10} {'compound (s)':>13} {'per-agg (s)':>12} {'ratio':>7}")
    for m in ms:
        features = tuple(Feature.continuous(a) for a in attrs[:m])
        batches = make_batches(db, config, ("Inventory",), 3, 50, seed=11)
        compound = FIVMEngine(
            retailer_query(CovarSpec(features)), order=order
        )
        compound.initialize(db)
        compound_s = timed_apply(compound, batches)
        peragg = PerAggregateEngine(retailer_query(CountSpec()), features, order=order)
        peragg.initialize(db)
        peragg_s = timed_apply(peragg, batches)
        count = 1 + m + m * (m + 1) // 2
        print(
            f"{m:>3} {count:>10} {compound_s:>13.3f} {peragg_s:>12.3f} "
            f"{peragg_s / compound_s:>7.1f}x"
        )


# ----------------------------------------------------------------------
# Experiment 4: full 43-attribute COVAR ("thousands of aggregates")
# ----------------------------------------------------------------------


def exp_full_covar(quick: bool) -> None:
    banner(
        "E4  Full 43-attribute COVAR over the 5-relation Retailer join",
        "average throughput of 10K updates per second for batches of up to "
        "thousands of aggregates over joins of five relations on one thread",
    )
    config = RetailerConfig(
        locations=8, dates=15, items=60, inventory_rows=1200, seed=101
    )
    db = generate_retailer(config)
    features = continuous_covar_features()
    m = len(features)
    aggregates = 1 + m + m * (m + 1) // 2
    engine = FIVMEngine(
        retailer_query(CovarSpec(features)),
        order=retailer_variable_order(),
    )
    started = time.perf_counter()
    engine.initialize(db)
    init_s = time.perf_counter() - started
    batches = make_batches(db, config, ("Inventory",), 2 if quick else 5, 1000, seed=12)
    seconds = timed_apply(engine, batches)
    n_updates = updates_in(batches)
    print(f"attributes: {m}   compound aggregates: {aggregates}")
    print(f"initialization: {init_s:.2f} s")
    print(
        f"maintenance: {n_updates} updates in {seconds:.2f} s "
        f"-> {n_updates / seconds:.0f} updates/second"
    )


# ----------------------------------------------------------------------
# Experiment 5: the application tabs (Figure 2)
# ----------------------------------------------------------------------


def exp_apps(quick: bool) -> None:
    banner(
        "E5  Application refresh latency per bulk (Figure 2 tabs)",
        "F-IVM processes one bulk of 10K updates before pausing for one "
        "second; each tab refreshes its output per bulk",
    )
    config = RetailerConfig(locations=8, dates=15, items=60, inventory_rows=1200, seed=101)
    db = generate_retailer(config)
    order = retailer_variable_order()
    item = db.relation("Item")
    inventory = db.relation("Inventory")
    mi_feats = (
        Feature.categorical("subcategory"),
        Feature.categorical("category"),
        Feature.categorical("categoryCluster"),
        Feature("prize", "continuous", binning_for_attribute(item, "prize", 6)),
        Feature(
            "inventoryunits",
            "continuous",
            binning_for_attribute(inventory, "inventoryunits", 6),
        ),
        Feature.categorical("rain"),
    )
    reg_feats, label = regression_features()
    bulk_updates = 2000 if quick else 10_000

    mi_spec, covar_spec = MISpec(mi_feats), CovarSpec(reg_feats)
    solver = RidgeRegression(
        [f.name for f in reg_feats if f.name != label], label, regularization=1e-2
    )

    def mi_matrix(engine):
        return mutual_information_matrix(engine.result().payload(()), engine.plan)

    def fit(engine):
        payload = engine.result().payload(())
        return solver.fit(covar_from_payload(payload, engine.plan))

    # Each tab is one engine maintaining its payload and one read of it.
    tabs = {
        "model-selection": (mi_spec, lambda e: rank_features(mi_matrix(e), "inventoryunits")),
        "regression": (covar_spec, fit),
        "chow-liu": (mi_spec, lambda e: chow_liu_tree(mi_matrix(e))),
    }
    print(
        f"{'tab':>16} {'bulk upd':>9} {'maintain (s)':>13} {'refresh (s)':>12} {'upd/s':>9}"
    )
    for name, (spec, refresh) in tabs.items():
        engine = FIVMEngine(Query("Retailer", RETAILER_SCHEMAS, spec=spec), order=order)
        engine.initialize(db)
        stream = UpdateStream(
            db,
            retailer_row_factories(config, db),
            targets=("Inventory",),
            batch_size=500,
            insert_ratio=0.7,
            seed=31,
        )
        batches = list(stream.bulk(bulk_updates))
        updates = updates_in(batches)
        started = time.perf_counter()
        engine.apply_batch(batches)
        maintain_s = time.perf_counter() - started
        started = time.perf_counter()
        refresh(engine)
        refresh_s = time.perf_counter() - started
        print(
            f"{name:>16} {updates:>9} {maintain_s:>13.2f} "
            f"{refresh_s:>12.3f} {updates / maintain_s:>9.0f}"
        )


# ----------------------------------------------------------------------
# Experiment 6: Favorita
# ----------------------------------------------------------------------


def exp_favorita(quick: bool) -> None:
    banner(
        "E6  Favorita (6-relation join): engine comparison",
        "the demo maintains the same applications over the Favorita database",
    )
    config = FavoritaConfig(stores=8, dates=20, items=50, sales_rows=1000, seed=102)
    db = generate_favorita(config)
    order = favorita_variable_order()
    stream = UpdateStream(
        db,
        favorita_row_factories(config, db),
        targets=("Sales",),
        batch_size=100,
        insert_ratio=0.7,
        seed=6,
    )
    batches = list(stream.batches(5))
    n_updates = updates_in(batches)
    features, _label = favorita_regression_features()
    specs = {"count": CountSpec(), "covar": CovarSpec(features)}
    print(f"{'payload':>8}" + "".join(f"{n:>14}" for n in ENGINES) + "   (updates/second)")
    for spec_name, spec in specs.items():
        cells = []
        for engine_cls in ENGINES.values():
            engine = engine_cls(favorita_query(spec), order=order)
            engine.initialize(db)
            seconds = timed_apply(engine, batches)
            cells.append(f"{n_updates / seconds:>14.0f}")
        print(f"{spec_name:>8}" + "".join(cells))


# ----------------------------------------------------------------------
# Experiment 7: ablations
# ----------------------------------------------------------------------


def exp_ablation(quick: bool) -> None:
    banner(
        "E7  Ablations: variable-order quality and workload mix (F-IVM)",
        "the view tree follows a variable order; good orders keep views "
        "narrow. Deletes are negative multiplicities — same code path",
    )
    config = RetailerConfig(locations=8, dates=15, items=60, inventory_rows=1200, seed=101)
    db = generate_retailer(config)
    spec = CovarSpec(
        (
            Feature.continuous("prize"),
            Feature.continuous("inventoryunits"),
            Feature.continuous("population"),
        ),
    )
    orders = {
        "figure2d-tree": retailer_variable_order(),
        "reversed-chain": VariableOrder.chain(
            ("zip", "ksn", "dateid", "locn"),
            {
                "Inventory": "locn",
                "Weather": "locn",
                "Location": "locn",
                "Item": "ksn",
                "Census": "zip",
            },
        ),
    }
    print(f"{'variable order':>16} {'init (s)':>9} {'maintain upd/s':>15} {'view tuples':>12}")
    batches = make_batches(db, config, ("Inventory",), 4, 100, seed=21)
    n_updates = updates_in(batches)
    for name, order in orders.items():
        engine = FIVMEngine(retailer_query(spec), order=order)
        started = time.perf_counter()
        engine.initialize(db)
        init_s = time.perf_counter() - started
        seconds = timed_apply(engine, batches)
        print(
            f"{name:>16} {init_s:>9.2f} {n_updates / seconds:>15.0f} "
            f"{engine.total_view_tuples():>12}"
        )

    print(f"\n{'insert_ratio':>13} {'upd/s':>10}")
    for ratio in (1.0, 0.5):
        batches = make_batches(
            db, config, ("Inventory",), 4, 100, seed=22, insert_ratio=ratio
        )
        engine = FIVMEngine(retailer_query(spec), order=orders["figure2d-tree"])
        engine.initialize(db)
        seconds = timed_apply(engine, batches)
        print(f"{ratio:>13} {updates_in(batches) / seconds:>10.0f}")


EXPERIMENTS = {
    "E1": exp_throughput_scaling,
    "E2": exp_batch_size,
    "E3": exp_aggregate_batch,
    "E4": exp_full_covar,
    "E5": exp_apps,
    "E6": exp_favorita,
    "E7": exp_ablation,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller sweeps")
    parser.add_argument(
        "--only", nargs="*", choices=sorted(EXPERIMENTS), help="run a subset"
    )
    args = parser.parse_args()
    selected = args.only or sorted(EXPERIMENTS)
    started = time.perf_counter()
    for key in selected:
        EXPERIMENTS[key](args.quick)
    print(f"\ntotal: {time.perf_counter() - started:.1f} s")


if __name__ == "__main__":
    main()
