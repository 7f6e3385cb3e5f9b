"""The factorization claim (Section 1).

"F-IVM can maintain model gradients over a join faster than maintaining
the join, since the latter may be much larger and have many repeating
values." — the engine's entire materialized state (views + compound
payloads) must be much smaller than the listing representation of the
join it summarizes.
"""


from repro.datasets import (
    RetailerConfig,
    generate_retailer,
    retailer_query,
    retailer_variable_order,
)
from repro.engine import FIVMEngine
from repro.rings import CovarSpec, Feature

from tests.sql_oracle import SqlOracle

CONFIG = RetailerConfig(locations=6, dates=10, items=40, inventory_rows=800, seed=31)


def join_listing_cells(db):
    """Rows x columns of the materialized 5-way join (bag semantics),
    counted in sqlite."""
    rows = SqlOracle(db).count()[()]
    columns = {attr for relation in db for attr in relation.schema}
    return rows, rows * len(columns)


class TestFactorizedStateSize:
    def test_view_state_smaller_than_join_listing(self):
        db = generate_retailer(CONFIG)
        spec = CovarSpec(
            (
                Feature.continuous("prize"),
                Feature.continuous("inventoryunits"),
                Feature.continuous("population"),
            ),
        )
        engine = FIVMEngine(retailer_query(spec), order=retailer_variable_order())
        engine.initialize(db)
        join_rows, join_cells = join_listing_cells(db)
        report = engine.memory_report()
        total_weight = sum(view["payload_weight"] for view in report.values())
        total_entries = sum(view["entries"] for view in report.values())
        # 43-attribute join listing vs factorized views with compound payloads
        assert total_entries < join_rows * 2
        assert total_weight < join_cells / 2
        # and the gradient state at the root is a single compound payload
        assert report[engine.tree.root.name]["entries"] == 1

    def test_root_gradient_state_constant_under_growth(self):
        """The gradient (COVAR) state does not grow with the data — only
        the keyed views do."""
        db = generate_retailer(CONFIG)
        spec = CovarSpec(
            (Feature.continuous("prize"), Feature.continuous("inventoryunits")),
        )
        engine = FIVMEngine(retailer_query(spec), order=retailer_variable_order())
        engine.initialize(db)
        root = engine.tree.root.name
        before = engine.memory_report()[root]
        from repro.datasets import UpdateStream, retailer_row_factories

        stream = UpdateStream(
            db,
            retailer_row_factories(CONFIG, db),
            targets=("Inventory",),
            batch_size=200,
            insert_ratio=1.0,
            seed=4,
        )
        for name, delta in stream.batches(3):
            engine.apply(name, delta)
        after = engine.memory_report()[root]
        assert after["entries"] == before["entries"] == 1
        assert after["payload_weight"] == before["payload_weight"]
