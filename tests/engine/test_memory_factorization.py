"""The factorization claim (Section 1).

"F-IVM can maintain model gradients over a join faster than maintaining
the join, since the latter may be much larger and have many repeating
values." — the engine's entire materialized state (views + compound
payloads) must be much smaller than the listing representation of the
join it summarizes.
"""


from repro import build_serving_scenario
from repro.datasets import (
    RetailerConfig,
    UpdateStream,
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


class TestSparseArenaMemory:
    def test_arenas_stay_near_their_live_cells_after_a_delete_heavy_stream(self):
        """Every MI view's row arena (``arena_cells``) holds at most its
        live cells plus a quarter, plus one batch: the cells one write
        brings, at most the batch's keys times the view's widest row.
        Deletes outnumber inserts four to one, so views shrink well below
        the sizes their arenas were packed at."""
        scenario = build_serving_scenario("retailer", "mi", scale=1, seed=5)
        engine = scenario.engine()
        stream = UpdateStream(
            scenario.database,
            scenario.factories,
            targets=("Inventory", "Weather"),
            batch_size=BATCH,
            insert_ratio=0.2,
            seed=5,
        )
        first = engine.memory_report()
        for _ in range(30):
            engine.apply_many([stream.next_batch()])
        report = engine.memory_report()
        shrunk = 0
        for name, view in engine.materialized.items():
            entry = report[name]
            live = entry["payload_weight"] - entry["entries"]
            widest = max((len(p.codes) for p in view.copy().data.values()), default=0)
            assert entry["arena_cells"] <= live + live / 4 + BATCH * widest, name
            shrunk += live < (first[name]["payload_weight"] - first[name]["entries"]) / 2
        assert shrunk >= 2


BATCH = 40
