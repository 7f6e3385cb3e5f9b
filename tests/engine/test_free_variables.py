"""Group-by (free-variable) queries through hand-crafted variable orders.

Free variables are never marginalized; views above them carry them as
extra keys. These tests exercise the carried-key machinery beyond the
planner's free-at-the-top orders: free variables *below* bound variables
and free variables spread across branches.
"""


from repro.data import Database, Relation, RelationSchema, delta_of, inserts
from repro.engine import FIVMEngine, NaiveEngine
from repro.query import Query, VONode, VariableOrder
from repro.rings import CountSpec, CovarSpec, Feature
from repro.viewtree import build_view_tree

from tests.sql_oracle import SqlOracle

R = RelationSchema("R", ("A", "B"))
S = RelationSchema("S", ("A", "C"))


def db():
    return Database(
        [
            Relation.from_tuples(
                ("A", "B"), [(0, 10), (0, 11), (1, 10), (1, 12)], name="R"
            ),
            Relation.from_tuples(
                ("A", "C"), [(0, 7), (0, 8), (1, 7), (2, 9)], name="S"
            ),
        ]
    )


def order_free_below():
    """A at the root (bound), B below it (free): V@B's key is (A, B) and
    V@A must carry B upward while marginalizing A."""
    return VariableOrder(
        [
            VONode(
                "A",
                children=(
                    VONode("B", relations=("R",)),
                    VONode("C", relations=("S",)),
                ),
            )
        ]
    )


class TestFreeBelowBound:
    def test_tree_keys_carry_free_vars(self):
        query = Query("Q", (R, S), spec=CountSpec(), free=("B",))
        tree = build_view_tree(query, order_free_below())
        assert tree.views["V@B"].key == ("A", "B")
        assert tree.views["V@B"].is_free
        assert tree.views["V@C"].key == ("A",)
        assert tree.views["V@A"].key == ("B",)

    def test_initial_result_matches_direct_groupby(self):
        query = Query("Q", (R, S), spec=CountSpec(), free=("B",))
        engine = FIVMEngine(query, order=order_free_below())
        engine.initialize(db())
        assert engine.result().data == SqlOracle(db()).count(("B",))

    def test_maintenance_under_mixed_updates(self):
        query = Query("Q", (R, S), spec=CountSpec(), free=("B",))
        fivm = FIVMEngine(query, order=order_free_below())
        naive = NaiveEngine(query, order=order_free_below())
        database = db()
        fivm.initialize(database)
        naive.initialize(database)
        updates = [
            ("R", inserts(("A", "B"), [(2, 13)])),          # new B group
            ("S", inserts(("A", "C"), [(2, 7)])),            # activates it
            ("R", delta_of(("A", "B"), deleted=[(0, 10)])),  # shrink a group
        ]
        for name, delta in updates:
            fivm.apply(name, delta)
            naive.apply(name, delta)
            assert fivm.result() == naive.result(), name

    def test_group_disappears_on_delete(self):
        query = Query("Q", (R, S), spec=CountSpec(), free=("B",))
        engine = FIVMEngine(query, order=order_free_below())
        engine.initialize(db())
        assert engine.result().payload((12,)) == 1  # (1,12) x (1,7)
        engine.apply("R", delta_of(("A", "B"), deleted=[(1, 12)]))
        assert (12,) not in engine.result().data


class TestFreeAcrossBranches:
    def test_two_free_vars_in_different_branches(self):
        query = Query("Q", (R, S), spec=CountSpec(), free=("B", "C"))
        order = VariableOrder(
            [
                VONode(
                    "A",
                    children=(
                        VONode("B", relations=("R",)),
                        VONode("C", relations=("S",)),
                    ),
                )
            ]
        )
        fivm = FIVMEngine(query, order=order)
        fivm.initialize(db())
        assert fivm.result().data == SqlOracle(db()).count(("B", "C"))
        # maintenance keeps per-(B,C) counts in lockstep with recompute
        naive = NaiveEngine(query, order=order)
        naive.initialize(db())
        delta = inserts(("A", "C"), [(0, 7), (1, 9)])
        fivm.apply("S", delta)
        naive.apply("S", delta)
        assert fivm.result() == naive.result()


class TestFreeWithCovarPayload:
    def test_covar_grouped_by_free_var(self):
        """COVAR per B-group: compound payloads under group-by keys."""
        spec = CovarSpec((Feature.continuous("C"),))
        query = Query("Q", (R, S), spec=spec, free=("B",))
        engine = FIVMEngine(query, order=order_free_below())
        engine.initialize(db())
        payload = engine.result().payload((10,))
        # B=10 joins A∈{0,1}: C values 7, 8 (A=0) and 7 (A=1)
        assert payload.c == 3.0
        assert payload.s[0] == 22.0
        assert payload.q[0, 0] == 7.0**2 + 8.0**2 + 7.0**2
