"""What evaluating a query's views means, on the one evaluator there is.

``FIVMEngine.initialize`` computes every view by loading each relation
up its compiled program; the naive and first-order baselines evaluate
through it too. These tests pin the relational semantics that
evaluation has to keep — the natural join multiplies payloads, grouping
sums them, lifting scales a lifted value by the tuple's multiplicity,
and the result is linear in each relation — on small hand-made
databases, with sqlite (``tests/sql_oracle.py``) as the reference where
a property is about values rather than structure.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data import Database, IndexedRelation, Relation, RelationSchema
from repro.datasets import (
    toy_count_query,
    toy_covar_continuous_query,
    toy_database,
    toy_mi_query,
    toy_query,
    toy_variable_order,
)
from repro.engine import FIVMEngine
from repro.errors import EngineError, QueryError
from repro.query import Query, VONode, VariableOrder
from repro.rings import CountSpec, CovarSpec, Feature, SumSpec, Z

from tests.sql_oracle import SqlOracle

R = RelationSchema("R", ("A", "B"))
S = RelationSchema("S", ("A", "C"))
T = RelationSchema("T", ("C", "D"))


def initialized(query, relations, order=None):
    engine = FIVMEngine(query, order=order)
    engine.initialize(Database(list(relations)))
    return engine


def root(query, relations, order=None):
    return initialized(query, relations, order).result()


def z_relations(name, schema, domain=4, max_rows=8):
    """Random Z-relations named ``name``, with signed multiplicities."""

    def build(entries):
        relation = Relation(schema, Z, name=name)
        for key, multiplicity in entries:
            total = relation.data.get(key, 0) + multiplicity
            if total:
                relation.data[key] = total
            else:
                relation.data.pop(key, None)
        return relation

    key = st.tuples(*[st.integers(min_value=0, max_value=domain - 1)] * len(schema))
    return st.lists(st.tuples(key, st.integers(min_value=-2, max_value=3)), max_size=max_rows).map(build)


def union(r1, r2):
    combined = r1.add(r2)
    combined.name = r1.name
    return combined


# ----------------------------------------------------------------------
# The view tree over the Figure 1 database
# ----------------------------------------------------------------------


@pytest.fixture
def toy_engine():
    return initialized(toy_count_query(), toy_database(), toy_variable_order())


class TestInitializeEvaluatesTheTree:
    def test_root_result(self, toy_engine):
        assert toy_engine.result().payload(()) == 3

    def test_materialized_records_every_view(self, toy_engine):
        assert set(toy_engine.materialized) == {"V_R", "V_S", "V@A"}
        assert toy_engine.materialized["V_R"].payload(("a1",)) == 1

    def test_single_leaf(self, toy_engine):
        leaf = toy_engine.view("V_R")
        assert leaf.schema == ("A",)
        assert leaf.payload(("a2",)) == 1

    def test_result_views_named(self, toy_engine):
        for name, view in toy_engine.materialized.items():
            assert view.name == name

    def test_probed_views_come_out_indexed(self, toy_engine):
        """No second pass builds the indexes the delta programs probe."""
        for name in toy_engine.probe_plan.index_specs:
            assert isinstance(toy_engine.materialized[name], IndexedRelation)

    def test_missing_relation_raises(self):
        with pytest.raises(EngineError):
            initialized(toy_count_query(), [toy_database().relation("R")])

    def test_empty_database(self):
        empty = [Relation(("A", "B"), name="R"), Relation(("A", "C", "D"), name="S")]
        assert len(root(toy_count_query(), empty, toy_variable_order())) == 0

    def test_linearity_in_each_relation(self):
        """Q(R1 + R2, S) == Q(R1, S) + Q(R2, S) — what makes first-order
        delta processing correct."""
        db = toy_database()
        r, s = db.relation("R"), db.relation("S")
        extra = Relation.from_tuples(("A", "B"), [("a1", 9), ("a2", 2)], name="R")
        query, order = toy_count_query(), toy_variable_order()
        combined = root(query, [union(r, extra), s], order)
        separate = root(query, [r, s], order).add(root(query, [extra, s], order))
        assert combined == separate


@pytest.mark.parametrize(
    "query",
    [toy_count_query, lambda: toy_query(SumSpec("D")), toy_covar_continuous_query, toy_mi_query],
    ids=["count", "sum", "covar", "mi"],
)
def test_every_view_equals_sqlite(query):
    engine = initialized(query(), toy_database(), toy_variable_order())
    expected = SqlOracle(toy_database()).views(engine.tree)
    exact = query is toy_count_query
    for name, want in expected.items():
        got = engine.view(name).copy()
        assert (got == want) if exact else got.close_to(want, 1e-9), name


# ----------------------------------------------------------------------
# Join: payloads multiply
# ----------------------------------------------------------------------


class TestJoin:
    def test_natural_join_multiplies_payloads(self):
        r = Relation(("A", "B"), Z, {("a1", "b1"): 2, ("a2", "b2"): 1}, name="R")
        s = Relation(("A", "C"), Z, {("a1", "c1"): 3, ("a3", "c3"): 1}, name="S")
        joined = root(Query("Q", (R, S), spec=CountSpec(), free=("A", "B", "C")), [r, s])
        assert joined.schema == ("A", "B", "C")
        assert joined.data == {("a1", "b1", "c1"): 6}

    def test_join_without_shared_attrs_is_product(self):
        query = Query(
            "Q",
            (RelationSchema("R", ("A",)), RelationSchema("S", ("B",))),
            spec=CountSpec(),
            free=("A", "B"),
        )
        r = Relation(("A",), Z, {("a1",): 2}, name="R")
        s = Relation(("B",), Z, {("b1",): 3, ("b2",): 1}, name="S")
        assert root(query, [r, s]).data == {("a1", "b1"): 6, ("a1", "b2"): 2}

    def test_join_both_size_orders_agree(self):
        """The load goes smallest relation first: either side being the
        smaller one gives sqlite's join."""
        query = Query("Q", (R, S), spec=CountSpec(), free=("A", "B", "C"))
        small_r = Relation(("A", "B"), Z, {("a1", "b1"): 2}, name="R")
        big_s = Relation(
            ("A", "C"), Z, {("a1", "c1"): 1, ("a1", "c2"): 4, ("a2", "c1"): 5}, name="S"
        )
        big_r = Relation(
            ("A", "B"), Z, {("a1", "b1"): 1, ("a1", "b2"): 4, ("a2", "b1"): 5}, name="R"
        )
        small_s = Relation(("A", "C"), Z, {("a1", "c1"): 2}, name="S")
        for r, s in ((small_r, big_s), (big_r, small_s)):
            want = SqlOracle([r, s]).count(query.free)
            assert root(query, [r, s]).data == want
        assert root(query, [small_r, big_s]).data.keys() == {
            ("a1", "b1", "c1"),
            ("a1", "b1", "c2"),
        }

    def test_join_empty(self):
        r = Relation(("A", "B"), Z, {("a1", "b1"): 1}, name="R")
        s = Relation(("A", "C"), name="S")
        assert root(Query("Q", (R, S), spec=CountSpec(), free=("A",)), [r, s]).data == {}

    def test_join_negative_payload_cancellation(self):
        r = Relation(("A", "B"), Z, {("a1", "b1"): 1, ("a1", "b2"): -1}, name="R")
        s = Relation(("A", "C"), Z, {("a1", "c1"): 1}, name="S")
        assert root(Query("Q", (R, S), spec=CountSpec(), free=("A",)), [r, s]).data == {}


# ----------------------------------------------------------------------
# Grouping: payloads sum
# ----------------------------------------------------------------------


@pytest.fixture
def r():
    return Relation(("A", "B"), Z, {("a1", 1): 2, ("a2", 2): 1}, name="R")


class TestGroupBy:
    def test_group_by_sums_payloads(self, r):
        grouped = root(Query("Q", (R,), spec=CountSpec(), free=("A",)), [r])
        assert grouped.data == {("a1",): 2, ("a2",): 1}

    def test_full_aggregation(self, r):
        assert root(Query("Q", (R,), spec=CountSpec()), [r]).data == {(): 3}

    def test_lift_applied_to_marginalized_attr(self):
        rel = Relation(("A", "B"), Z, {("a1", 2): 1, ("a1", 3): 1}, name="R")
        summed = root(Query("Q", (R,), spec=SumSpec("B"), free=("A",)), [rel])
        assert summed.data == {("a1",): 5.0}

    def test_unknown_free_variable(self):
        with pytest.raises(QueryError):
            Query("Q", (R,), spec=CountSpec(), free=("Z",))


# ----------------------------------------------------------------------
# Lifting: a lifted value scales by the tuple's multiplicity
# ----------------------------------------------------------------------


def covar_b(rows):
    query = Query("Q", (R,), spec=CovarSpec((Feature.continuous("B"),)), free=("A",))
    return root(query, [Relation(("A", "B"), Z, rows, name="R")])


class TestLift:
    def test_lift_to_cofactor_ring(self):
        lifted = covar_b({("a1", 2): 1, ("a1", 3): 1, ("a2", 5): 1})
        a1 = lifted.payload(("a1",))
        assert a1.c == 2.0
        assert a1.s[0] == 5.0
        assert a1.q[0, 0] == 13.0

    def test_lift_scales_by_multiplicity(self):
        a1 = covar_b({("a1", 2): 3}).payload(("a1",))
        assert (a1.c, a1.s[0], a1.q[0, 0]) == (3.0, 6.0, 12.0)

    def test_lift_negative_multiplicity(self):
        a1 = covar_b({("a1", 2): -2}).payload(("a1",))
        assert (a1.c, a1.s[0], a1.q[0, 0]) == (-2.0, -4.0, -8.0)

    def test_lift_cancellation_prunes(self):
        rel = Relation(("A", "B"), Z, {("a1", 1): 1, ("a1", -1): 1}, name="R")
        summed = root(Query("Q", (R,), spec=SumSpec("B"), free=("A",)), [rel])
        assert summed.data == {}


# ----------------------------------------------------------------------
# Algebraic properties, on random signed relations
# ----------------------------------------------------------------------


@given(z_relations("R", ("A", "B")), z_relations("S", ("A", "C")))
def test_join_total_equals_sqlite(r, s):
    total = root(Query("Q", (R, S), spec=CountSpec()), [r, s]).data
    assert total == SqlOracle([r, s]).count()


@given(
    z_relations("R", ("A", "B")),
    z_relations("S", ("A", "C")),
    z_relations("T", ("C", "D")),
)
def test_join_total_independent_of_the_variable_order(r, s, t):
    """A three-way join gives the same total whichever join variable is
    the root — associativity of the join on totals."""
    query = Query("Q", (R, S, T), spec=CountSpec())
    a_first = VariableOrder(
        [VONode("A", relations=("R",), children=(VONode("C", relations=("S", "T")),))]
    )
    c_first = VariableOrder(
        [VONode("C", relations=("T",), children=(VONode("A", relations=("R", "S")),))]
    )
    left = root(query, [r, s, t], a_first).data
    right = root(query, [r, s, t], c_first).data
    assert left == right == SqlOracle([r, s, t]).count()


@given(z_relations("R", ("A", "B")), z_relations("R", ("A", "B")))
def test_join_distributes_over_union(r1, r2):
    """Q(r1 + r2, s) == Q(r1, s) + Q(r2, s), grouped by every attribute."""
    s = Relation(("A", "C"), Z, {(0, 1): 2, (1, 0): -1, (2, 2): 3}, name="S")
    query = Query("Q", (R, S), spec=CountSpec(), free=("A", "B", "C"))
    combined = root(query, [union(r1, r2), s])
    separate = root(query, [r1, s]).add(root(query, [r2, s]))
    assert combined == separate


@given(z_relations("R", ("A", "B")))
def test_group_by_then_total_matches_direct_total(r):
    grouped = root(Query("Q", (R,), spec=CountSpec(), free=("A",)), [r])
    total = root(Query("Q", (R,), spec=CountSpec()), [r])
    assert sum(grouped.data.values()) == total.data.get((), 0)


@given(z_relations("R", ("A", "B")), z_relations("R", ("A", "B")))
def test_lift_distributes_over_union(r1, r2):
    """lift(r1 + r2) == lift(r1) + lift(r2) — the leaf-level linearity
    that makes delta lifting correct for mixed insert/delete batches."""
    query = Query("Q", (R,), spec=CovarSpec((Feature.continuous("B"),)), free=("A",))
    combined = root(query, [union(r1, r2)])
    separate = root(query, [r1]).add(root(query, [r2]))
    assert combined.close_to(separate, 1e-9)
