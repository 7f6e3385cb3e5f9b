"""M3 and DOT rendering of view trees (Figure 2d)."""

from repro.data import RelationSchema
from repro.datasets import RETAILER_SCHEMAS, retailer_variable_order, toy_variable_order
from repro.query import Query
from repro.rings import CountSpec, CovarSpec, Feature, MISpec, SumSpec
from repro.viewtree import (
    build_view_tree,
    render_tree_dot,
    render_tree_m3,
    render_view_m3,
    ring_type_name,
)

R = RelationSchema("R", ("A", "B"))
S = RelationSchema("S", ("A", "C", "D"))


def covar_query():
    return Query(
        "Q",
        (R, S),
        spec=CovarSpec(
            (Feature.continuous("B"), Feature.continuous("C"), Feature.continuous("D"))
        ),
    )


class TestRingTypeNames:
    def test_count_is_long(self):
        tree = build_view_tree(Query("Q", (R, S), spec=CountSpec()))
        assert ring_type_name(tree.plan) == "long"

    def test_sum_is_double(self):
        tree = build_view_tree(Query("Q", (R, S), spec=SumSpec("B")))
        assert ring_type_name(tree.plan) == "double"

    def test_numeric_cofactor(self):
        tree = build_view_tree(covar_query())
        assert ring_type_name(tree.plan) == "RingCofactor<double, 3>"

    def test_relational_cofactor(self):
        spec = MISpec((Feature.categorical("B"), Feature.categorical("C")))
        tree = build_view_tree(Query("Q", (R, S), spec=spec))
        assert ring_type_name(tree.plan) == "RingCofactor<RingRelation, 2>"


class TestM3Rendering:
    def test_declare_map_per_view(self):
        tree = build_view_tree(covar_query(), toy_variable_order())
        text = render_tree_m3(tree)
        assert text.count("DECLARE MAP") == 3
        assert "AggSum" in text

    def test_leaf_view_lifts(self):
        tree = build_view_tree(covar_query(), toy_variable_order())
        block = render_view_m3(tree, tree.leaf_of["S"])
        assert "S[][A, C, D]<Local>" in block
        assert "[lift<1>: RingCofactor<double, 3>](C)" in block
        assert "[lift<2>: RingCofactor<double, 3>](D)" in block

    def test_inner_view_joins_children(self):
        tree = build_view_tree(covar_query(), toy_variable_order())
        block = render_view_m3(tree, tree.root)
        assert "V_R[][A]<Local> * V_S[][A]<Local>" in block

    def test_retailer_m3_mentions_figure2d_views(self):
        query = Query("Retailer", RETAILER_SCHEMAS, spec=CountSpec())
        tree = build_view_tree(query, retailer_variable_order())
        text = render_tree_m3(tree)
        assert "DECLARE MAP V_ksn(long)[][locn: key, dateid: key]" in text
        assert "V_Inventory" in text and "V_Census" in text

    def test_retailer_single_view_lookup(self):
        query = Query("Retailer", RETAILER_SCHEMAS, spec=CountSpec())
        tree = build_view_tree(query, retailer_variable_order())
        block = render_view_m3(tree, tree.views["V@ksn"])
        assert block.count("DECLARE MAP") == 1
        assert "V_ksn" in block and block in render_tree_m3(tree)


class TestDotRendering:
    def test_digraph_with_relations_and_views(self):
        tree = build_view_tree(covar_query(), toy_variable_order())
        dot = render_tree_dot(tree)
        assert dot.startswith("digraph viewtree {")
        assert 'rel_R [label="R(A, B)", shape=ellipse];' in dot
        assert "V_R -> V_A;" in dot
        assert dot.rstrip().endswith("}")
