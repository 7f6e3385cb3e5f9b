"""Bottom-up tree evaluation (shared by init, naive and first-order)."""

import pytest

from repro.data import Database, Relation
from repro.datasets import toy_count_query, toy_database, toy_variable_order
from repro.engine import evaluate_tree, evaluate_view
from repro.errors import EngineError
from repro.viewtree import build_view_tree


@pytest.fixture
def tree():
    return build_view_tree(toy_count_query(), toy_variable_order())


def relations_of(db):
    return {relation.name: relation for relation in db}


class TestEvaluateTree:
    def test_root_result(self, tree):
        result = evaluate_tree(tree, relations_of(toy_database()))
        assert result.payload(()) == 3

    def test_materialized_records_every_view(self, tree):
        materialized = {}
        evaluate_tree(tree, relations_of(toy_database()), materialized)
        assert set(materialized) == {"V_R", "V_S", "V@A"}
        assert materialized["V_R"].payload(("a1",)) == 1

    def test_missing_relation_raises(self, tree):
        with pytest.raises(EngineError):
            evaluate_tree(tree, {"R": toy_database().relation("R")})

    def test_result_views_named(self, tree):
        materialized = {}
        evaluate_tree(tree, relations_of(toy_database()), materialized)
        assert materialized["V@A"].name == "V@A"

    def test_empty_database(self, tree):
        db = Database(
            [Relation(("A", "B"), name="R"), Relation(("A", "C", "D"), name="S")]
        )
        result = evaluate_tree(tree, relations_of(db))
        assert len(result) == 0

    def test_linearity_in_each_relation(self, tree):
        """Q(R1 + R2, S) == Q(R1, S) + Q(R2, S) — what makes first-order
        delta processing correct."""
        db = toy_database()
        r = db.relation("R")
        extra = Relation.from_tuples(("A", "B"), [("a1", 9), ("a2", 2)], name="R")
        combined = evaluate_tree(
            tree, {"R": r.add(extra), "S": db.relation("S")}
        )
        separate = evaluate_tree(tree, {"R": r, "S": db.relation("S")}).add(
            evaluate_tree(tree, {"R": extra, "S": db.relation("S")})
        )
        assert combined == separate


class TestEvaluateView:
    def test_single_leaf(self, tree):
        leaf = tree.leaf_of["R"]
        result = evaluate_view(tree, leaf, relations_of(toy_database()))
        assert result.schema == ("A",)
        assert result.payload(("a2",)) == 1


class TestInstallingEvaluation:
    """evaluate_tree records every view in the form ``install`` gives it,
    while parents still evaluate from the plain relations."""

    def test_install_wraps_every_view(self, tree):
        from repro.data import IndexedRelation

        materialized = {}
        root = evaluate_tree(
            tree,
            relations_of(toy_database()),
            materialized,
            install=IndexedRelation.from_relation,
        )
        assert set(materialized) == {"V_R", "V_S", "V@A"}
        for name, view in materialized.items():
            assert isinstance(view, IndexedRelation) and view.name == name
        # The returned root is the evaluated relation, not its wrapper.
        assert not isinstance(root, IndexedRelation)
        assert root == materialized["V@A"]

    def test_installed_evaluation_matches_plain(self, tree):
        from repro.data import SlotStore

        plain, stored = {}, {}
        evaluate_tree(tree, relations_of(toy_database()), plain)
        evaluate_tree(
            tree,
            relations_of(toy_database()),
            stored,
            install=SlotStore.from_relation,
        )
        assert set(plain) == set(stored)
        for name in plain:
            assert isinstance(stored[name], SlotStore)
            assert plain[name] == stored[name]
            assert list(plain[name].data) == list(stored[name].data)

    def test_engine_initialize_needs_no_second_pass(self):
        """FIVMEngine's views come out of evaluate_tree already indexed."""
        from repro.data import IndexedRelation
        from repro.engine import FIVMEngine

        engine = FIVMEngine(toy_count_query(), order=toy_variable_order())
        engine.initialize(toy_database())
        for name in engine.probe_plan.index_specs:
            assert isinstance(engine.materialized[name], IndexedRelation)
