"""The sqlite oracle itself: what it answers, and that it notices a
difference of one row."""

import pytest

from repro.data import Relation
from repro.datasets import (
    toy_covar_categorical_query,
    toy_database,
    toy_mi_query,
    toy_query,
    toy_variable_order,
)
from repro.engine import FIVMEngine
from repro.rings import BoolRing, CountSpec, MinPlusRing

from tests.sql_oracle import COVAR_RTOL, SqlOracle, engine_covar_gap, oracle_report


def engine(query):
    built = FIVMEngine(query, order=toy_variable_order())
    built.initialize(toy_database())
    return built


def one_more_s_row():
    delta = Relation(("A", "C", "D"), name="S")
    delta.data[("a2", 2, 5)] = 1
    return delta


def test_counts_the_toy_join_and_mirrors_deltas():
    oracle = SqlOracle(toy_database())
    assert oracle.count() == {(): 3}
    assert oracle.count(("A",)) == {("a1",): 2, ("a2",): 1}
    assert oracle.sum("D") == {(): 6}
    oracle.apply("S", one_more_s_row())
    assert oracle.count() == {(): 4}
    oracle.apply("S", one_more_s_row().neg())
    assert oracle.count() == {(): 3}


@pytest.mark.parametrize("query", [toy_covar_categorical_query, toy_mi_query])
def test_covar_and_mi_gaps_are_zero_and_notice_one_row(query):
    fivm = engine(query())
    oracle = SqlOracle(toy_database())
    assert engine_covar_gap(fivm, oracle) == 0.0
    oracle.apply("S", one_more_s_row())
    assert engine_covar_gap(fivm, oracle) > COVAR_RTOL


@pytest.mark.parametrize("ring", [BoolRing(), MinPlusRing()], ids=["bool", "minplus"])
def test_folds_the_joined_rows_in_rings_sql_cannot_aggregate(ring):
    fivm = engine(toy_query(CountSpec(ring=ring)))
    oracle = SqlOracle(toy_database())
    for delta in (None, one_more_s_row()):
        if delta is not None:
            fivm.apply("S", delta)
            oracle.apply("S", delta)
        for name, view in oracle.views(fivm.tree).items():
            assert fivm.view(name) == view, name


def test_report():
    """F-IVM equals sqlite on every scenario of the report: count and sum
    exactly, MI counts exactly, COVAR within :data:`COVAR_RTOL`."""
    report = oracle_report()
    assert len(report["scenarios"]) == 11
    assert report["count_sum_exact"]
    assert report["mi_gap"] == 0.0
    assert report["covar_gap"] <= COVAR_RTOL
