"""The per-aggregate baseline: many scalar views == one compound payload."""

import numpy as np
import pytest

from repro.data import RelationSchema, inserts
from repro.datasets import toy_database, toy_variable_order
from repro.engine import FIVMEngine, PerAggregateEngine
from repro.errors import EngineError
from repro.query import Query
from repro.rings import CountSpec, CovarSpec, Feature

R = RelationSchema("R", ("A", "B"))
S = RelationSchema("S", ("A", "C", "D"))
FEATURES = (
    Feature.continuous("B"),
    Feature.continuous("C"),
    Feature.continuous("D"),
)


@pytest.fixture
def peragg():
    engine = PerAggregateEngine(
        Query("Q", (R, S), spec=CountSpec()), FEATURES, order=toy_variable_order()
    )
    engine.initialize(toy_database())
    return engine


class TestAssembly:
    def test_aggregate_inventory(self, peragg):
        assert "count" in peragg.aggregates
        assert "sum(B)" in peragg.aggregates
        assert "sum(B*D)" in peragg.aggregates
        assert "sum(C*C)" in peragg.aggregates
        # 1 + 3 + 6 aggregates for m=3
        assert len(peragg.aggregates) == 10

    def test_matches_figure1_covar(self, peragg):
        c, s, q = peragg.covar_matrix()
        assert c == 3
        assert s.tolist() == [4.0, 5.0, 6.0]
        assert q.tolist() == [
            [6.0, 7.0, 8.0],
            [7.0, 9.0, 11.0],
            [8.0, 11.0, 14.0],
        ]

    def test_matches_compound_engine_after_updates(self, peragg):
        compound = FIVMEngine(
            Query("Q", (R, S), spec=CovarSpec(FEATURES)),
            order=toy_variable_order(),
        )
        compound.initialize(toy_database())
        delta = inserts(("A", "B"), [("a1", 9), ("a2", 4)])
        peragg.apply("R", delta)
        compound.apply("R", delta)
        c, s, q = peragg.covar_matrix()
        payload = compound.result().payload(())
        assert c == payload.c
        assert np.allclose(s, payload.s)
        assert np.allclose(q, payload.q)

    def test_scalar_accessor(self, peragg):
        assert peragg.scalar("count") == 3.0
        with pytest.raises(EngineError):
            peragg.scalar("sum(nope)")


class TestValidation:
    def test_categorical_rejected(self):
        with pytest.raises(EngineError):
            PerAggregateEngine(
                Query("Q", (R, S), spec=CountSpec()),
                (Feature.categorical("B"),),
            )

    def test_requires_initialize(self):
        engine = PerAggregateEngine(
            Query("Q", (R, S), spec=CountSpec()), FEATURES
        )
        with pytest.raises(EngineError):
            engine.covar_matrix()
