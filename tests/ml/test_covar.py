"""COVAR extraction: payload -> dense moment matrix with one-hot columns."""

import numpy as np
import pytest

from repro.data import RelationSchema
from repro.datasets import toy_database, toy_variable_order
from repro.engine import FIVMEngine
from repro.errors import FIVMError
from repro.ml import Column, covar_from_payload
from repro.query import Query
from repro.rings import CountSpec, CovarSpec, Feature
from tests.rings.reference_cofactor import GeneralFloatCovarSpec, general_dense

R = RelationSchema("R", ("A", "B"))
S = RelationSchema("S", ("A", "C", "D"))


def covar_for(spec):
    engine = FIVMEngine(Query("Q", (R, S), spec=spec), order=toy_variable_order())
    engine.initialize(toy_database())
    return covar_from_payload(engine.result().payload(()), engine.plan)


CONT = (Feature.continuous("B"), Feature.continuous("C"), Feature.continuous("D"))
MIXED = (Feature.continuous("B"), Feature.categorical("C"), Feature.continuous("D"))


class TestNumericExtraction:
    def test_columns_and_values(self):
        covar = covar_for(CovarSpec(CONT))
        assert [c.label for c in covar.columns] == ["B", "C", "D"]
        assert covar.count == 3.0
        assert covar.sums.tolist() == [4.0, 5.0, 6.0]
        assert covar.moments[0, 2] == 8.0

    def test_extended_matrix(self):
        covar = covar_for(CovarSpec(CONT))
        extended = covar.extended()
        assert extended.shape == (4, 4)
        assert extended[0, 0] == 3.0
        assert extended[0, 1] == 4.0
        assert extended[1, 0] == 4.0
        assert extended[3, 3] == 14.0

    def test_index_and_columns_of(self):
        covar = covar_for(CovarSpec(CONT))
        assert covar.index("C") == 1
        assert covar.columns_of("D") == (2,)
        with pytest.raises(FIVMError):
            covar.index("Z")
        with pytest.raises(FIVMError):
            covar.columns_of("Z")


class TestGeneralFloatExtraction:
    def test_matches_numeric_backend(self):
        numeric = covar_for(CovarSpec(CONT))
        engine = FIVMEngine(
            Query("Q", (R, S), spec=GeneralFloatCovarSpec(CONT)), order=toy_variable_order()
        )
        engine.initialize(toy_database())
        count, sums, moments = general_dense(engine.result().payload(()), len(CONT))
        assert numeric.count == count
        assert np.allclose(numeric.sums, sums)
        assert np.allclose(numeric.moments, moments)


class TestRelationalExtraction:
    def test_one_hot_columns_for_categorical(self):
        covar = covar_for(CovarSpec(MIXED))
        labels = [c.label for c in covar.columns]
        assert labels == ["B", "C=1", "C=2", "D"]

    def test_counts_and_sums(self):
        covar = covar_for(CovarSpec(MIXED))
        assert covar.count == 3.0
        b = covar.index("B")
        c1 = covar.index("C", 1)
        c2 = covar.index("C", 2)
        d = covar.index("D")
        assert covar.sums[b] == 4.0
        assert covar.sums[c1] == 1.0   # SUM(1) for C=c1
        assert covar.sums[c2] == 2.0
        assert covar.sums[d] == 6.0

    def test_interaction_blocks(self):
        covar = covar_for(CovarSpec(MIXED))
        b = covar.index("B")
        c1 = covar.index("C", 1)
        c2 = covar.index("C", 2)
        d = covar.index("D")
        # Q_BC: SUM(B) GROUP BY C = {c1: 1, c2: 3}
        assert covar.moments[b, c1] == 1.0
        assert covar.moments[b, c2] == 3.0
        # Q_CD: SUM(D) GROUP BY C = {c1: 1, c2: 5}
        assert covar.moments[c1, d] == 1.0
        assert covar.moments[c2, d] == 5.0
        # one-hot diagonal and orthogonality
        assert covar.moments[c1, c1] == 1.0
        assert covar.moments[c2, c2] == 2.0
        assert covar.moments[c1, c2] == 0.0
        # continuous diagonal
        assert covar.moments[b, b] == 6.0
        assert covar.moments[d, d] == 14.0
        # symmetry
        assert np.array_equal(covar.moments, covar.moments.T)

    def test_matches_expansion_of_numeric_on_continuous_subset(self):
        """One-hot expansion over {B, D} agrees with the numeric backend."""
        mixed = covar_for(CovarSpec(MIXED))
        numeric = covar_for(CovarSpec(CONT))
        for attrs in (("B", "B"), ("B", "D"), ("D", "D")):
            i_mixed = mixed.index(attrs[0])
            j_mixed = mixed.index(attrs[1])
            i_num = numeric.index(attrs[0])
            j_num = numeric.index(attrs[1])
            assert mixed.moments[i_mixed, j_mixed] == numeric.moments[i_num, j_num]


class TestErrors:
    def test_non_cofactor_payload_rejected(self):
        engine = FIVMEngine(
            Query("Q", (R, S), spec=CountSpec()), order=toy_variable_order()
        )
        engine.initialize(toy_database())
        with pytest.raises(FIVMError):
            covar_from_payload(engine.result().payload(()), engine.plan)

    def test_render_contains_labels(self):
        covar = covar_for(CovarSpec(MIXED))
        text = covar.render()
        assert "C=1" in text and "count = 3" in text


class TestColumn:
    def test_labels(self):
        assert Column("B").label == "B"
        assert Column("C", "red").label == "C=red"
