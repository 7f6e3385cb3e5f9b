"""Mutual information from maintained counts, vs direct computation."""

import math

import numpy as np
import pytest

from repro.data import Database, Relation, RelationSchema
from repro.datasets import toy_database, toy_mi_query, toy_variable_order
from repro.engine import FIVMEngine
from repro.errors import FIVMError
from repro.ml import mutual_information_matrix
from repro.query import Query
from repro.rings import CountSpec, Feature, MISpec

from tests.sql_oracle import SqlOracle

R = RelationSchema("R", ("A", "B"))
S = RelationSchema("S", ("A", "C", "D"))


def direct_mi(rows, i, j):
    """MI of columns i, j over explicit rows (natural-log)."""
    n = len(rows)
    from collections import Counter

    joint = Counter((row[i], row[j]) for row in rows)
    px = Counter(row[i] for row in rows)
    py = Counter(row[j] for row in rows)
    total = 0.0
    for (x, y), c in joint.items():
        total += (c / n) * math.log(n * c / (px[x] * py[y]))
    return total


def direct_entropy(rows, i):
    from collections import Counter

    n = len(rows)
    counts = Counter(row[i] for row in rows)
    return -sum((c / n) * math.log(c / n) for c in counts.values())


def join_rows(db):
    """The join's rows over (A, B, C, D), repeated by multiplicity (sqlite)."""
    rows = []
    for *key, multiplicity in SqlOracle(db).rows(("A", "B", "C", "D")):
        rows.extend([tuple(key)] * multiplicity)
    return rows


def mi_matrix_of(db):
    engine = FIVMEngine(toy_mi_query(), order=toy_variable_order())
    engine.initialize(db)
    return mutual_information_matrix(engine.result().payload(()), engine.plan)


class TestAgainstDirectComputation:
    def test_toy_database(self):
        db = toy_database()
        mi = mi_matrix_of(db)
        rows = join_rows(db)  # columns: A, B, C, D
        # matrix attrs are (B, C, D) = join columns 1, 2, 3
        for ai, attr_i in enumerate(("B", "C", "D")):
            for aj, attr_j in enumerate(("B", "C", "D")):
                if ai == aj:
                    expected = direct_entropy(rows, ai + 1)
                else:
                    expected = direct_mi(rows, ai + 1, aj + 1)
                assert mi.mi(attr_i, attr_j) == pytest.approx(expected, abs=1e-12)

    def test_random_database(self):
        rng = np.random.default_rng(17)
        r_rows = [(int(a), int(b)) for a, b in rng.integers(0, 3, (30, 2))]
        s_rows = [
            (int(a), int(c), int(d)) for a, c, d in rng.integers(0, 3, (30, 3))
        ]
        db = Database(
            [
                Relation.from_tuples(("A", "B"), r_rows, name="R"),
                Relation.from_tuples(("A", "C", "D"), s_rows, name="S"),
            ]
        )
        mi = mi_matrix_of(db)
        rows = join_rows(db)
        assert mi.mi("B", "C") == pytest.approx(direct_mi(rows, 1, 2), abs=1e-12)
        assert mi.mi("C", "D") == pytest.approx(direct_mi(rows, 2, 3), abs=1e-12)

    def test_symmetry(self):
        mi = mi_matrix_of(toy_database())
        assert np.array_equal(mi.values, mi.values.T)

    def test_identical_attributes_have_mi_equal_entropy(self):
        """If C == D always, I(C, D) = H(C)."""
        rows_s = [(a, v, v) for a, v in [(0, 1), (1, 2), (2, 1), (3, 2)]]
        rows_r = [(a, 0) for a in range(4)]
        db = Database(
            [
                Relation.from_tuples(("A", "B"), rows_r, name="R"),
                Relation.from_tuples(("A", "C", "D"), rows_s, name="S"),
            ]
        )
        mi = mi_matrix_of(db)
        assert mi.mi("C", "D") == pytest.approx(mi.mi("C", "C"), abs=1e-12)

    def test_independent_attributes_have_zero_mi(self):
        """C uniform and independent of D -> I ~ 0 (exactly 0 for a
        perfectly balanced design)."""
        rows_s = [
            (a, c, d) for a, (c, d) in enumerate((c, d) for c in (0, 1) for d in (0, 1))
        ]
        rows_r = [(a, 0) for a in range(4)]
        db = Database(
            [
                Relation.from_tuples(("A", "B"), rows_r, name="R"),
                Relation.from_tuples(("A", "C", "D"), rows_s, name="S"),
            ]
        )
        mi = mi_matrix_of(db)
        assert mi.mi("C", "D") == pytest.approx(0.0, abs=1e-12)


class TestHelpers:
    PLAN = MISpec((Feature.categorical("X"), Feature.categorical("Y"))).build()

    def test_empty_payload_has_no_information(self):
        for payload in (self.PLAN.ring.zero(), self.PLAN.ring.from_int(-2)):
            mi = mutual_information_matrix(payload, self.PLAN)
            assert not mi.values.any()

    def test_entropy_uniform(self):
        ring, lifts = self.PLAN.ring, self.PLAN.lifts
        payload = ring.sum(
            ring.scale(ring.mul(lifts["X"](x), lifts["Y"]("y")), 2) for x in (0, 1)
        )
        mi = mutual_information_matrix(payload, self.PLAN)
        assert mi.mi("X", "X") == pytest.approx(math.log(2))
        assert mi.mi("Y", "Y") == 0.0 and mi.mi("X", "Y") == 0.0

    def test_mi_matrix_accessors(self):
        mi = mi_matrix_of(toy_database())
        with pytest.raises(FIVMError):
            mi.mi("B", "nope")
        assert "B" in mi.render()


class TestBinnedContinuous:
    def test_binned_mi_matches_direct_binning(self):
        db = toy_database()
        spec = MISpec(
            (
                Feature.binned("B", 0, 4, 2),
                Feature.categorical("C"),
                Feature.binned("D", 0, 4, 2),
            )
        )
        engine = FIVMEngine(Query("Q", (R, S), spec=spec))
        engine.initialize(db)
        mi = mutual_information_matrix(engine.result().payload(()), engine.plan)
        rows = [
            (a, int(b >= 2), c, int(d >= 2))
            for (a, b, c, d) in join_rows(db)
        ]
        assert mi.mi("B", "D") == pytest.approx(direct_mi(rows, 1, 3), abs=1e-12)


class TestValidation:
    def test_wrong_ring_rejected(self):
        engine = FIVMEngine(Query("Q", (R, S), spec=CountSpec()))
        engine.initialize(toy_database())
        with pytest.raises(FIVMError):
            mutual_information_matrix(engine.result().payload(()), engine.plan)
