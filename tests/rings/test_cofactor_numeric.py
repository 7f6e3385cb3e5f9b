"""The numeric degree-m cofactor ring (numpy fast path)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import RingError
from repro.rings import CofactorLayout, NumericCofactorRing
from repro.rings.base import check_ring_axioms


@pytest.fixture
def ring():
    return NumericCofactorRing(CofactorLayout(("B", "C", "D")))


class TestLayout:
    def test_index(self):
        layout = CofactorLayout(("B", "C"))
        assert layout.index("B") == 0
        assert layout.index("C") == 1
        assert layout.degree == 2
        assert "B" in layout
        assert "Z" not in layout

    def test_unknown_attribute(self):
        with pytest.raises(RingError):
            CofactorLayout(("B",)).index("C")

    def test_duplicate_attribute(self):
        with pytest.raises(RingError):
            CofactorLayout(("B", "B"))


class TestIdentitiesAndLift:
    def test_zero(self, ring):
        zero = ring.zero()
        assert zero.c == 0.0
        assert not zero.s.any()
        assert not zero.q.any()
        assert ring.is_zero(zero)

    def test_one(self, ring):
        one = ring.one()
        assert one.c == 1.0
        assert not one.s.any()
        assert not ring.is_zero(one)

    def test_lift_shape(self, ring):
        g = ring.lift(1, 3.0)
        assert g.c == 1.0
        assert g.support == (1,)
        assert g.s.tolist() == [3.0]
        assert g.q.tolist() == [[9.0]]
        dense = ring.dense(g)
        assert dense.s.tolist() == [0.0, 3.0, 0.0]
        assert dense.q[1, 1] == 9.0
        assert dense.q.sum() == 9.0

    def test_from_int(self, ring):
        v = ring.from_int(-2)
        assert v.c == -2.0
        assert ring.is_zero(ring.from_int(0))


class TestPaperMulFormula:
    def test_mul_matches_paper_formula(self, ring):
        """a * b = (ca·cb, cb·sa + ca·sb, cb·Qa + ca·Qb + sa sbᵀ + sb saᵀ)."""
        a = ring.lift(0, 2.0)  # g_B(2)
        b = ring.lift(1, 5.0)  # g_C(5)
        p = ring.mul(a, b)
        assert p.support == (0, 1)
        assert p.q.shape == (2, 2)
        p = ring.dense(p)
        assert p.c == 1.0
        assert p.s.tolist() == [2.0, 5.0, 0.0]
        expected_q = np.zeros((3, 3))
        expected_q[0, 0] = 4.0
        expected_q[1, 1] = 25.0
        expected_q[0, 1] = expected_q[1, 0] = 10.0
        assert np.array_equal(p.q, expected_q)

    def test_mul_scales_by_counts(self, ring):
        a = ring.from_int(3)
        b = ring.lift(0, 2.0)
        p = ring.mul(a, b)
        assert p.c == 3.0
        assert p.s[0] == 6.0
        assert p.q[0, 0] == 12.0

    def test_q_stays_symmetric_under_ops(self, ring):
        a = ring.mul(ring.lift(0, 2.0), ring.lift(1, 3.0))
        b = ring.mul(ring.lift(1, 1.0), ring.lift(2, 4.0))
        p = ring.add(ring.mul(a, b), ring.scale(a, 2))
        assert np.array_equal(p.q, p.q.T)


class TestMutationSafety:
    def test_add_pure(self, ring):
        a = ring.lift(0, 2.0)
        b = ring.lift(1, 3.0)
        snapshot = (a.c, a.s.copy(), a.q.copy())
        ring.add(a, b)
        assert a.c == snapshot[0]
        assert np.array_equal(a.s, snapshot[1])
        assert np.array_equal(a.q, snapshot[2])

    def test_add_inplace_mutates_left_only(self, ring):
        a = ring.copy(ring.lift(0, 2.0))
        b = ring.lift(1, 3.0)
        b_snapshot = b.s.copy()
        total = ring.add_inplace(a, b)
        assert ring.dense(total).s.tolist() == [2.0, 3.0, 0.0]
        assert np.array_equal(b.s, b_snapshot)

    def test_copy_isolates(self, ring):
        a = ring.lift(0, 2.0)
        b = ring.copy(a)
        b = ring.add_inplace(b, ring.one())
        assert a.c == 1.0
        assert b.c == 2.0

    def test_accumulating_into_zero_leaves_zero_alone(self, ring):
        total = ring.add_inplace(ring.zero(), ring.lift(0, 99.0))
        ring.add_inplace(total, ring.lift(0, 1.0))
        assert total.s.tolist() == [100.0]
        assert ring.is_zero(ring.zero())
        assert ring.zero().support == ()


class TestComparisons:
    def test_eq_exact(self, ring):
        assert ring.eq(ring.lift(0, 2.0), ring.lift(0, 2.0))
        assert not ring.eq(ring.lift(0, 2.0), ring.lift(0, 3.0))

    def test_close(self, ring):
        a = ring.lift(0, 1.0)
        b = ring.copy(a)
        b.s[0] += 1e-12
        assert ring.close(a, b)
        b.s[0] += 1.0
        assert not ring.close(a, b)


# ----------------------------------------------------------------------
# Axioms over integer-valued cofactors (exact float arithmetic)
# ----------------------------------------------------------------------


def cofactors(ring: NumericCofactorRing):
    """Sums of scaled lift products — the subalgebra the engine produces."""
    index = st.integers(0, ring.degree - 1)
    value = st.integers(-3, 3).map(float)
    lift = st.tuples(index, value).map(lambda iv: ring.lift(*iv))
    product = st.lists(lift, min_size=1, max_size=2).map(ring.prod)
    term = st.tuples(product, st.integers(-2, 2)).map(
        lambda pair: ring.scale(pair[0], pair[1])
    )
    return st.lists(term, max_size=3).map(ring.sum)


RING = NumericCofactorRing(CofactorLayout(("B", "C", "D")))


@given(cofactors(RING), cofactors(RING), cofactors(RING))
def test_ring_axioms(a, b, c):
    check_ring_axioms(RING, a, b, c)
