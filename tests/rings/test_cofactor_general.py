"""The reference cofactor ring over dicts (float, integer and relational
scalars), held to the numeric ring and to the ring axioms."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rings import (
    CofactorLayout,
    FloatRing,
    NumericCofactorRing,
    RelationValue,
)
from repro.rings.base import check_ring_axioms
from tests.rings.reference_cofactor import (
    GeneralCofactorRing,
    RelationRing,
    general_cofactor_lift,
)

LAYOUT = CofactorLayout(("B", "C", "D"))


@pytest.fixture
def float_ring():
    return GeneralCofactorRing(FloatRing(), LAYOUT)


@pytest.fixture
def rel_ring():
    return GeneralCofactorRing(RelationRing(), LAYOUT)


def lift_cont(ring, index, x):
    """Continuous lift for either scalar ring."""
    if isinstance(ring.scalar, RelationRing):
        return ring.lift(index, RelationValue.scalar(x), RelationValue.scalar(x * x))
    return ring.lift(index, float(x), float(x * x))


def lift_cat(ring, index, attr, value):
    indicator = RelationValue.indicator(attr, value)
    return ring.lift(index, indicator, indicator)


class TestFloatBackend:
    def test_identities(self, float_ring):
        assert float_ring.is_zero(float_ring.zero())
        one = float_ring.one()
        assert one.c == 1.0 and not one.s and not one.q

    def test_lift(self, float_ring):
        g = lift_cont(float_ring, 1, 3.0)
        assert g.c == 1.0
        assert g.s == {1: 3.0}
        assert g.q == {(1, 1): 9.0}

    def test_mul_cross_terms_upper_triangle(self, float_ring):
        a = lift_cont(float_ring, 0, 2.0)
        b = lift_cont(float_ring, 1, 5.0)
        p = float_ring.mul(a, b)
        assert p.q[(0, 1)] == 10.0
        assert (1, 0) not in p.q

    def test_mul_diagonal_doubles(self, float_ring):
        a = lift_cont(float_ring, 0, 2.0)
        b = lift_cont(float_ring, 0, 3.0)
        p = float_ring.mul(a, b)
        # q = cb*qa + ca*qb + 2*sa_0*sb_0 = 4 + 9 + 2*6 = 25 = (2+3)^2
        assert p.q[(0, 0)] == 25.0
        assert p.s[0] == 5.0

    def test_entry_symmetric_read(self, float_ring):
        a = float_ring.mul(lift_cont(float_ring, 0, 2.0), lift_cont(float_ring, 2, 3.0))
        assert float_ring.entry(a, 0, 2) == float_ring.entry(a, 2, 0) == 6.0
        assert float_ring.entry(a, 1, 2) == 0.0
        assert float_ring.linear(a, 0) == 2.0
        assert float_ring.linear(a, 1) == 0.0


class TestEquivalenceWithNumericRing:
    """The generalized ring over floats must agree with the numpy ring."""

    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(-3, 3)),
            min_size=1,
            max_size=5,
        )
    )
    def test_same_results_on_random_expressions(self, ops):
        numeric = NumericCofactorRing(LAYOUT)
        general = GeneralCofactorRing(FloatRing(), LAYOUT)
        num_total = numeric.zero()
        gen_total = general.zero()
        num_prod = numeric.one()
        gen_prod = general.one()
        for index, value in ops:
            num_prod = numeric.mul(num_prod, numeric.lift(index, float(value)))
            gen_prod = general.mul(gen_prod, lift_cont(general, index, float(value)))
            num_total = numeric.add(num_total, num_prod)
            gen_total = general.add(gen_total, gen_prod)
        num_total = numeric.dense(num_total)
        assert num_total.c == gen_total.c
        for i in range(3):
            assert num_total.s[i] == gen_total.s.get(i, 0.0)
            for j in range(3):
                key = (min(i, j), max(i, j))
                assert num_total.q[i, j] == gen_total.q.get(key, 0.0)


class TestRelationalBackend:
    def test_categorical_lift(self, rel_ring):
        g = lift_cat(rel_ring, 1, "C", "c1")
        assert g.s[1].as_dict() == {("c1",): 1}
        assert g.q[(1, 1)].as_dict() == {("c1",): 1}

    def test_mixed_product_gives_group_by(self, rel_ring):
        """g_B(b) * g_C(c): Q_BC must be SUM(B) GROUP BY C."""
        g_b = lift_cont(rel_ring, 0, 4.0)
        g_c = lift_cat(rel_ring, 1, "C", "c2")
        p = rel_ring.mul(g_b, g_c)
        q_bc = p.q[(0, 1)]
        assert q_bc.schema == ("C",)
        assert q_bc.as_dict() == {("c2",): 4.0}

    def test_cat_cat_product_gives_joint_counts(self, rel_ring):
        g_c = lift_cat(rel_ring, 1, "C", "c1")
        g_d = lift_cat(rel_ring, 2, "D", "d2")
        p = rel_ring.mul(g_c, g_d)
        q_cd = p.q[(1, 2)]
        assert q_cd.schema == ("C", "D")
        assert q_cd.as_dict() == {("c1", "d2"): 1}

    def test_delete_cancels_insert(self, rel_ring):
        g = lift_cat(rel_ring, 0, "B", "b1")
        assert rel_ring.is_zero(rel_ring.add(g, rel_ring.neg(g)))

    def test_scale(self, rel_ring):
        g = lift_cat(rel_ring, 0, "B", "b1")
        doubled = rel_ring.scale(g, 2)
        assert doubled.c.annotation(()) == 2
        assert doubled.s[0].annotation(("b1",)) == 2
        assert rel_ring.is_zero(rel_ring.scale(g, 0))

    def test_eq_ignores_explicit_zeros(self, rel_ring):
        a = lift_cat(rel_ring, 0, "B", "b1")
        b = rel_ring.copy(a)
        b.s[1] = RelationValue()  # explicit zero entry
        assert rel_ring.eq(a, b)

    def test_close(self, rel_ring):
        a = lift_cont(rel_ring, 0, 1.0)
        b = rel_ring.copy(a)
        assert rel_ring.close(a, b)

    def test_add_inplace_accumulates(self, rel_ring):
        acc = rel_ring.copy(rel_ring.zero())
        rel_ring.add_inplace(acc, lift_cat(rel_ring, 0, "B", "b1"))
        rel_ring.add_inplace(acc, lift_cat(rel_ring, 0, "B", "b1"))
        assert acc.s[0].annotation(("b1",)) == 2


class TestIntegerScalarBackend:
    """Composition with Z: exact COVAR over integer-valued data."""

    def test_exact_integer_arithmetic(self):
        from repro.rings import Z
        from repro.rings.lifting import Feature

        ring = GeneralCofactorRing(Z, LAYOUT)
        lift_b = general_cofactor_lift(ring, Feature.continuous("B"))
        lift_c = general_cofactor_lift(ring, Feature.continuous("C"))
        total = ring.add(
            ring.mul(lift_b(2), lift_c(3)), ring.mul(lift_b(10**12), lift_c(1))
        )
        # values stay Python ints: no float rounding even at 10^24
        assert total.q[(0, 0)] == 4 + 10**24
        assert isinstance(total.q[(0, 0)], int)
        assert total.q[(0, 1)] == 6 + 10**12

    def test_categorical_rejected(self):
        from repro.errors import RingError
        from repro.rings import Z
        from repro.rings.lifting import Feature

        ring = GeneralCofactorRing(Z, LAYOUT)
        with pytest.raises(RingError):
            general_cofactor_lift(ring, Feature.categorical("B"))


# ----------------------------------------------------------------------
# Axioms for the composed ring (the paper's key algebraic claim)
# ----------------------------------------------------------------------

REL_RING = GeneralCofactorRing(RelationRing(), LAYOUT)


def relational_cofactors():
    """Random sums of scaled products of categorical/continuous lifts.

    Slot kinds are fixed (0 continuous; 1 and 2 categorical), as they are
    in any real payload plan — mixing kinds per slot would make sums
    between terms undefined, which the engine never produces.
    """
    spec = st.tuples(st.integers(0, 2), st.integers(0, 3))

    def to_lift(pair):
        index, value = pair
        if index == 0:
            return lift_cont(REL_RING, index, float(value) - 1.0)
        attr = LAYOUT.attributes[index]
        return lift_cat(REL_RING, index, attr, f"v{value}")

    lift = spec.map(to_lift)
    product = st.lists(lift, min_size=1, max_size=2).map(REL_RING.prod)
    term = st.tuples(product, st.integers(-2, 2)).map(
        lambda pair: REL_RING.scale(pair[0], pair[1])
    )
    return st.lists(term, max_size=2).map(REL_RING.sum)


@given(relational_cofactors(), relational_cofactors(), relational_cofactors())
def test_composed_ring_axioms(a, b, c):
    check_ring_axioms(REL_RING, a, b, c)
