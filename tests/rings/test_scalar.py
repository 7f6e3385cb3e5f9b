"""Scalar rings: Z, floats, and the bool/min-plus semirings."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import RingError
from repro.rings import BoolRing, FloatRing, IntegerRing, MinPlusRing, Z
from repro.rings.base import check_ring_axioms

ints = st.integers(min_value=-50, max_value=50)


class TestIntegerRing:
    def test_identities(self):
        assert Z.zero() == 0
        assert Z.one() == 1

    def test_add_mul_neg(self):
        assert Z.add(2, 3) == 5
        assert Z.mul(2, 3) == 6
        assert Z.neg(4) == -4
        assert Z.sub(2, 5) == -3

    def test_from_int_is_identity(self):
        assert Z.from_int(7) == 7
        assert Z.from_int(-3) == -3

    def test_scale(self):
        assert Z.scale(3, 4) == 12
        assert Z.scale(3, 0) == 0
        assert Z.scale(3, -2) == -6

    def test_sum_prod(self):
        assert Z.sum([1, 2, 3]) == 6
        assert Z.sum([]) == 0
        assert Z.prod([2, 3, 4]) == 24
        assert Z.prod([]) == 1

    def test_is_zero(self):
        assert Z.is_zero(0)
        assert not Z.is_zero(2)

    @given(ints, ints, ints)
    def test_axioms(self, a, b, c):
        check_ring_axioms(Z, a, b, c)


class TestFloatRing:
    def setup_method(self):
        self.ring = FloatRing()

    def test_basics(self):
        assert self.ring.add(1.5, 2.5) == 4.0
        assert self.ring.mul(2.0, 3.0) == 6.0
        assert self.ring.neg(1.25) == -1.25
        assert self.ring.from_int(2) == 2.0

    def test_close(self):
        assert self.ring.close(1.0, 1.0 + 1e-12)
        assert not self.ring.close(1.0, 1.1)

    @given(
        st.integers(-20, 20).map(float),
        st.integers(-20, 20).map(float),
        st.integers(-20, 20).map(float),
    )
    def test_axioms_on_integer_floats(self, a, b, c):
        check_ring_axioms(self.ring, a, b, c)


class TestBoolRing:
    def setup_method(self):
        self.ring = BoolRing()

    def test_or_and_semantics(self):
        assert self.ring.add(True, False) is True
        assert self.ring.add(False, False) is False
        assert self.ring.mul(True, True) is True
        assert self.ring.mul(True, False) is False

    def test_no_negation(self):
        assert not self.ring.has_negation
        with pytest.raises(RingError):
            self.ring.neg(True)

    def test_from_int(self):
        assert self.ring.from_int(0) is False
        assert self.ring.from_int(3) is True
        with pytest.raises(RingError):
            self.ring.from_int(-1)

    def test_scale_rejects_deletes(self):
        with pytest.raises(RingError):
            self.ring.scale(True, -1)

    @given(st.booleans(), st.booleans(), st.booleans())
    def test_semiring_axioms(self, a, b, c):
        check_ring_axioms(self.ring, a, b, c)


class TestMinPlusRing:
    def setup_method(self):
        self.ring = MinPlusRing()

    def test_identities(self):
        assert self.ring.zero() == math.inf
        assert self.ring.one() == 0.0

    def test_min_plus_semantics(self):
        assert self.ring.add(3.0, 5.0) == 3.0
        assert self.ring.mul(3.0, 5.0) == 8.0

    def test_zero_annihilates(self):
        assert self.ring.mul(3.0, self.ring.zero()) == math.inf
        assert self.ring.is_zero(math.inf)

    def test_no_negation(self):
        with pytest.raises(RingError):
            self.ring.neg(1.0)
        with pytest.raises(RingError):
            self.ring.from_int(-1)

    @given(
        st.integers(0, 30).map(float),
        st.integers(0, 30).map(float),
        st.integers(0, 30).map(float),
    )
    def test_semiring_axioms(self, a, b, c):
        check_ring_axioms(self.ring, a, b, c)

    def test_from_int(self):
        assert self.ring.from_int(0) == math.inf
        assert self.ring.from_int(5) == 0.0


class TestGenericDefaults:
    def test_default_scale_binary_doubling(self):
        # IntegerRing overrides scale; exercise the generic path through a
        # minimal ring that does not.
        class MinimalRing(IntegerRing):
            def scale(self, a, n):  # force the generic implementation
                return super(IntegerRing, self).scale(a, n)

            def from_int(self, n):
                return super(IntegerRing, self).from_int(n)

        ring = MinimalRing()
        assert ring.scale(3, 7) == 21
        assert ring.scale(3, -7) == -21
        assert ring.scale(3, 0) == 0
        assert ring.from_int(9) == 9

    def test_check_ring_axioms_raises_on_broken_ring(self):
        class BrokenRing(IntegerRing):
            def mul(self, a, b):
                return a * b + 1  # not distributive, wrong identity

        with pytest.raises(RingError):
            check_ring_axioms(BrokenRing(), 1, 2, 3)
