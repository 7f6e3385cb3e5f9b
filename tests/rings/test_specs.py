"""Payload specs: ring + lift bundles for the applications."""

import pytest

from repro.errors import RingError
from repro.rings import (
    CountSpec,
    CovarSpec,
    Feature,
    FloatRing,
    GeneralCofactorRing,
    IntegerRing,
    MISpec,
    NumericCofactorRing,
    SparseCofactorRing,
    SumProductSpec,
    SumSpec,
)

CONT = (Feature.continuous("B"), Feature.continuous("C"))
MIXED = (Feature.continuous("B"), Feature.categorical("C"))


class TestCountSpec:
    def test_default_z_ring(self):
        plan = CountSpec().build()
        assert isinstance(plan.ring, IntegerRing)
        assert plan.lifts == {}
        assert CountSpec().lifted_attributes == ()


class TestSumSpec:
    def test_single_attribute_sum(self):
        plan = SumSpec("price").build()
        assert isinstance(plan.ring, FloatRing)
        assert plan.lifts["price"](3) == 3.0
        assert SumSpec("price").lifted_attributes == ("price",)


class TestSumProductSpec:
    def test_powers(self):
        plan = SumProductSpec((("x", 1), ("y", 2))).build()
        assert plan.lifts["x"](3) == 3.0
        assert plan.lifts["y"](3) == 9.0

    def test_duplicate_attr_rejected(self):
        with pytest.raises(RingError):
            SumProductSpec((("x", 1), ("x", 2)))

    def test_bad_power_rejected(self):
        with pytest.raises(RingError):
            SumProductSpec((("x", 0),))


class TestCovarSpec:
    def test_auto_picks_numeric_for_continuous(self):
        plan = CovarSpec(CONT).build()
        assert isinstance(plan.ring, NumericCofactorRing)
        assert set(plan.lifts) == {"B", "C"}
        assert plan.layout.attributes == ("B", "C")

    def test_auto_picks_general_for_mixed(self):
        plan = CovarSpec(MIXED).build()
        assert isinstance(plan.ring, SparseCofactorRing)
        assert plan.ring.features == MIXED and plan.layout is plan.ring.layout
        assert plan.ring.has_bulk_kernels

    def test_explicit_general_float_backend(self):
        plan = CovarSpec(CONT, backend="general-float").build()
        assert isinstance(plan.ring, GeneralCofactorRing)
        assert isinstance(plan.ring.scalar, FloatRing)

    def test_numeric_backend_rejects_categorical(self):
        with pytest.raises(RingError):
            CovarSpec(MIXED, backend="numeric").build()

    def test_empty_features_rejected(self):
        with pytest.raises(RingError):
            CovarSpec(())

    def test_unknown_backend_rejected(self):
        with pytest.raises(RingError):
            CovarSpec(CONT, backend="magic")

    def test_lifted_attributes(self):
        assert CovarSpec(MIXED).lifted_attributes == ("B", "C")


class TestMISpec:
    def test_all_categorical_ok(self):
        plan = MISpec((Feature.categorical("B"), Feature.categorical("C"))).build()
        assert isinstance(plan.ring, SparseCofactorRing)

    def test_binned_continuous_ok(self):
        plan = MISpec((Feature.binned("B", 0, 1, 4), Feature.categorical("C"))).build()
        value = plan.lifts["B"](0.6)
        assert plan.ring.linear(value, 0).as_dict() == {(2,): 1}

    def test_unbinned_continuous_rejected(self):
        with pytest.raises(RingError):
            MISpec((Feature.continuous("B"),))

    def test_empty_rejected(self):
        with pytest.raises(RingError):
            MISpec(())
