"""Lifting functions, features and binnings."""

import pytest

from repro.errors import RingError
from repro.rings import (
    Binning,
    CofactorLayout,
    Feature,
    FloatRing,
    GeneralCofactorRing,
    NumericCofactorRing,
    RelationRing,
    SparseCofactorRing,
    Z,
)
from repro.rings.lifting import (
    constant_lift,
    general_cofactor_lift,
    numeric_cofactor_lift,
    sparse_cofactor_lift,
)

LAYOUT = CofactorLayout(("B", "C"))


class TestBinning:
    def test_bins_evenly(self):
        binning = Binning(0.0, 10.0, 5)
        assert binning.bin(0.0) == 0
        assert binning.bin(1.9) == 0
        assert binning.bin(2.0) == 1
        assert binning.bin(9.9) == 4

    def test_clamps_out_of_range(self):
        binning = Binning(0.0, 10.0, 5)
        assert binning.bin(-3.0) == 0
        assert binning.bin(10.0) == 4
        assert binning.bin(999.0) == 4

    def test_invalid_configs(self):
        with pytest.raises(RingError):
            Binning(0.0, 10.0, 0)
        with pytest.raises(RingError):
            Binning(5.0, 5.0, 3)

    def test_nan_rejected(self):
        with pytest.raises(RingError):
            Binning(0.0, 1.0, 2).bin(float("nan"))


class TestFeature:
    def test_kinds(self):
        assert not Feature.continuous("B").is_categorical
        assert Feature.categorical("B").is_categorical
        assert Feature.binned("B", 0, 10, 4).is_categorical

    def test_unknown_kind(self):
        with pytest.raises(RingError):
            Feature("B", "nominal")

    def test_binned_carries_binning(self):
        feature = Feature.binned("B", 0, 10, 4)
        assert feature.binning.count == 4


class TestConstantLift:
    def test_maps_everything_to_one(self):
        lift = constant_lift(Z)
        assert lift(42) == 1
        assert lift("anything") == 1


class TestNumericCofactorLift:
    def test_continuous(self):
        ring = NumericCofactorRing(LAYOUT)
        lift = numeric_cofactor_lift(ring, Feature.continuous("C"))
        value = ring.dense(lift(3))
        assert value.s.tolist() == [0.0, 3.0]
        assert value.q[1, 1] == 9.0

    def test_categorical_rejected(self):
        ring = NumericCofactorRing(LAYOUT)
        with pytest.raises(RingError):
            numeric_cofactor_lift(ring, Feature.categorical("C"))


class TestSparseCofactorLift:
    """Lifts into the ring with relational values, read back through its
    reference (relation-valued) form."""

    def lifted(self, feature, value, other=Feature.continuous("C")):
        features = (feature, other) if feature.name == "B" else (other, feature)
        ring = SparseCofactorRing(features)
        lift = sparse_cofactor_lift(ring, feature)
        assert lift.bulk_slot == ring.layout.index(feature.name)
        return ring.decode(lift(value))

    def test_relational_continuous(self):
        value = self.lifted(Feature.continuous("B"), 4)
        assert value.c.annotation(()) == 1
        assert value.s[0].annotation(()) == 4.0
        assert value.q[(0, 0)].annotation(()) == 16.0

    def test_relational_categorical(self):
        value = self.lifted(Feature.categorical("C"), "red", Feature.continuous("B"))
        assert value.s[1].as_dict() == {("red",): 1}
        assert value.q[(1, 1)].as_dict() == {("red",): 1}

    def test_relational_binned(self):
        value = self.lifted(Feature.binned("B", 0, 10, 5), 7.5)
        assert value.s[0].as_dict() == {(3,): 1}
        assert value.q[(0, 0)].as_dict() == {(3,): 1}

    def test_continuous_zero_stores_no_cell(self):
        value = self.lifted(Feature.continuous("B"), 0.0)
        assert value.c.annotation(()) == 1 and not value.s and not value.q

    def test_unknown_attribute_rejected(self):
        ring = SparseCofactorRing((Feature.continuous("B"),))
        with pytest.raises(RingError):
            sparse_cofactor_lift(ring, Feature.continuous("Z"))


class TestGeneralCofactorLift:
    def test_float_continuous(self):
        ring = GeneralCofactorRing(FloatRing(), LAYOUT)
        lift = general_cofactor_lift(ring, Feature.continuous("B"))
        value = lift(4)
        assert value.s[0] == 4.0
        assert value.q[(0, 0)] == 16.0

    def test_float_categorical_rejected(self):
        ring = GeneralCofactorRing(FloatRing(), LAYOUT)
        with pytest.raises(RingError):
            general_cofactor_lift(ring, Feature.categorical("B"))

    def test_integer_scalar_supported(self):
        ring = GeneralCofactorRing(Z, LAYOUT)
        lift = general_cofactor_lift(ring, Feature.continuous("B"))
        value = lift(4)
        assert value.s[0] == 4
        assert value.q[(0, 0)] == 16

    def test_unknown_scalar_ring_rejected(self):
        from repro.rings import BoolRing

        ring = GeneralCofactorRing(BoolRing(), LAYOUT)
        with pytest.raises(RingError):
            general_cofactor_lift(ring, Feature.continuous("B"))

    def test_unknown_attribute_rejected(self):
        ring = GeneralCofactorRing(FloatRing(), LAYOUT)
        with pytest.raises(RingError):
            general_cofactor_lift(ring, Feature.continuous("Z"))

    def test_relational_scalar_ring_has_no_closure(self):
        # Relational values live in SparseCofactorRing now.
        ring = GeneralCofactorRing(RelationRing(), LAYOUT)
        with pytest.raises(RingError, match="no lift known"):
            general_cofactor_lift(ring, Feature.continuous("B"))
