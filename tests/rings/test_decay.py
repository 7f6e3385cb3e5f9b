"""DecaySpec / DecayRing semantics: boosted entry, lazy settle, rescale."""

import math

import pytest

from repro.data import Relation
from repro.errors import RingError
from repro.rings import (
    CofactorLayout,
    DecayRing,
    DecaySpec,
    FloatRing,
    IntegerRing,
    NumericCofactorRing,
    payload_drift,
    result_drift,
)
from tests.rings.reference_cofactor import GeneralCofactorRing, RelationRing


class TestDecaySpec:
    def test_parse_rate_and_every(self):
        spec = DecaySpec.parse("0.99/1000")
        assert spec.rate == 0.99 and spec.every == 1000
        assert spec.describe() == "0.99/1000"

    def test_parse_rate_alone_means_every_event(self):
        assert DecaySpec.parse("0.5") == DecaySpec(0.5, 1)

    @pytest.mark.parametrize("text", ["", "fast", "0.9/x", "/10"])
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(RingError, match="decay spec"):
            DecaySpec.parse(text)

    @pytest.mark.parametrize("rate", [0.0, 1.0, -0.5, 2.0])
    def test_rate_must_be_in_open_unit_interval(self, rate):
        with pytest.raises(RingError, match="rate"):
            DecaySpec(rate, 10)

    def test_every_must_be_positive(self):
        with pytest.raises(RingError, match="interval"):
            DecaySpec(0.9, 0)


class TestDecayRingConstruction:
    def test_refuses_integer_ring(self):
        with pytest.raises(RingError, match="cannot scale payloads by a float"):
            DecayRing(IntegerRing(), 0.9)

    def test_refuses_general_cofactor_over_relation_scalar(self):
        ring = GeneralCofactorRing(RelationRing(), CofactorLayout(("b",)))
        with pytest.raises(RingError, match="cannot scale payloads by a float"):
            DecayRing(ring, 0.9)

    def test_accepts_float_and_numeric_cofactor_rings(self):
        DecayRing(FloatRing(), 0.9)
        DecayRing(NumericCofactorRing(CofactorLayout(("b",))), 0.9)

    def test_rate_validated(self):
        with pytest.raises(RingError, match="rate"):
            DecayRing(FloatRing(), 1.5)

    def test_never_scalar_despite_scalar_base(self):
        ring = DecayRing(FloatRing(), 0.9)
        assert ring.is_scalar is False
        assert ring.has_float_scaling is True


class TestDecayClock:
    def test_boost_is_inverse_rate_power(self):
        ring = DecayRing(FloatRing(), 0.5)
        assert ring.from_int(1) == 1.0
        ring.advance(2)
        assert ring.ticks == 2
        assert ring.from_int(1) == pytest.approx(0.5 ** -2)
        assert ring.scale(3.0, 2) == pytest.approx(6.0 * 0.5 ** -2)

    def test_advance_rejects_negative(self):
        ring = DecayRing(FloatRing(), 0.5)
        with pytest.raises(RingError, match="backwards"):
            ring.advance(-1)

    def test_settle_factor_scales_with_leaf_count(self):
        ring = DecayRing(FloatRing(), 0.9)
        ring.advance(3)
        assert ring.settle_factor(1) == pytest.approx(0.9 ** 3)
        assert ring.settle_factor(4) == pytest.approx(0.9 ** 12)

    def test_settle_then_read_matches_direct_decay(self):
        # An event entered at tick t and read at tick T must weigh λ^(T-t).
        ring = DecayRing(FloatRing(), 0.8)
        ring.advance(2)
        stored = ring.from_int(1)  # boosted by 0.8^-2
        ring.advance(3)  # now at tick 5
        decayed = stored * ring.settle_factor(1)
        assert decayed == pytest.approx(0.8 ** (5 - 2))

    def test_reset_rebases_clock(self):
        ring = DecayRing(FloatRing(), 0.9)
        ring.advance(5)
        ring.reset()
        assert ring.ticks == 0 and ring.boost == 1.0
        assert ring.from_int(1) == 1.0

    def test_needs_rescale_when_boost_overflows_limit(self):
        ring = DecayRing(FloatRing(), 0.5, boost_limit=10.0)
        assert not ring.needs_rescale
        ring.advance(3)  # boost 8 < 10
        assert not ring.needs_rescale
        ring.advance(1)  # boost 16 > 10
        assert ring.needs_rescale
        ring.reset()
        assert not ring.needs_rescale

    def test_bulk_entry_points_are_boosted(self):
        ring = DecayRing(FloatRing(), 0.5)
        ring.advance(1)
        assert list(ring.from_int_many([1, 2])) == [2.0, 4.0]
        assert list(ring.scale_many(ring.make_block([1.0, 1.0]), [3, -1])) == [
            6.0,
            -2.0,
        ]

    def test_name_and_delegation(self):
        base = FloatRing()
        ring = DecayRing(base, 0.9)
        assert "Decay<" in ring.name and base.name in ring.name
        assert ring.add(1.0, 2.0) == 3.0
        assert ring.has_bulk_kernels == base.has_bulk_kernels

    @pytest.mark.parametrize(
        "base",
        [
            FloatRing(),
            NumericCofactorRing(CofactorLayout(("b", "d"))),
            GeneralCofactorRing(FloatRing(), CofactorLayout(("b",))),
        ],
        ids=lambda base: type(base).__name__,
    )
    def test_every_public_callable_of_a_decayable_base_is_spelt_out(self, base):
        """A base ring method reached through ``__getattr__`` would skip
        the boost silently if it ever took a multiplicity: every public
        callable of every ring DecayRing accepts must be boosted or
        explicitly delegated in DecayRing's own body."""
        DecayRing(base, 0.9)  # accepted
        public = {
            name for name in dir(base)
            if not name.startswith("_") and callable(getattr(base, name))
        }
        assert public and not public - set(vars(DecayRing)), sorted(
            public - set(vars(DecayRing))
        )

    def test_row_kernels_delegate(self):
        base = NumericCofactorRing(CofactorLayout(("b",)))
        ring = DecayRing(base, 0.5)
        ring.advance(1)
        block = ring.alloc_block(2, (0,))
        ring.set_rows(block, [0], ring.make_block([ring.lift(0, 3.0)]))
        assert not ring.add_row(block, 0, ring.lift(0, 1.0))
        assert base.eq(ring.row(block, 0), base.add(base.lift(0, 3.0), base.lift(0, 1.0)))
        ring.add_at(block, [1], ring.make_block([ring.lift(0, 2.0)]))
        assert base.eq(ring.row(block, 1), base.lift(0, 2.0))


class TestDrift:
    def test_payload_drift_scalars(self):
        assert payload_drift(1.0, 1.25) == pytest.approx(0.25)
        assert payload_drift(3, 3) == 0.0

    def test_payload_drift_numeric_cofactor(self):
        ring = NumericCofactorRing(CofactorLayout(("b",)))
        a = ring.from_int(1)
        b = ring.scale_float(ring.from_int(1), 0.5)
        assert payload_drift(a, b) == pytest.approx(0.5)
        assert payload_drift(a, a) == 0.0

    def test_payload_drift_fallback_indicator(self):
        assert payload_drift("x", "x") == 0.0
        assert payload_drift("x", "y") == 1.0

    def test_result_drift_over_relations(self):
        ring = FloatRing()
        a = Relation(("a",), ring, {("k",): 1.0, ("m",): 2.0}, name="V")
        b = Relation(("a",), ring, {("k",): 1.5, ("m",): 2.0}, name="V")
        assert result_drift(a, b) == pytest.approx(0.5)
        missing = Relation(("a",), ring, {("k",): 1.0}, name="V")
        assert result_drift(a, missing) == 1.0

    def test_drift_shrinks_with_milder_decay(self):
        # Sanity: λ closer to 1 ⇒ decayed weight closer to undecayed.
        mild = abs(1.0 - 0.999 ** 10)
        harsh = abs(1.0 - 0.9 ** 10)
        assert mild < harsh
        assert math.isclose(mild, payload_drift(1.0, 0.999 ** 10))
