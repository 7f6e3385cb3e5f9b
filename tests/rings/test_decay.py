"""DecaySpec parsing and drift measurement (the decay clock is the
engine's: tests/engine/test_decay_engine.py)."""

import math

import pytest

from repro.data import Relation
from repro.errors import RingError
from repro.rings import (
    CofactorLayout,
    DecaySpec,
    FloatRing,
    NumericCofactorRing,
    payload_drift,
    result_drift,
)


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
