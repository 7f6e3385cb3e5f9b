"""The cofactor ring over dict relations, as a reference (test-only).

``GeneralCofactorRing(RelationRing(), layout)`` with the lifts the
engine used before :class:`~repro.rings.SparseCofactorRing` replaced it:
nested dicts of :class:`~repro.rings.RelationValue` objects, no bulk
kernels. The sparse ring must agree with it operation by operation, an
engine built on it writes the snapshots the parent commit wrote, and its
results are what mixed COVAR / MI runs are compared against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.rings import (
    CofactorLayout,
    Feature,
    GeneralCofactor,
    GeneralCofactorRing,
    PayloadPlan,
    PayloadSpec,
    RelationRing,
    RelationValue,
)


def reference_ring(features: Tuple[Feature, ...]) -> GeneralCofactorRing:
    return GeneralCofactorRing(
        RelationRing(), CofactorLayout(tuple(f.name for f in features))
    )


def reference_lift(ring: GeneralCofactorRing, feature: Feature, index: int):
    """``value -> g(value)`` over relations: a 0-ary scalar for a continuous
    feature, a one-hot indicator for a category or a bin."""

    def lift(value) -> GeneralCofactor:
        if feature.binning is not None:
            value = feature.binning.bin(float(value))
        if feature.is_categorical:
            indicator = RelationValue.indicator(feature.name, value)
            return ring.lift(index, indicator, indicator)
        x = float(value)
        return ring.lift(index, RelationValue.scalar(x), RelationValue.scalar(x * x))

    return lift


@dataclass(frozen=True)
class ReferenceCofactorSpec(PayloadSpec):
    """What ``MISpec`` / ``CovarSpec(backend="general")`` built at the
    parent commit: every engine takes the per-tuple path over it."""

    features: Tuple[Feature, ...]

    def build(self) -> PayloadPlan:
        ring = reference_ring(self.features)
        lifts = {
            feature.name: reference_lift(ring, feature, index)
            for index, feature in enumerate(self.features)
        }
        return PayloadPlan(ring, lifts, ring.layout, tuple(self.features))

    @property
    def lifted_attributes(self) -> Tuple[str, ...]:
        return tuple(feature.name for feature in self.features)


def as_dicts(general: GeneralCofactor) -> Tuple[float, Dict[Any, Dict]]:
    """``(count, {slot: {category key: value}})`` with empty aggregates
    left out — the form both rings are compared in (``3 == 3.0``)."""
    cells = {i: value.as_dict() for i, value in general.s.items() if value.data}
    cells.update({ij: value.as_dict() for ij, value in general.q.items() if value.data})
    return general.c.annotation(()), cells
