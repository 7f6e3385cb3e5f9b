"""Attribute (lifting) functions g_X and feature descriptions.

Each attribute X of interest has a function g_X mapping attribute values
into the payload ring (Section 2). This module defines:

- :class:`Feature` — an attribute plus how it enters the model (continuous
  or categorical, with optional discretization into bins);
- :class:`Binning` — equi-width discretization used to compute mutual
  information over continuous attributes;
- factories producing the concrete ``value -> ring element`` callables for
  every ring implemented in this package.

Attributes that carry no feature (pure join keys) are lifted through
:func:`constant_lift`, i.e. they contribute the multiplicative identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro.errors import RingError
from repro.rings.base import Ring
from repro.rings.cofactor import GeneralCofactorRing, NumericCofactorRing
from repro.rings.scalar import FloatRing, IntegerRing

__all__ = [
    "CONTINUOUS",
    "CATEGORICAL",
    "Binning",
    "Feature",
    "LiftFunction",
    "constant_lift",
    "numeric_cofactor_lift",
    "sparse_cofactor_lift",
    "general_cofactor_lift",
]

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"

#: A lifting function maps an attribute value to a payload-ring element.
LiftFunction = Callable[[Any], Any]


@dataclass(frozen=True)
class Binning:
    """Equi-width discretization of a continuous domain into ``count`` bins.

    Values outside ``[low, high)`` clamp to the first/last bin, so update
    streams that drift outside the configured domain stay well-defined.
    """

    low: float
    high: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise RingError("binning needs at least one bin")
        if not self.high > self.low:
            raise RingError("binning needs high > low")

    def bin(self, value: float) -> int:
        """Bin index of ``value`` in ``0 .. count-1``."""
        if value != value:  # NaN guard: math.isnan without the import cost
            raise RingError("cannot bin NaN")
        width = (self.high - self.low) / self.count
        offset = (value - self.low) / width
        if offset < 0:
            return 0
        if offset >= self.count:
            return self.count - 1
        return math.floor(offset)

    def bin_many(self, values) -> np.ndarray:
        """:meth:`bin` of a whole column, value for value, as ``int64``."""
        x = np.asarray(values, dtype=np.float64)
        if np.isnan(x).any():
            raise RingError("cannot bin NaN")
        width = (self.high - self.low) / self.count
        offset = np.floor((x - self.low) / width)
        return np.clip(offset, 0, self.count - 1).astype(np.int64)


@dataclass(frozen=True)
class Feature:
    """An attribute participating in the compound aggregate.

    ``kind`` decides the lift: continuous attributes contribute their value
    (and its square) as scalars; categorical attributes contribute one-hot
    indicator relations. A continuous feature with a :class:`Binning` is
    treated as categorical over bin indices (used by the MI pipeline).
    """

    name: str
    kind: str = CONTINUOUS
    binning: Optional[Binning] = None

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, CATEGORICAL):
            raise RingError(f"unknown feature kind {self.kind!r}")

    @property
    def is_categorical(self) -> bool:
        return self.kind == CATEGORICAL or self.binning is not None

    @classmethod
    def continuous(cls, name: str) -> "Feature":
        return cls(name, CONTINUOUS)

    @classmethod
    def categorical(cls, name: str) -> "Feature":
        return cls(name, CATEGORICAL)

    @classmethod
    def binned(cls, name: str, low: float, high: float, count: int) -> "Feature":
        return cls(name, CONTINUOUS, Binning(low, high, count))


def constant_lift(ring: Ring) -> LiftFunction:
    """Lift of a non-feature attribute: every value maps to ring one."""
    one = ring.one()
    return lambda _value: one


def numeric_cofactor_lift(ring: NumericCofactorRing, feature: Feature) -> LiftFunction:
    """Lift into the numeric cofactor ring (continuous features only)."""
    if feature.is_categorical:
        raise RingError(
            f"feature {feature.name!r} is categorical; the numeric cofactor "
            "ring handles continuous features only — use the sparse "
            "ring with relational values"
        )
    index = ring.layout.index(feature.name)

    def lift(value):
        return ring.lift(index, float(value))

    # Bulk metadata: the columnar maintenance path recognizes these and
    # vectorizes whole value columns through ``ring.lift_many`` instead of
    # calling the closure per tuple (see repro.data.columnar.lift_column).
    lift.bulk_slot = index
    lift.bulk_transform = float
    return lift


def sparse_cofactor_lift(ring, feature: Feature) -> LiftFunction:
    """Lift into :class:`~repro.rings.cofactor_sparse.SparseCofactorRing`,
    which knows from its features whether a value is continuous, a
    category or to be binned."""
    index = ring.layout.index(feature.name)

    def lift(value):
        return ring.lift(index, value)

    lift.bulk_slot = index  # whole columns go through ``ring.lift_many``
    return lift


def general_cofactor_lift(ring: GeneralCofactorRing, feature: Feature) -> LiftFunction:
    """Lift into the generalized cofactor ring over a numeric scalar ring
    (continuous features only): ``s = x``, ``Q = x^2`` — floats over
    :class:`FloatRing` (the cross-validation backend), exact integers
    over :class:`IntegerRing`."""
    index = ring.layout.index(feature.name)
    scalar = ring.scalar
    if isinstance(scalar, (FloatRing, IntegerRing)):
        if feature.is_categorical:
            raise RingError(
                f"feature {feature.name!r} is categorical; the "
                f"{scalar.name}-scalar cofactor ring handles continuous "
                "features only"
            )
        if isinstance(scalar, FloatRing):

            def lift_float(value, _ring=ring, _index=index):
                x = float(value)
                return _ring.lift(_index, x, x * x)

            return lift_float

        # Integer scalar ring: exact arithmetic for integer-valued data.
        def lift_int(value, _ring=ring, _index=index):
            return _ring.lift(_index, value, value * value)

        return lift_int
    raise RingError(
        f"no lift known for scalar ring {scalar.name!r} in the generalized cofactor ring"
    )
