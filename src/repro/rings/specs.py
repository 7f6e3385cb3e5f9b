"""Payload specifications: ring + lifting bundles for common applications.

A :class:`PayloadSpec` describes *what* a query maintains (counts, a single
sum, a COVAR matrix, an MI count matrix); :meth:`PayloadSpec.build` turns it
into a :class:`PayloadPlan` — the concrete ring plus one lifting function
per participating attribute — which the query layer and the engines consume.
This is the single switch the paper advertises: the view tree and the
maintenance code never change across applications, only the plan does.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import RingError
from repro.rings.base import Ring
from repro.rings.cofactor import CofactorLayout, NumericCofactorRing
from repro.rings.cofactor_sparse import SparseCofactorRing
from repro.rings.lifting import (
    CONTINUOUS,
    Feature,
    LiftFunction,
    numeric_cofactor_lift,
    sparse_cofactor_lift,
)
from repro.rings.scalar import FloatRing, Z

__all__ = [
    "PayloadPlan",
    "PayloadSpec",
    "CountSpec",
    "SumSpec",
    "SumProductSpec",
    "CovarSpec",
    "MISpec",
]


@dataclass
class PayloadPlan:
    """A built payload specification.

    Attributes
    ----------
    ring:
        The payload ring all views carry.
    lifts:
        Lifting function per attribute; attributes absent from the map are
        lifted to ring one by the engine.
    layout:
        For cofactor rings, the attribute -> slot mapping (used by the ML
        extraction layer); ``None`` otherwise.
    features:
        The feature descriptions behind the plan, in layout order.
    """

    ring: Ring
    lifts: Dict[str, LiftFunction] = field(default_factory=dict)
    layout: Optional[CofactorLayout] = None
    features: Tuple[Feature, ...] = ()


class PayloadSpec(ABC):
    """Declarative description of the maintained aggregate batch."""

    @abstractmethod
    def build(self) -> PayloadPlan:
        """Materialize the ring and per-attribute lifting functions."""

    @property
    def lifted_attributes(self) -> Tuple[str, ...]:
        """Names of attributes this spec lifts (empty for counts)."""
        return ()


@dataclass(frozen=True)
class CountSpec(PayloadSpec):
    """``SUM(1)``: tuple multiplicities in Z (or a provided semiring)."""

    ring: Ring = Z

    def build(self) -> PayloadPlan:
        return PayloadPlan(ring=self.ring)


@dataclass(frozen=True)
class SumSpec(PayloadSpec):
    """A single ``SUM(X)`` over floats for one attribute ``X`` — e.g.
    ``SumSpec("price")`` maintains ``SUM(price)``."""

    attribute: str

    def build(self) -> PayloadPlan:
        ring = FloatRing()

        def lift(value) -> float:
            return float(value)

        return PayloadPlan(ring=ring, lifts={self.attribute: lift})

    @property
    def lifted_attributes(self) -> Tuple[str, ...]:
        return (self.attribute,)


@dataclass(frozen=True)
class SumProductSpec(PayloadSpec):
    """``SUM(X1^p1 * X2^p2 * ...)`` over floats.

    One scalar aggregate; the building block of the per-aggregate baseline
    engine, which maintains a COVAR matrix as many independent scalar views
    the way a system without compound rings must.
    """

    powers: Tuple[Tuple[str, int], ...]

    def __post_init__(self):
        names = [attr for attr, _power in self.powers]
        if len(set(names)) != len(names):
            raise RingError(f"duplicate attribute in SumProductSpec: {names}")
        for _attr, power in self.powers:
            if power < 1:
                raise RingError("SumProductSpec powers must be >= 1")

    def build(self) -> PayloadPlan:
        ring = FloatRing()
        lifts: Dict[str, LiftFunction] = {}
        for attr, power in self.powers:
            if power == 1:
                lift: LiftFunction = lambda value: float(value)  # noqa: E731
            else:
                lift = lambda value, _power=power: float(value) ** _power  # noqa: E731
            lifts[attr] = lift
        return PayloadPlan(ring=ring, lifts=lifts)

    @property
    def lifted_attributes(self) -> Tuple[str, ...]:
        return tuple(attr for attr, _power in self.powers)


def _sparse_plan(features: Tuple[Feature, ...]) -> PayloadPlan:
    """The cofactor ring with relational values, over sparse arrays."""
    ring = SparseCofactorRing(features)
    lifts = {feature.name: sparse_cofactor_lift(ring, feature) for feature in features}
    return PayloadPlan(ring, lifts, ring.layout, tuple(features))


@dataclass(frozen=True)
class CovarSpec(PayloadSpec):
    """The COVAR compound aggregate ``(c, s, Q)`` over the given features.

    The features choose the ring: all continuous -> the numeric degree-m
    :class:`~repro.rings.cofactor.NumericCofactorRing`; any categorical ->
    the cofactor ring with relational values (the paper's composition),
    stored as sparse arrays (:class:`~repro.rings.cofactor_sparse.SparseCofactorRing`).
    """

    features: Tuple[Feature, ...]

    def __post_init__(self):
        if not self.features:
            raise RingError("CovarSpec requires at least one feature")

    def build(self) -> PayloadPlan:
        features = tuple(self.features)
        if any(feature.is_categorical for feature in features):
            return _sparse_plan(features)
        ring = NumericCofactorRing(CofactorLayout(tuple(f.name for f in features)))
        lifts = {f.name: numeric_cofactor_lift(ring, f) for f in features}
        return PayloadPlan(ring, lifts, ring.layout, features)

    @property
    def lifted_attributes(self) -> Tuple[str, ...]:
        return tuple(feature.name for feature in self.features)


@dataclass(frozen=True)
class MISpec(PayloadSpec):
    """Count aggregates for pairwise mutual information.

    Every feature is treated categorically: explicit categorical features
    pass through, continuous features must carry a :class:`Binning` (the
    paper: "we first discretize their values into bins of finite size").
    The maintained payload is the all-categorical COVAR — C_0, C_X and C_XY
    count relations — from which :mod:`repro.ml.mi` computes I(X, Y).
    """

    features: Tuple[Feature, ...]

    def __post_init__(self):
        if not self.features:
            raise RingError("MISpec requires at least one feature")
        for feature in self.features:
            if feature.kind == CONTINUOUS and feature.binning is None:
                raise RingError(
                    f"MI over continuous feature {feature.name!r} requires a "
                    "Binning (discretize into bins of finite size)"
                )

    def build(self) -> PayloadPlan:
        return _sparse_plan(tuple(self.features))

    @property
    def lifted_attributes(self) -> Tuple[str, ...]:
        return tuple(feature.name for feature in self.features)
