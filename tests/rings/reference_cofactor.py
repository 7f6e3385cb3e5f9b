"""Reference cofactor rings over dicts (test-only).

Two independent implementations of the cofactor ring that the shipped
array rings are held to:

- ``GeneralCofactorRing(FloatRing(), layout)`` with
  :func:`general_cofactor_lift` — the ``general-float`` plan
  (:class:`GeneralFloatCovarSpec`): a slow, dict-based re-implementation
  of :class:`~repro.rings.NumericCofactorRing`. It has no bulk kernels
  and is not scalar, so an engine over it takes the non-fused per-tuple
  path over dict views with non-scalar payloads.
- ``GeneralCofactorRing(RelationRing(), layout)`` with
  :func:`reference_lift` — the paper's composition "degree-m matrix ring
  with relational values" (:class:`ReferenceCofactorSpec`): nested dicts
  of :class:`~repro.rings.RelationValue` objects, what MI / mixed COVAR
  ran on before :class:`~repro.rings.SparseCofactorRing` replaced it.
  The sparse ring must agree with it operation by operation, an engine
  built on it writes the snapshots that representation wrote, and its
  results are what mixed COVAR / MI runs are compared against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

import numpy as np

from repro.errors import RingError
from repro.rings import (
    CofactorLayout,
    Feature,
    FloatRing,
    GeneralCofactor,
    IntegerRing,
    LiftFunction,
    PayloadPlan,
    PayloadSpec,
    RelationValue,
    Ring,
)

Key = Tuple


class RelationRing(Ring):
    """Ring structure on :class:`RelationValue` (union, natural join).

    Join plans — the index arithmetic for combining two schemas — are cached
    per schema pair, since the cofactor ring multiplies the same slot shapes
    millions of times during maintenance.
    """

    name = "Rel"

    def __init__(self):
        self._join_plans: Dict[Tuple[Tuple[str, ...], Tuple[str, ...]], tuple] = {}

    def zero(self) -> RelationValue:
        return _ZERO

    def one(self) -> RelationValue:
        return _ONE

    def add(self, a: RelationValue, b: RelationValue) -> RelationValue:
        if not a.data:
            return b
        if not b.data:
            return a
        if a.schema != b.schema:
            raise RingError(
                f"cannot union relations over schemas {a.schema!r} and {b.schema!r}"
            )
        merged = dict(a.data)
        for key, annotation in b.data.items():
            total = merged.get(key, 0) + annotation
            if total == 0:
                merged.pop(key, None)
            else:
                merged[key] = total
        result = RelationValue.__new__(RelationValue)
        result.data = merged
        result.schema = a.schema if merged else None
        return result

    def add_inplace(self, a: RelationValue, b: RelationValue) -> RelationValue:
        # RelationValues handed out by add/mul are fresh objects, but the
        # shared _ZERO/_ONE singletons must never be mutated.
        if a is _ZERO or a is _ONE or not a.data:
            return self.add(a, b)
        if not b.data:
            return a
        if a.schema != b.schema:
            raise RingError(
                f"cannot union relations over schemas {a.schema!r} and {b.schema!r}"
            )
        data = a.data
        for key, annotation in b.data.items():
            total = data.get(key, 0) + annotation
            if total == 0:
                data.pop(key, None)
            else:
                data[key] = total
        if not data:
            a.schema = None
        return a

    def copy(self, a: RelationValue) -> RelationValue:
        result = RelationValue.__new__(RelationValue)
        result.data = dict(a.data)
        result.schema = a.schema
        return result

    def mul(self, a: RelationValue, b: RelationValue) -> RelationValue:
        if not a.data or not b.data:
            return _ZERO
        shared_a, shared_b, sources, result_schema = self._plan(a.schema, b.schema)
        result: Dict[Key, float] = {}
        if shared_a:
            # Hash join: index b on its shared positions, probe with a.
            index: Dict[Key, list] = {}
            for key_b, ann_b in b.data.items():
                hook = tuple(key_b[i] for i in shared_b)
                index.setdefault(hook, []).append((key_b, ann_b))
            for key_a, ann_a in a.data.items():
                hook = tuple(key_a[i] for i in shared_a)
                for key_b, ann_b in index.get(hook, ()):
                    key = tuple(
                        key_a[i] if from_a else key_b[i] for from_a, i in sources
                    )
                    total = result.get(key, 0) + ann_a * ann_b
                    if total == 0:
                        result.pop(key, None)
                    else:
                        result[key] = total
        else:
            # Cartesian product — the common case for cofactor slots, where
            # schemas are disjoint singletons.
            for key_a, ann_a in a.data.items():
                for key_b, ann_b in b.data.items():
                    key = tuple(
                        key_a[i] if from_a else key_b[i] for from_a, i in sources
                    )
                    total = result.get(key, 0) + ann_a * ann_b
                    if total == 0:
                        result.pop(key, None)
                    else:
                        result[key] = total
        value = RelationValue.__new__(RelationValue)
        value.data = result
        value.schema = result_schema if result else None
        return value

    def neg(self, a: RelationValue) -> RelationValue:
        if not a.data:
            return _ZERO
        result = RelationValue.__new__(RelationValue)
        result.data = {key: -annotation for key, annotation in a.data.items()}
        result.schema = a.schema
        return result

    def eq(self, a: RelationValue, b: RelationValue) -> bool:
        return a == b

    def close(self, a: RelationValue, b: RelationValue, tol: float = 1e-9) -> bool:
        """Tolerant comparison: annotations may carry float rounding."""
        if not a.data and not b.data:
            return True
        if a.schema != b.schema and a.data and b.data:
            return False
        for key in set(a.data) | set(b.data):
            left = a.data.get(key, 0)
            right = b.data.get(key, 0)
            scale = max(1.0, abs(left), abs(right))
            if abs(left - right) > tol * scale:
                return False
        return True

    def is_zero(self, a: RelationValue) -> bool:
        return not a.data

    def from_int(self, n: int) -> RelationValue:
        if n == 0:
            return _ZERO
        return RelationValue.scalar(n)

    def scale(self, a: RelationValue, n: int) -> RelationValue:
        if n == 0 or not a.data:
            return _ZERO
        result = RelationValue.__new__(RelationValue)
        result.data = {key: annotation * n for key, annotation in a.data.items()}
        result.schema = a.schema
        return result

    # ------------------------------------------------------------------

    def _plan(self, schema_a: Tuple[str, ...], schema_b: Tuple[str, ...]) -> tuple:
        """Cache the positional bookkeeping for joining two schemas.

        Output columns follow the canonical (sorted) order of the union;
        ``sources`` says, per output position, whether the value comes from
        operand a (preferred for shared attributes) or operand b.
        """
        cache_key = (schema_a, schema_b)
        plan = self._join_plans.get(cache_key)
        if plan is None:
            positions_a = {attr: i for i, attr in enumerate(schema_a)}
            positions_b = {attr: i for i, attr in enumerate(schema_b)}
            shared_a = tuple(
                positions_a[attr] for attr in schema_b if attr in positions_a
            )
            shared_b = tuple(
                i for i, attr in enumerate(schema_b) if attr in positions_a
            )
            result_schema = tuple(sorted(set(schema_a) | set(schema_b)))
            sources = tuple(
                (True, positions_a[attr])
                if attr in positions_a
                else (False, positions_b[attr])
                for attr in result_schema
            )
            plan = (shared_a, shared_b, sources, result_schema)
            self._join_plans[cache_key] = plan
        return plan


_ZERO = RelationValue()
_ONE = RelationValue.scalar(1)


class GeneralCofactorRing(Ring):
    """Degree-m cofactor ring whose entries come from any scalar ring.

    With :class:`RelationRing` as the scalar ring
    this is the paper's composition "degree-m matrix ring with relational
    values": continuous attributes store ``{() -> x}`` scalars, categorical
    attributes store ``{x -> 1}`` indicator relations, and the interaction
    entries come out as group-by aggregates (e.g. ``SUM(B) GROUP BY C``).
    """

    def __init__(self, scalar: Ring, layout: CofactorLayout):
        self.scalar = scalar
        self.layout = layout
        self.degree = layout.degree
        self.name = f"Cofactor<{self.degree}, {scalar.name}>"

    # -- helpers -------------------------------------------------------

    def _merge(self, into: Dict, source: Dict) -> None:
        """Accumulate ``source`` into ``into`` entry-wise (pure scalar adds)."""
        scalar = self.scalar
        for key, value in source.items():
            existing = into.get(key)
            total = value if existing is None else scalar.add(existing, value)
            if scalar.is_zero(total):
                into.pop(key, None)
            else:
                into[key] = total

    def _scaled(self, entries: Dict, factor: Any) -> Dict:
        """Entry-wise scalar multiplication by ``factor``, dropping zeros."""
        scalar = self.scalar
        if scalar.is_zero(factor):
            return {}
        result = {}
        for key, value in entries.items():
            product = scalar.mul(value, factor)
            if not scalar.is_zero(product):
                result[key] = product
        return result

    # -- ring interface --------------------------------------------------

    def zero(self) -> GeneralCofactor:
        return GeneralCofactor(self.scalar.zero(), {}, {})

    def one(self) -> GeneralCofactor:
        return GeneralCofactor(self.scalar.one(), {}, {})

    def add(self, a: GeneralCofactor, b: GeneralCofactor) -> GeneralCofactor:
        s = dict(a.s)
        self._merge(s, b.s)
        q = dict(a.q)
        self._merge(q, b.q)
        return GeneralCofactor(self.scalar.add(a.c, b.c), s, q)

    def add_inplace(self, a: GeneralCofactor, b: GeneralCofactor) -> GeneralCofactor:
        a.c = self.scalar.add(a.c, b.c)
        self._merge(a.s, b.s)
        self._merge(a.q, b.q)
        return a

    def copy(self, a: GeneralCofactor) -> GeneralCofactor:
        return GeneralCofactor(a.c, dict(a.s), dict(a.q))

    def mul(self, a: GeneralCofactor, b: GeneralCofactor) -> GeneralCofactor:
        scalar = self.scalar
        c = scalar.mul(a.c, b.c)
        s = self._scaled(a.s, b.c)
        self._merge(s, self._scaled(b.s, a.c))
        q = self._scaled(a.q, b.c)
        self._merge(q, self._scaled(b.q, a.c))
        # The symmetric cross term sa sb^T + sb sa^T, folded onto the upper
        # triangle: entry (i, j) with i < j receives sa_i*sb_j and sa_j*sb_i;
        # the diagonal receives 2 * sa_i*sb_i.
        for i, sa_i in a.s.items():
            for j, sb_j in b.s.items():
                term = scalar.mul(sa_i, sb_j)
                if scalar.is_zero(term):
                    continue
                if i == j:
                    term = scalar.add(term, term)
                    key = (i, i)
                else:
                    key = (i, j) if i < j else (j, i)
                existing = q.get(key)
                total = term if existing is None else scalar.add(existing, term)
                if scalar.is_zero(total):
                    q.pop(key, None)
                else:
                    q[key] = total
        return GeneralCofactor(c, s, q)

    def neg(self, a: GeneralCofactor) -> GeneralCofactor:
        scalar = self.scalar
        return GeneralCofactor(
            scalar.neg(a.c),
            {key: scalar.neg(value) for key, value in a.s.items()},
            {key: scalar.neg(value) for key, value in a.q.items()},
        )

    def scale(self, a: GeneralCofactor, n: int) -> GeneralCofactor:
        if n == 0:
            return self.zero()
        scalar = self.scalar
        return GeneralCofactor(
            scalar.scale(a.c, n),
            {key: scalar.scale(value, n) for key, value in a.s.items()},
            {key: scalar.scale(value, n) for key, value in a.q.items()},
        )

    def from_int(self, n: int) -> GeneralCofactor:
        return GeneralCofactor(self.scalar.from_int(n), {}, {})

    @property
    def has_float_scaling(self) -> bool:
        return self.scalar.has_float_scaling

    def scale_float(self, a: GeneralCofactor, factor: float) -> GeneralCofactor:
        # Delegates entry-wise; a scalar ring without float scaling
        # (e.g. the relational ring) raises its own descriptive error.
        scalar = self.scalar
        return GeneralCofactor(
            scalar.scale_float(a.c, factor),
            {key: scalar.scale_float(value, factor) for key, value in a.s.items()},
            {key: scalar.scale_float(value, factor) for key, value in a.q.items()},
        )

    def eq(self, a: GeneralCofactor, b: GeneralCofactor) -> bool:
        scalar = self.scalar
        if not scalar.eq(a.c, b.c):
            return False
        for left, right in ((a.s, b.s), (a.q, b.q)):
            keys = set(left) | set(right)
            for key in keys:
                lval = left.get(key)
                rval = right.get(key)
                if lval is None:
                    if not scalar.is_zero(rval):
                        return False
                elif rval is None:
                    if not scalar.is_zero(lval):
                        return False
                elif not scalar.eq(lval, rval):
                    return False
        return True

    def is_zero(self, a: GeneralCofactor) -> bool:
        if not self.scalar.is_zero(a.c):
            return False
        return all(self.scalar.is_zero(v) for v in a.s.values()) and all(
            self.scalar.is_zero(v) for v in a.q.values()
        )

    def close(self, a: GeneralCofactor, b: GeneralCofactor, tol: float = 1e-8) -> bool:
        """Tolerant comparison via the scalar ring's ``close`` (if any)."""
        scalar = self.scalar
        scalar_close = getattr(scalar, "close", None)
        if scalar_close is None:
            return self.eq(a, b)
        zero = scalar.zero()
        if not scalar_close(a.c, b.c, tol):
            return False
        for left, right in ((a.s, b.s), (a.q, b.q)):
            for key in set(left) | set(right):
                lval = left.get(key, zero)
                rval = right.get(key, zero)
                if not scalar_close(lval, rval, tol):
                    return False
        return True

    def lift(self, index: int, s_value: Any, q_value: Any) -> GeneralCofactor:
        """Attribute function g at slot ``index`` with pre-embedded entries.

        ``s_value``/``q_value`` are scalar-ring values: for a continuous
        attribute ``({() -> x}, {() -> x^2})``; for a categorical one
        ``({x -> 1}, {x -> 1})`` (see :mod:`repro.rings.lifting`).
        """
        return GeneralCofactor(self.scalar.one(), {index: s_value}, {(index, index): q_value})

    # -- accessors -------------------------------------------------------

    def entry(self, a: GeneralCofactor, i: int, j: int) -> Any:
        """Symmetric read of the quadratic entry (i, j)."""
        key = (i, j) if i <= j else (j, i)
        value = a.q.get(key)
        return self.scalar.zero() if value is None else value

    def linear(self, a: GeneralCofactor, i: int) -> Any:
        """Read of the linear entry i."""
        value = a.s.get(i)
        return self.scalar.zero() if value is None else value


def general_cofactor_lift(ring: GeneralCofactorRing, feature: Feature) -> LiftFunction:
    """Lift into the generalized cofactor ring over a numeric scalar ring
    (continuous features only): ``s = x``, ``Q = x^2`` — floats over
    :class:`FloatRing` (the ``general-float`` plan), exact integers over
    :class:`IntegerRing`."""
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


@dataclass(frozen=True)
class GeneralFloatCovarSpec(PayloadSpec):
    """COVAR over continuous features on ``GeneralCofactorRing(FloatRing())``:
    the numeric ring's aggregates, computed by an independent dict-based
    implementation."""

    features: Tuple[Feature, ...]

    def build(self) -> PayloadPlan:
        layout = CofactorLayout(tuple(feature.name for feature in self.features))
        ring = GeneralCofactorRing(FloatRing(), layout)
        lifts = {
            feature.name: general_cofactor_lift(ring, feature)
            for feature in self.features
        }
        return PayloadPlan(ring, lifts, layout, tuple(self.features))

    @property
    def lifted_attributes(self) -> Tuple[str, ...]:
        return tuple(feature.name for feature in self.features)


def general_dense(payload: GeneralCofactor, degree: int) -> Tuple[float, Any, Any]:
    """``(c, s, Q)`` of a payload over ``GeneralCofactorRing(FloatRing())``
    as a float and dense numpy arrays, ``Q`` symmetric — the numeric
    ring's form, for cross-checks against it."""
    s = np.zeros(degree)
    for i, value in payload.s.items():
        s[i] = value
    q = np.zeros((degree, degree))
    for (i, j), value in payload.q.items():
        q[i, j] = q[j, i] = value
    return float(payload.c), s, q


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
    """What ``MISpec`` / a categorical ``CovarSpec`` built before the
    sparse ring: every engine takes the per-tuple path over it."""

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
