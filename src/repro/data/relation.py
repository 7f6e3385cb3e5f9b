"""Keyed relations with ring payloads.

A :class:`Relation` maps key tuples (over a fixed attribute schema) to
payloads from a ring — the paper's generalized relations. Base relations
and their deltas carry integer multiplicities (the Z ring); dict views
carry whatever ring the application selected. A relation is a container:
its union (:meth:`Relation.add_inplace`) and negation are all it
computes. Joins, lifts and group-sums happen inside each relation's
compiled maintenance program (:mod:`repro.engine.compile`), which adds
into dict views through :meth:`Relation._add_rows`.

Additions prune zero payloads, so a delete that cancels an insert
physically removes the key, and view sizes track live data.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Mapping,
    Optional,
    Tuple,
)

from repro.data.columnar import ColumnarDelta
from repro.errors import DataError, SchemaError
from repro.rings.base import Ring
from repro.rings.scalar import Z

__all__ = ["Relation"]

Key = Tuple


# The compiled programs resolve attribute positions and key extractors,
# always for one of the few (schema, attrs) pairs the view tree defines;
# results are immutable and stateless, so they are shared.
_memo = lru_cache(maxsize=1024)


@_memo
def _positions(schema: Tuple[str, ...], attrs: Tuple[str, ...]) -> Tuple[int, ...]:
    index = {attr: i for i, attr in enumerate(schema)}
    try:
        return tuple(index[attr] for attr in attrs)
    except KeyError as exc:
        raise SchemaError(f"attribute {exc.args[0]!r} not in schema {schema!r}") from None


_EMPTY = ()


@_memo
def _hook_getter(positions: Tuple[int, ...]) -> Callable[[Key], Any]:
    """Compiled extractor for internal hash keys (scalar when unary)."""
    if not positions:
        return lambda key: _EMPTY
    return itemgetter(*positions)


@_memo
def _key_getter(positions: Tuple[int, ...]) -> Callable[[Key], Tuple]:
    """Compiled extractor that always yields a tuple (for result keys)."""
    if not positions:
        return lambda key: _EMPTY
    if len(positions) == 1:
        position = positions[0]
        return lambda key: (key[position],)
    return itemgetter(*positions)


class Relation:
    """A finite map from key tuples to ring payloads.

    Parameters
    ----------
    schema:
        Ordered attribute names of the key.
    ring:
        The payload ring; defaults to Z (integer multiplicities).
    data:
        Initial ``key -> payload`` entries; zero payloads are dropped.
    name:
        Optional name (base relations carry their schema name).
    """

    __slots__ = ("schema", "ring", "data", "name", "_columnar")

    def __init__(
        self,
        schema: Tuple[str, ...],
        ring: Ring = Z,
        data: Optional[Mapping[Key, Any]] = None,
        name: str = "",
    ):
        if len(set(schema)) != len(schema):
            raise SchemaError(f"duplicate attribute in schema {schema!r}")
        self.schema = tuple(schema)
        self.ring = ring
        self.name = name
        self._columnar = None
        self.data: Dict[Key, Any] = {}
        if data:
            arity = len(self.schema)
            for key, payload in data.items():
                if not isinstance(key, tuple) or len(key) != arity:
                    raise DataError(
                        f"key {key!r} does not match schema {self.schema!r}"
                    )
                if not ring.is_zero(payload):
                    self.data[key] = payload

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_tuples(
        cls,
        schema: Tuple[str, ...],
        tuples: Iterable[Tuple],
        name: str = "",
    ) -> "Relation":
        """Build a Z-relation counting multiplicities of ``tuples``."""
        relation = cls(schema, Z, name=name)
        data = relation.data
        for row in tuples:
            row = tuple(row)
            if len(row) != len(relation.schema):
                raise DataError(f"row {row!r} does not match schema {schema!r}")
            data[row] = data.get(row, 0) + 1
        return relation

    def columnar(self) -> "ColumnarDelta":
        """Columnar (struct-of-arrays) form of this Z-delta, built once.

        Cached until the relation is mutated through :meth:`add_inplace`;
        callers that assign ``data`` directly own the invalidation.
        """
        cached = self._columnar
        if cached is None:
            cached = self._columnar = ColumnarDelta.from_relation(self)
        return cached

    def empty_like(self) -> "Relation":
        """Fresh empty relation with the same schema/ring."""
        return Relation(self.schema, self.ring, name=self.name)

    def copy(self) -> "Relation":
        """Shallow copy (payloads are shared; use ring.copy before mutating)."""
        clone = Relation(self.schema, self.ring, name=self.name)
        clone.data = dict(self.data)
        clone._columnar = self._columnar
        return clone

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    def payload(self, key: Key) -> Any:
        """Payload of ``key`` (ring zero when absent)."""
        value = self.data.get(key)
        return self.ring.zero() if value is None else value

    def __len__(self) -> int:
        return len(self.data)

    def __contains__(self, key: Key) -> bool:
        return key in self.data

    def items(self):
        return self.data.items()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if self.schema != other.schema or len(self.data) != len(other.data):
            return False
        eq = self.ring.eq
        for key, payload in self.data.items():
            theirs = other.data.get(key)
            if theirs is None or not eq(payload, theirs):
                return False
        return True

    def close_to(self, other: "Relation", tol: float = 1e-8) -> bool:
        """Tolerant equality using the ring's ``close`` when available."""
        close = getattr(self.ring, "close", None)
        if close is None:
            return self == other
        if self.schema != other.schema:
            return False
        for key in set(self.data) | set(other.data):
            mine = self.data.get(key, self.ring.zero())
            theirs = other.data.get(key, self.ring.zero())
            if not close(mine, theirs, tol):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or "Relation"
        return f"<{label}({', '.join(self.schema)}) ring={self.ring.name} |{len(self.data)}|>"

    # ------------------------------------------------------------------
    # Union / difference
    # ------------------------------------------------------------------

    def add(self, other: "Relation") -> "Relation":
        """Union with payload addition (pure)."""
        self._check_compatible(other)
        result = self.copy()
        return result.add_inplace(other)

    def add_inplace(self, other: "Relation") -> "Relation":
        """Union with payload addition, mutating ``self``.

        Payloads already present are *not* mutated in place — the ring's
        pure ``add`` runs — so sharing payload objects across relations
        stays safe.
        """
        self._check_compatible(other)
        self._add_rows(other.data)
        return self

    def _add_rows(self, rows: Mapping[Key, Any]) -> int:
        """:meth:`add_inplace` of a ``key -> payload`` mapping — the call
        the compiled row mode adds through into every view form. Returns
        0: a dict view caches no probe arrays to drop (see
        ``SlotStore.add_inplace``)."""
        self._columnar = None
        ring = self.ring
        data = self.data
        if ring.is_scalar:
            # Numeric payloads: plain +, truthiness as the zero test.
            if not data:  # an empty view (a load) takes the rows whole
                data.update(rows)
                for key in [key for key, payload in rows.items() if not payload]:
                    del data[key]
                return 0
            for key, payload in rows.items():
                existing = data.get(key)
                total = payload if existing is None else existing + payload
                if total:
                    data[key] = total
                elif existing is not None:
                    del data[key]
            return 0
        for key, payload in rows.items():
            existing = data.get(key)
            if existing is None:
                # Skip ring-zero payloads so cancelled batches never park
                # dead entries (long streams would otherwise leak them).
                if not ring.is_zero(payload):
                    data[key] = payload
            else:
                total = ring.add(existing, payload)
                if ring.is_zero(total):
                    del data[key]
                else:
                    data[key] = total
        return 0

    def neg(self) -> "Relation":
        """Payload-wise additive inverse (encodes deletes)."""
        ring = self.ring
        result = self.empty_like()
        result.data = {key: ring.neg(payload) for key, payload in self.data.items()}
        return result

    # ------------------------------------------------------------------

    def _check_compatible(self, other: "Relation") -> None:
        if self.schema != other.schema:
            raise SchemaError(
                f"schema mismatch: {self.schema!r} vs {other.schema!r}"
            )
