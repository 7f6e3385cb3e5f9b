"""Keyed relations with ring payloads and the operations F-IVM needs.

A :class:`Relation` maps key tuples (over a fixed attribute schema) to
payloads from a ring — the paper's generalized relations. Base relations
carry integer multiplicities (the Z ring); views carry whatever ring the
application selected. The three operations the view-tree engine is built
from are:

- :meth:`Relation.join` — natural join, multiplying payloads;
- :meth:`Relation.marginalize` — group-by that sums payloads, optionally
  multiplying in a lifting function of the marginalized attribute(s);
- :meth:`Relation.lift` — the leaf step that converts Z multiplicities into
  the application ring while aggregating away non-key attributes.

All operations prune zero payloads, so a delete that cancels an insert
physically removes the key, and view sizes track live data.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
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

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.data.index import RelationIndex

__all__ = ["Relation"]

Key = Tuple


# Every join, probe, marginalize and lift resolves attribute positions and
# key extractors, always for one of the few (schema, attrs) pairs the view
# tree defines; results are immutable and stateless, so they are shared.
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


@_memo
def _probe_shape(schema_a: Tuple[str, ...], schema_b: Tuple[str, ...], attrs: Tuple[str, ...]):
    """``(result schema, hook extractor for a-keys, b-key suffix extractor)``
    of ``a.join_probe(b, index on attrs)`` — one lookup per probe."""
    shared = tuple(attr for attr in schema_b if attr in schema_a)
    if set(attrs) != set(shared):
        raise DataError(
            f"index on {attrs!r} does not match the shared "
            f"attributes {shared!r} of {schema_a!r} and {schema_b!r}"
        )
    keep_b = tuple(i for i, attr in enumerate(schema_b) if attr not in schema_a)
    # Hook order must match the index's: extract ``attrs``, not ``shared``.
    return (
        schema_a + tuple(schema_b[i] for i in keep_b),
        _hook_getter(_positions(schema_a, attrs)),
        _key_getter(keep_b),
    )


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

    @classmethod
    def from_columns(
        cls,
        schema: Tuple[str, ...],
        columns: Tuple[Iterable, ...],
        counts: Iterable[int],
        name: str = "",
    ) -> "Relation":
        """Build a Z-delta from key columns plus a multiplicity column.

        The inverse of :meth:`columnar`: duplicate keys sum-merge and
        zero multiplicities drop, and the columnar form stays attached so
        a later :meth:`columnar` call is free.
        """
        return ColumnarDelta(tuple(schema), counts, columns=tuple(columns), name=name).to_relation()

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
        self._columnar = None
        ring = self.ring
        data = self.data
        if ring.is_scalar:
            # Numeric payloads: plain +, truthiness as the zero test.
            for key, payload in other.data.items():
                existing = data.get(key)
                total = payload if existing is None else existing + payload
                if total:
                    data[key] = total
                elif existing is not None:
                    del data[key]
            return self
        for key, payload in other.data.items():
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
        return self

    def neg(self) -> "Relation":
        """Payload-wise additive inverse (encodes deletes)."""
        ring = self.ring
        result = self.empty_like()
        result.data = {key: ring.neg(payload) for key, payload in self.data.items()}
        return result

    def scale(self, n: int) -> "Relation":
        """Multiply every payload by the integer ``n``."""
        if n == 0:
            return self.empty_like()
        ring = self.ring
        result = self.empty_like()
        result.data = {key: ring.scale(payload, n) for key, payload in self.data.items()}
        return result

    def filter(self, predicate: Callable[[Key], bool]) -> "Relation":
        """Keep keys satisfying ``predicate`` (selection)."""
        result = self.empty_like()
        result.data = {
            key: payload for key, payload in self.data.items() if predicate(key)
        }
        return result

    # ------------------------------------------------------------------
    # Join
    # ------------------------------------------------------------------

    def join(self, other: "Relation") -> "Relation":
        """Natural join on shared attributes; payloads multiply in the ring.

        The result schema is this relation's schema followed by the other's
        non-shared attributes. The smaller side is indexed and the larger
        side probes, so cost is O(|smaller| + |larger| + |output|).
        """
        if self.ring is not other.ring and type(self.ring) is not type(other.ring):
            raise DataError(
                f"cannot join relations over rings {self.ring.name!r} and {other.ring.name!r}"
            )
        ring = self.ring
        schema_a, schema_b = self.schema, other.schema
        shared = tuple(attr for attr in schema_b if attr in schema_a)
        keep_b = tuple(i for i, attr in enumerate(schema_b) if attr not in schema_a)
        result_schema = schema_a + tuple(schema_b[i] for i in keep_b)
        result = Relation(result_schema, ring)
        out = result.data
        if not self.data or not other.data:
            return result
        pos_a = _positions(schema_a, shared)
        pos_b = _positions(schema_b, shared)
        if ring.is_scalar:
            # Tight loops for numeric payloads: native * and +, truthiness
            # as the zero test, compiled key extractors, no ring dispatch
            # per output tuple. Same index-the-smaller-side strategy as
            # the generic path below.
            hook_of_a = _hook_getter(pos_a)
            hook_of_b = _hook_getter(pos_b)
            rest_of_b = _key_getter(keep_b)
            out_get = out.get
            index: Dict[Key, list] = {}
            if len(self.data) <= len(other.data):
                for key_a, payload_a in self.data.items():
                    index.setdefault(hook_of_a(key_a), []).append((key_a, payload_a))
                for key_b, payload_b in other.data.items():
                    matches = index.get(hook_of_b(key_b))
                    if matches is None:
                        continue
                    rest_b = rest_of_b(key_b)
                    for key_a, payload_a in matches:
                        key = key_a + rest_b
                        existing = out_get(key)
                        total = (
                            payload_a * payload_b
                            if existing is None
                            else existing + payload_a * payload_b
                        )
                        if total:
                            out[key] = total
                        elif existing is not None:
                            del out[key]
            else:
                for key_b, payload_b in other.data.items():
                    index.setdefault(hook_of_b(key_b), []).append(
                        (rest_of_b(key_b), payload_b)
                    )
                for key_a, payload_a in self.data.items():
                    matches = index.get(hook_of_a(key_a))
                    if matches is None:
                        continue
                    for rest_b, payload_b in matches:
                        key = key_a + rest_b
                        existing = out_get(key)
                        total = (
                            payload_a * payload_b
                            if existing is None
                            else existing + payload_a * payload_b
                        )
                        if total:
                            out[key] = total
                        elif existing is not None:
                            del out[key]
            return result
        # Index the smaller input on the shared attributes; probe the larger.
        if len(self.data) <= len(other.data):
            index: Dict[Key, list] = {}
            for key_a, payload_a in self.data.items():
                hook = tuple(key_a[i] for i in pos_a)
                index.setdefault(hook, []).append((key_a, payload_a))
            for key_b, payload_b in other.data.items():
                hook = tuple(key_b[i] for i in pos_b)
                matches = index.get(hook)
                if not matches:
                    continue
                rest_b = tuple(key_b[i] for i in keep_b)
                for key_a, payload_a in matches:
                    key = key_a + rest_b
                    product = ring.mul(payload_a, payload_b)
                    existing = out.get(key)
                    total = product if existing is None else ring.add(existing, product)
                    if ring.is_zero(total):
                        out.pop(key, None)
                    else:
                        out[key] = total
        else:
            index = {}
            for key_b, payload_b in other.data.items():
                hook = tuple(key_b[i] for i in pos_b)
                index.setdefault(hook, []).append(
                    (tuple(key_b[i] for i in keep_b), payload_b)
                )
            for key_a, payload_a in self.data.items():
                hook = tuple(key_a[i] for i in pos_a)
                for rest_b, payload_b in index.get(hook, ()):
                    key = key_a + rest_b
                    product = ring.mul(payload_a, payload_b)
                    existing = out.get(key)
                    total = product if existing is None else ring.add(existing, product)
                    if ring.is_zero(total):
                        out.pop(key, None)
                    else:
                        out[key] = total
        return result

    def join_probe(self, other: "Relation", index: "RelationIndex") -> "Relation":
        """Natural join driven by ``other``'s persistent index.

        Semantically identical to ``self.join(other)`` — same result
        schema and payloads — but instead of building a hash index per
        call and scanning the larger side, it loops over ``self`` (meant
        to be a small delta) and probes ``index``, a
        :class:`~repro.data.index.RelationIndex` kept on ``other``'s
        shared attributes. Cost is O(|self| x matches), independent of
        |other|, which is the access path F-IVM's per-update complexity
        claim assumes. ``index.probes``/``index.hits`` are advanced so
        engines can report probe statistics.
        """
        if self.ring is not other.ring and type(self.ring) is not type(other.ring):
            raise DataError(
                f"cannot join relations over rings {self.ring.name!r} and {other.ring.name!r}"
            )
        ring = self.ring
        schema, hook_of_a, rest_of_b = _probe_shape(self.schema, other.schema, index.attrs)
        result = Relation(schema, ring)
        if not self.data or not len(other):
            return result
        out = result.data
        matches = index.matches
        probes = hits = 0
        if ring.is_scalar:
            out_get = out.get
            for key_a, payload_a in self.data.items():
                probes += 1
                bucket = matches(hook_of_a(key_a))
                if not bucket:
                    continue
                hits += 1
                for key_b, payload_b in bucket:
                    key = key_a + rest_of_b(key_b)
                    existing = out_get(key)
                    total = (
                        payload_a * payload_b
                        if existing is None
                        else existing + payload_a * payload_b
                    )
                    if total:
                        out[key] = total
                    elif existing is not None:
                        del out[key]
        else:
            mul = ring.mul
            add = ring.add
            is_zero = ring.is_zero
            for key_a, payload_a in self.data.items():
                probes += 1
                bucket = matches(hook_of_a(key_a))
                if not bucket:
                    continue
                hits += 1
                for key_b, payload_b in bucket:
                    key = key_a + rest_of_b(key_b)
                    product = mul(payload_a, payload_b)
                    existing = out.get(key)
                    total = product if existing is None else add(existing, product)
                    if is_zero(total):
                        out.pop(key, None)
                    else:
                        out[key] = total
        index.probes += probes
        index.hits += hits
        return result

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def marginalize(
        self,
        keep: Tuple[str, ...],
        lifts: Optional[Mapping[str, Callable[[Any], Any]]] = None,
    ) -> "Relation":
        """Group by ``keep``; payloads of each group sum in the ring.

        ``lifts`` maps *marginalized* attributes to their lifting functions
        g_X; each row's payload is multiplied by the product of its lifted
        values before summation. Attributes in ``keep`` must not be lifted
        (their lift applies when they are marginalized higher in the tree).
        """
        ring = self.ring
        keep = tuple(keep)
        keep_pos = _positions(self.schema, keep)
        lift_items: Tuple[Tuple[int, Callable], ...] = ()
        if lifts:
            for attr in lifts:
                if attr in keep:
                    raise SchemaError(
                        f"cannot lift attribute {attr!r}: it is kept as a key"
                    )
            lift_items = tuple(
                (self.schema.index(attr), fn) for attr, fn in lifts.items()
            )
        result = Relation(keep, ring)
        out = result.data
        if ring.is_scalar:
            group_of = _key_getter(keep_pos)
            out_get = out.get
            if lift_items:
                for key, payload in self.data.items():
                    for position, lift_fn in lift_items:
                        payload = payload * lift_fn(key[position])
                    group = group_of(key)
                    existing = out_get(group)
                    out[group] = payload if existing is None else existing + payload
            else:
                for key, payload in self.data.items():
                    group = group_of(key)
                    existing = out_get(group)
                    out[group] = payload if existing is None else existing + payload
            zero_keys = [key for key, payload in out.items() if not payload]
            for key in zero_keys:
                del out[key]
            return result
        add_inplace = ring.add_inplace
        copy = ring.copy
        mul = ring.mul
        for key, payload in self.data.items():
            for position, lift_fn in lift_items:
                payload = mul(payload, lift_fn(key[position]))
            group = tuple(key[i] for i in keep_pos)
            existing = out.get(group)
            if existing is None:
                out[group] = copy(payload)
            else:
                out[group] = add_inplace(existing, payload)
        if lift_items or ring.has_negation:
            # Lifted/negative payloads can cancel within a group.
            is_zero = ring.is_zero
            zero_keys = [key for key, payload in out.items() if is_zero(payload)]
            for key in zero_keys:
                del out[key]
        return result

    def lift(
        self,
        ring: Ring,
        keep: Tuple[str, ...],
        lifts: Optional[Mapping[str, Callable[[Any], Any]]] = None,
    ) -> "Relation":
        """Leaf view step: convert Z multiplicities into ``ring`` payloads.

        Groups by ``keep``; each row contributes the product of its lifted
        attribute values (ring one when ``lifts`` is empty), scaled by the
        row's integer multiplicity. This is how base-relation deltas — with
        positive and negative multiplicities — enter payload space.
        """
        if self.ring is not Z and not isinstance(self.ring, type(Z)):
            raise DataError("lift applies to Z-payload (base) relations")
        keep = tuple(keep)
        keep_pos = _positions(self.schema, keep)
        lift_items: Tuple[Tuple[int, Callable], ...] = ()
        if lifts:
            lift_items = tuple(
                (self.schema.index(attr), fn) for attr, fn in lifts.items()
            )
        result = Relation(keep, ring)
        out = result.data
        one = ring.one()
        if ring.is_scalar:
            group_of = _key_getter(keep_pos)
            out_get = out.get
            for key, multiplicity in self.data.items():
                payload = one
                for position, lift_fn in lift_items:
                    payload = payload * lift_fn(key[position])
                payload = payload * multiplicity
                group = group_of(key)
                existing = out_get(group)
                out[group] = payload if existing is None else existing + payload
            zero_keys = [key for key, payload in out.items() if not payload]
            for key in zero_keys:
                del out[key]
            return result
        mul = ring.mul
        scale = ring.scale
        add_inplace = ring.add_inplace
        copy = ring.copy
        for key, multiplicity in self.data.items():
            payload = one
            for position, lift_fn in lift_items:
                payload = mul(payload, lift_fn(key[position]))
            payload = scale(payload, multiplicity)
            group = tuple(key[i] for i in keep_pos)
            existing = out.get(group)
            if existing is None:
                out[group] = copy(payload)
            else:
                out[group] = add_inplace(existing, payload)
        is_zero = ring.is_zero
        zero_keys = [key for key, payload in out.items() if is_zero(payload)]
        for key in zero_keys:
            del out[key]
        return result

    def project(self, keep: Tuple[str, ...]) -> "Relation":
        """Projection with payload summation (marginalize without lifts)."""
        return self.marginalize(keep)

    def total(self) -> Any:
        """Sum of all payloads — the full aggregate over the relation."""
        return self.ring.sum(
            self.ring.copy(payload) for payload in self.data.values()
        )

    # ------------------------------------------------------------------

    def _check_compatible(self, other: "Relation") -> None:
        if self.schema != other.schema:
            raise SchemaError(
                f"schema mismatch: {self.schema!r} vs {other.schema!r}"
            )
