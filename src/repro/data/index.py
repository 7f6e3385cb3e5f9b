"""Persistent hash indexes over relations (the view-index subsystem).

F-IVM's complexity claim — an update costs O(|delta| x matching sibling
entries) along one leaf-to-root path — needs the materialized sibling
views to be *permanently* indexed on the attributes the maintenance
triggers probe. :class:`RelationIndex` is that index: a hash map from a
projection of the key (the "hook") to the bucket of live entries sharing
it. :class:`IndexedRelation` is a :class:`~repro.data.relation.Relation`
that carries any number of such indexes and keeps them consistent through
:meth:`~repro.data.relation.Relation.add_inplace`, the only mutation the
engines perform on materialized views.

Buckets hold ``key -> payload`` entries, so a probe iterates matches
without touching the relation's main dict, and a delete that cancels the
last entry of a bucket removes the bucket itself — index memory tracks
live data exactly as view memory does. Views of bulk non-scalar rings
are kept in a :class:`~repro.data.store.SlotStore` instead, whose
indexes reuse :class:`RelationIndex` with row slots as the bucket values.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from repro.data.relation import Relation, _hook_getter, _positions
from repro.errors import DataError

__all__ = ["RelationIndex", "IndexedRelation"]

Key = Tuple


class RelationIndex:
    """Hash index from a key projection to the bucket of matching entries.

    Parameters
    ----------
    schema:
        The indexed relation's key schema.
    attrs:
        Attributes the index hashes on, a subset of ``schema``. The hook
        of a key is its projection onto ``attrs`` in this order (a bare
        scalar when unary, mirroring the join hot paths). ``attrs`` may
        be empty: every entry then lives in one bucket, which is how a
        sibling with no shared attributes (a cartesian step) is probed.
    """

    __slots__ = ("attrs", "positions", "hook_of", "buckets", "probes", "hits")

    def __init__(self, schema: Tuple[str, ...], attrs: Iterable[str]):
        self.attrs = tuple(attrs)
        if len(set(self.attrs)) != len(self.attrs):
            raise DataError(f"duplicate attribute in index attrs {self.attrs!r}")
        self.positions = _positions(tuple(schema), self.attrs)
        self.hook_of = _hook_getter(self.positions)
        self.buckets: Dict[Any, Dict[Key, Any]] = {}
        #: Probe-side counters (filled by ``Relation.join_probe``).
        self.probes = 0
        self.hits = 0

    # ------------------------------------------------------------------

    def build(self, data: Mapping[Key, Any]) -> "RelationIndex":
        """(Re)populate the index from a relation's live entries."""
        hook_of = self.hook_of
        buckets: Dict[Any, Dict[Key, Any]] = {}
        for key, payload in data.items():
            hook = hook_of(key)
            bucket = buckets.get(hook)
            if bucket is None:
                buckets[hook] = {key: payload}
            else:
                bucket[key] = payload
        self.buckets = buckets
        return self

    def set(self, key: Key, payload: Any) -> None:
        """Insert or refresh one live entry."""
        hook = self.hook_of(key)
        bucket = self.buckets.get(hook)
        if bucket is None:
            self.buckets[hook] = {key: payload}
        else:
            bucket[key] = payload

    def discard(self, key: Key) -> None:
        """Remove one entry; the bucket vanishes when it empties."""
        hook = self.hook_of(key)
        bucket = self.buckets.get(hook)
        if bucket is not None:
            bucket.pop(key, None)
            if not bucket:
                del self.buckets[hook]

    def get(self, hook: Any) -> Optional[Dict[Key, Any]]:
        """Bucket of entries whose keys project to ``hook`` (None if empty)."""
        return self.buckets.get(hook)

    def matches(self, hook: Any):
        """``(key, payload)`` pairs of the entries under ``hook`` (falsy
        when there are none) — what ``Relation.join_probe`` iterates."""
        bucket = self.buckets.get(hook)
        return bucket.items() if bucket else ()

    # ------------------------------------------------------------------

    def entry_count(self) -> int:
        """Live entries across all buckets (equals the relation's size)."""
        return sum(len(bucket) for bucket in self.buckets.values())

    def bucket_count(self) -> int:
        return len(self.buckets)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<RelationIndex on {self.attrs!r} "
            f"|{self.bucket_count()} buckets, {self.entry_count()} entries|>"
        )


class _IndexCarrier:
    """Lazy index bookkeeping shared by every long-lived view form.

    Expects ``indexes`` (built, maintained through every mutation),
    ``pending`` (registered attribute tuples not built yet), ``name``
    and ``_build_index(attrs)`` on the class mixing it in.
    """

    __slots__ = ()

    def register_index(self, attrs: Iterable[str]) -> None:
        """Declare that ``attrs`` may be probed, without building yet."""
        attrs = tuple(attrs)
        if attrs not in self.indexes:
            self.pending.add(attrs)

    def add_index(self, attrs: Iterable[str]) -> RelationIndex:
        """Create (or return the existing) index on ``attrs``, built now."""
        attrs = tuple(attrs)
        index = self.indexes.get(attrs)
        if index is None:
            index = self.indexes[attrs] = self._build_index(attrs)
            self.pending.discard(attrs)
        return index

    def ensure_index(self, attrs: Iterable[str]) -> RelationIndex:
        """The index on ``attrs``, materialized on first use.

        This is the probe-side entry point: registered-but-unbuilt
        indexes are built from the live entries here, and from then on
        maintained incrementally by every mutation.
        """
        return self.indexes.get(tuple(attrs)) or self.add_index(attrs)

    def index_on(self, attrs: Iterable[str]) -> RelationIndex:
        """The index on exactly ``attrs``; raises if it was never built."""
        try:
            return self.indexes[tuple(attrs)]
        except KeyError:
            raise DataError(
                f"no index on {tuple(attrs)!r} for relation {self.name!r} "
                f"(built {sorted(self.indexes)!r}, "
                f"pending {sorted(self.pending)!r})"
            ) from None


class IndexedRelation(_IndexCarrier, Relation):
    """A relation carrying persistent indexes kept consistent on mutation.

    The engines mutate materialized views exclusively through
    :meth:`add_inplace`; this subclass folds index maintenance into that
    call, so an indexed view costs one extra dict write per index per
    changed key — never a rebuild. ``copy``/``empty_like`` intentionally
    return plain (unindexed) relations: indexes belong to the long-lived
    materialization, not to transient deltas derived from it.

    Indexes materialize *lazily*: :meth:`register_index` only records
    that an attribute tuple may be probed, and :meth:`ensure_index`
    builds the hash map the first time a maintenance path actually
    probes it. A view that is updated but never probed (e.g. a leaf view
    whose sibling relation receives no updates) therefore pays no index
    maintenance at all — only *built* indexes are folded into
    :meth:`add_inplace`.
    """

    __slots__ = ("indexes", "pending")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Built (live) indexes, maintained through every mutation.
        self.indexes: Dict[Tuple[str, ...], RelationIndex] = {}
        #: Registered attribute tuples whose index is not built yet.
        self.pending: set = set()

    @classmethod
    def from_relation(cls, relation: Relation) -> "IndexedRelation":
        """Adopt ``relation``'s entries (shared dict, no copy) as indexed."""
        indexed = cls(relation.schema, relation.ring, name=relation.name)
        indexed.data = relation.data
        return indexed

    def _build_index(self, attrs: Tuple[str, ...]) -> RelationIndex:
        return RelationIndex(self.schema, attrs).build(self.data)

    def add_inplace(self, other: Relation) -> "IndexedRelation":
        """Union with payload addition, updating every index in the same pass."""
        indexes = tuple(self.indexes.values())
        if not indexes:
            super().add_inplace(other)
            return self
        self._check_compatible(other)
        # This branch bypasses Relation.add_inplace, so it must drop the
        # cached columnar form itself.
        self._columnar = None
        ring = self.ring
        data = self.data
        if ring.is_scalar:
            # Inlined index writes: one (hook_of, buckets) pair per index saves
            # a method call per index per changed key — index maintenance is
            # the dominant per-update cost of the indexed path at large batches.
            index_ops = tuple((index.hook_of, index.buckets) for index in indexes)
            for key, payload in other.data.items():
                existing = data.get(key)
                total = payload if existing is None else existing + payload
                if total:
                    data[key] = total
                    for hook_of, buckets in index_ops:
                        hook = hook_of(key)
                        bucket = buckets.get(hook)
                        if bucket is None:
                            buckets[hook] = {key: total}
                        else:
                            bucket[key] = total
                elif existing is not None:
                    del data[key]
                    for hook_of, buckets in index_ops:
                        hook = hook_of(key)
                        bucket = buckets.get(hook)
                        if bucket is not None:
                            bucket.pop(key, None)
                            if not bucket:
                                del buckets[hook]
            return self
        is_zero = ring.is_zero
        add = ring.add
        for key, payload in other.data.items():
            existing = data.get(key)
            if existing is None:
                # Mirror Relation.add_inplace: never park ring-zero payloads.
                if not is_zero(payload):
                    data[key] = payload
                    for index in indexes:
                        index.set(key, payload)
            else:
                total = add(existing, payload)
                if is_zero(total):
                    del data[key]
                    for index in indexes:
                        index.discard(key)
                else:
                    data[key] = total
                    for index in indexes:
                        index.set(key, total)
        return self
