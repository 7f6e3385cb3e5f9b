"""Persistent hash indexes over views (the view-index subsystem).

F-IVM's complexity claim — an update costs O(|delta| x matching sibling
entries) along one leaf-to-root path — needs the materialized sibling
views to be *permanently* indexed on the attributes the maintenance
triggers probe. :class:`RelationIndex` is that index, from the projection
of a key (the "hook") to the live keys sharing it. A delta mostly
carries a sibling's whole key, in key order: such a *whole-key* index
is the view's own key map (``Relation.data``, ``SlotStore.slots``) and
keeps nothing of its own. Only a *partial* index — some of the key
attributes, as when a dimension update probes its fact leaf or a free
variable sits above a bound one — keeps buckets, ``hook -> keys`` in
the order they arrived, and a bucket that empties goes.
Buckets hold keys, never payloads: a payload update touches no index, a
key insert or delete adds or removes its key in every partial index.

:class:`IndexedRelation` is a :class:`~repro.data.relation.Relation`
carrying any number of such indexes, for dict views; a view of a bulk
ring is a :class:`~repro.data.store.SlotStore`, whose
:class:`~repro.data.store.StoreIndex` adds the columnar probe arrays.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from repro.data.relation import Relation, _hook_getter, _positions
from repro.errors import DataError

__all__ = ["RelationIndex", "IndexedRelation"]

Key = Tuple


class RelationIndex:
    """Hash index of one view on a projection of its key.

    Parameters
    ----------
    view:
        The indexed view (an :class:`IndexedRelation` or a slot store).
    attrs:
        Attributes the index hashes on, a subset of the view's schema.
        The hook of a key is its projection onto ``attrs`` in this order
        (a bare scalar when unary, mirroring the join hot paths). When
        ``attrs`` is the view's whole (non-empty) key in key order the
        index is ``whole`` and answers from the view's key map;
        otherwise ``buckets`` maps each hook to its keys. ``attrs`` may
        be empty: every key then lives in one bucket, which is how a
        sibling with no shared attributes (a cartesian step) is probed.
    """

    __slots__ = ("view", "attrs", "positions", "hook_of", "whole", "buckets")

    def __init__(self, view, attrs: Iterable[str]):
        self.view = view
        self.attrs = tuple(attrs)
        if len(set(self.attrs)) != len(self.attrs):
            raise DataError(f"duplicate attribute in index attrs {self.attrs!r}")
        self.positions = _positions(view.schema, self.attrs)
        self.hook_of = _hook_getter(self.positions)
        self.whole = bool(view.schema) and self.attrs == view.schema
        #: ``hook -> {key: None}`` of a partial index, None when whole.
        self.buckets: Optional[Dict[Any, Dict[Key, None]]] = None
        if not self.whole:
            self.buckets = {}
            for key in self.key_map():
                self.add(key)

    def key_map(self) -> Mapping[Key, Any]:
        """The view's own map from its live keys."""
        return self.view.data

    # ------------------------------------------------------------------

    def add(self, key: Key) -> None:
        """Put a newly live key at the end of its bucket (partial only)."""
        hook = self.hook_of(key)
        bucket = self.buckets.get(hook)
        if bucket is None:
            self.buckets[hook] = {key: None}
        else:
            bucket[key] = None

    def discard(self, key: Key) -> None:
        """Remove a key (partial only); the bucket vanishes when it empties."""
        hook = self.hook_of(key)
        bucket = self.buckets.get(hook)
        if bucket is not None:
            bucket.pop(key, None)
            if not bucket:
                del self.buckets[hook]

    def keys(self, hook: Any) -> Tuple[Key, ...]:
        """The live keys whose projection is ``hook``, in bucket order."""
        if self.whole:
            key = hook if len(self.positions) > 1 else (hook,)
            return (key,) if key in self.key_map() else ()
        bucket = self.buckets.get(hook)
        return tuple(bucket) if bucket else ()

    def matches(self, hook: Any):
        """``(key, payload)`` pairs of the entries under ``hook`` (falsy
        when there are none) — what row mode's partial probe iterates."""
        data = self.view.data
        return [(key, data[key]) for key in self.keys(hook)]

    # ------------------------------------------------------------------

    def entry_count(self) -> int:
        """Keys across all buckets (equals the view's size)."""
        if self.whole:
            return len(self.view)
        return sum(len(bucket) for bucket in self.buckets.values())

    def bucket_count(self) -> int:
        """Distinct hooks: one per key when whole."""
        return len(self.view) if self.whole else len(self.buckets)

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
    :meth:`add_inplace` (``_add_rows``); here that is
    ``Relation._add_rows`` plus, when a partial index is built, one
    bucket write per partial index per key inserted or deleted.
    ``copy``/``empty_like`` intentionally return plain (unindexed)
    relations: indexes belong to the long-lived materialization, not to
    transient deltas derived from it.

    Indexes materialize *lazily*: :meth:`register_index` only records
    that an attribute tuple may be probed, and :meth:`ensure_index`
    builds the index the first time a maintenance path actually probes
    it.
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
        return RelationIndex(self, attrs)

    def _add_rows(self, rows: Mapping[Key, Any]) -> int:
        """:meth:`add_inplace`'s union, then the keys it inserted or
        deleted, in row order, into or out of every partial index."""
        partial = [index for index in self.indexes.values() if not index.whole]
        if not partial:
            return super()._add_rows(rows)
        data = self.data
        was = [key in data for key in rows]
        super()._add_rows(rows)
        for key, old in zip(rows, was):
            if old != (key in data):
                for index in partial:
                    if old:
                        index.discard(key)
                    else:
                        index.add(key)
        return 0
