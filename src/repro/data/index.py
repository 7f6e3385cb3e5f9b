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
live data exactly as view memory does.

Each built index can additionally carry a :class:`ColumnarMirror` — a
columnar snapshot of its buckets (key columns + one payload block +
per-hook slot ranges) used by the fused maintenance kernels
(:mod:`repro.engine.compile`) to gather sibling matches with
``ring.take`` instead of a per-match Python loop. Mirrors follow a
strict invalidate-on-write discipline: *every* mutation path (``build``,
``set``, ``discard``, and both inlined ``add_inplace`` variants) drops
the mirror, and it is rebuilt lazily on the next probe.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

import repro.data.relation as relation_module
from repro.data.columnar import column_array
from repro.data.relation import Relation, _hook_getter, _positions
from repro.errors import DataError

__all__ = ["ColumnarMirror", "RelationIndex", "IndexedRelation"]

Key = Tuple


class ColumnarMirror:
    """Columnar snapshot of one index: key columns + payload block + buckets.

    ``key_cols[p]`` is the indexed relation's ``p``-th key attribute as a
    column array over all live entries and ``block`` the matching payload
    block. Buckets are described positionally: bucket ``b`` occupies the
    contiguous slot range ``starts[b] : starts[b] + counts[b]`` and its
    hook value is ``tuple(col[b] for col in hook_cols)`` (one column per
    index attribute, so probes can match hooks numerically instead of
    hashing Python tuples). Entries appear in exactly the order
    ``bucket.items()`` yields them, so a fused probe that gathers a
    bucket's slots reproduces the per-tuple probe's emission order bit
    for bit. Payloads are *copied* into the block at build time; a
    mirror never aliases live view payloads, and any mutation of the
    owning index invalidates it wholesale.
    """

    __slots__ = ("block", "key_cols", "hook_cols", "starts", "counts", "match")

    def __init__(self, block, key_cols, hook_cols, starts, counts):
        self.block = block
        self.key_cols = key_cols
        self.hook_cols = hook_cols
        self.starts = starts
        self.counts = counts
        #: Lazily built hook-matching structure (owned by the fused
        #: probe); dies with the mirror on invalidation.
        self.match = None


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

    __slots__ = (
        "attrs", "positions", "hook_of", "buckets", "probes", "hits", "mirror",
    )

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
        #: Lazily built columnar snapshot; None whenever stale.
        self.mirror: Optional[ColumnarMirror] = None

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
        self.mirror = None
        return self

    def set(self, key: Key, payload: Any) -> None:
        """Insert or refresh one live entry."""
        self.mirror = None
        hook = self.hook_of(key)
        bucket = self.buckets.get(hook)
        if bucket is None:
            self.buckets[hook] = {key: payload}
        else:
            bucket[key] = payload

    def discard(self, key: Key) -> None:
        """Remove one entry; the bucket vanishes when it empties."""
        self.mirror = None
        hook = self.hook_of(key)
        bucket = self.buckets.get(hook)
        if bucket is not None:
            bucket.pop(key, None)
            if not bucket:
                del self.buckets[hook]

    def columnar_mirror(self, ring, arity: int) -> ColumnarMirror:
        """The columnar snapshot of this index, (re)built if stale.

        Buckets are walked in dict order and each bucket's entries laid
        out contiguously, so every hook's slot range is a single slice
        and slice order equals ``bucket.items()`` order — the property
        the fused probe's bit-equality argument rests on. ``arity`` is
        the indexed relation's key width (needed for the empty case).
        """
        mirror = self.mirror
        if mirror is None:
            buckets = self.buckets
            payloads: list = []
            keys: list = []
            starts = np.empty(len(buckets), dtype=np.intp)
            counts = np.empty(len(buckets), dtype=np.intp)
            for b, bucket in enumerate(buckets.values()):
                starts[b] = len(payloads)
                counts[b] = len(bucket)
                payloads.extend(bucket.values())
                keys.extend(bucket.keys())
            if keys:
                key_cols = tuple(
                    column_array(list(col)) for col in zip(*keys)
                )
            else:
                key_cols = tuple(column_array([]) for _ in range(arity))
            positions = self.positions
            if not positions:
                hook_cols: Tuple = ()
            elif len(positions) == 1:
                hook_cols = (column_array(list(buckets.keys())),)
            elif buckets:
                hook_cols = tuple(
                    column_array(list(col)) for col in zip(*buckets.keys())
                )
            else:
                hook_cols = tuple(column_array([]) for _ in positions)
            mirror = self.mirror = ColumnarMirror(
                ring.make_block(payloads), key_cols, hook_cols, starts, counts
            )
        return mirror

    def get(self, hook: Any) -> Optional[Dict[Key, Any]]:
        """Bucket of entries whose keys project to ``hook`` (None if empty)."""
        return self.buckets.get(hook)

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


class IndexedRelation(Relation):
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

    # ------------------------------------------------------------------

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
            index = RelationIndex(self.schema, attrs).build(self.data)
            self.indexes[attrs] = index
            self.pending.discard(attrs)
        return index

    def ensure_index(self, attrs: Iterable[str]) -> RelationIndex:
        """The index on ``attrs``, materialized on first use.

        This is the probe-side entry point: registered-but-unbuilt
        indexes are built from the live entries here, and from then on
        maintained incrementally by :meth:`add_inplace`.
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

    # ------------------------------------------------------------------

    def add_inplace(self, other: Relation) -> "IndexedRelation":
        """Union with payload addition, updating every index in the same pass."""
        indexes = tuple(self.indexes.values())
        if not indexes:
            super().add_inplace(other)
            return self
        self._check_compatible(other)
        # Regression guard: this branch bypasses Relation.add_inplace, so it
        # must drop the cached columnar form and every index mirror itself —
        # a stale mirror served to a fused probe would echo pre-update state.
        self._columnar = None
        for index in indexes:
            index.mirror = None
        ring = self.ring
        data = self.data
        # Inlined index writes: one (hook_of, buckets) pair per index saves
        # a method call per index per changed key — index maintenance is
        # the dominant per-update cost of the indexed path at large batches.
        index_ops = tuple((index.hook_of, index.buckets) for index in indexes)
        if relation_module.SCALAR_FASTPATH and ring.is_scalar:
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

    def add_block_inplace(self, keys, block) -> "IndexedRelation":
        """Columnar scatter with index maintenance in the same pass."""
        indexes = tuple(self.indexes.values())
        if not indexes:
            super().add_block_inplace(keys, block)
            return self
        self._columnar = None
        for index in indexes:
            index.mirror = None
        ring = self.ring
        data = self.data
        index_ops = tuple((index.hook_of, index.buckets) for index in indexes)
        scalar = relation_module.SCALAR_FASTPATH and ring.is_scalar
        if not scalar and ring.has_bulk_kernels:
            if not isinstance(keys, list):
                keys = list(keys)
            # Same duplicate-key guard as Relation.add_block_inplace: the
            # two-phase merge resolves every key once.
            if len(set(keys)) == len(keys):
                return self._merge_block(keys, block, index_ops)
        add = ring.add
        is_zero = ring.is_zero
        for key, payload in zip(keys, ring.block_payloads(block)):
            existing = data.get(key)
            if existing is None:
                if scalar:
                    if not payload:
                        continue
                    total = payload
                elif is_zero(payload):
                    continue
                else:
                    total = payload
            else:
                total = existing + payload if scalar else add(existing, payload)
                if (not total) if scalar else is_zero(total):
                    del data[key]
                    for hook_of, buckets in index_ops:
                        hook = hook_of(key)
                        bucket = buckets.get(hook)
                        if bucket is not None:
                            bucket.pop(key, None)
                            if not bucket:
                                del buckets[hook]
                    continue
            data[key] = total
            for hook_of, buckets in index_ops:
                hook = hook_of(key)
                bucket = buckets.get(hook)
                if bucket is None:
                    buckets[hook] = {key: total}
                else:
                    bucket[key] = total
        return self
