"""Slot stores: a bulk-ring view kept as one ring block, not as objects.

A materialized view whose ring has bulk kernels and is not scalar
(numeric COVAR, :class:`~repro.rings.decay.DecayRing` over a bulk ring)
is a :class:`SlotStore`: an insertion-ordered ``key -> slot`` dict — its
order *is* the view order, so every downstream float sum associates as
it would over a dict relation — plus one growing payload block whose row
``slot`` holds the key's payload, and a free list of the rows exact-zero
deletes gave back. Both modes of the compiled maintenance program read
and write these rows: columnar mode scatters with
:meth:`SlotStore.add_block` and gathers probe matches with
``ring.take(store.block, slots)``; row mode adds small deltas with
:meth:`SlotStore.add_inplace` and joins against row views handed out by
:meth:`StoreIndex.matches`. There is no second copy of a payload to keep
coherent.

Who may alias what: row views from ``matches`` alias the block and are
for immediate use inside one join; everything the read API returns
(:attr:`SlotStore.data`, :meth:`~SlotStore.payload`,
:meth:`~SlotStore.copy`) is a copy that later maintenance cannot touch.
"""

from __future__ import annotations

from itertools import repeat
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.data.columnar import column_array
from repro.data.index import RelationIndex, _IndexCarrier
from repro.data.relation import Relation

__all__ = ["ProbeArrays", "StoreIndex", "SlotStore"]

Key = Tuple


class ProbeArrays:
    """Columnar description of one store index, for the fused probe.

    Buckets are laid out back to back in ``buckets`` dict order: bucket
    ``b`` occupies positions ``starts[b] : starts[b] + counts[b]``, its
    hook value is ``tuple(col[b] for col in hook_cols)`` (one column per
    index attribute, so hooks match numerically instead of by hashing
    tuples), and position ``p`` holds the entry whose key is
    ``tuple(col[p] for col in key_cols)`` and whose payload is row
    ``slots[p]`` of the store's block. Entries appear in exactly the
    order the bucket yields them, so a columnar probe emits matches in the
    row-mode probe's order bit for bit. Nothing here depends on payload
    values: a payload update leaves the arrays alone, and a key insert or
    delete is patched in (:meth:`StoreIndex.patch`), not rebuilt.
    """

    __slots__ = ("slots", "key_cols", "hook_cols", "starts", "counts", "match")

    def __init__(self, slots, key_cols, hook_cols, starts, counts):
        self.slots = slots
        self.key_cols = key_cols
        self.hook_cols = hook_cols
        self.starts = starts
        self.counts = counts
        #: Lazily built hook-matching structure (owned by the fused probe);
        #: dropped when a bucket appears or vanishes.
        self.match = None


class StoreIndex(RelationIndex):
    """Index of a :class:`SlotStore`: buckets map ``key -> slot``."""

    __slots__ = ("store", "cache")

    def __init__(self, store: "SlotStore", attrs):
        super().__init__(store.schema, attrs)
        self.store = store
        #: Cached :class:`ProbeArrays`; the store patches it when a key is
        #: inserted or deleted and never touches it on a payload update.
        self.cache = None

    def matches(self, hook: Any):
        """``(key, row view)`` pairs under ``hook``; the views alias the
        store's block, so consume them before the next mutation."""
        bucket = self.buckets.get(hook)
        if not bucket:
            return ()
        store = self.store
        row, block = store.ring.row, store.block
        return [(key, row(block, slot)) for key, slot in bucket.items()]

    def probe_arrays(self) -> ProbeArrays:
        """The index in columnar form, (re)built when the cache is stale."""
        cache = self.cache
        if cache is None:
            buckets = self.buckets
            slots: List[int] = []
            keys: List[Key] = []
            starts = np.empty(len(buckets), dtype=np.intp)
            counts = np.empty(len(buckets), dtype=np.intp)
            for b, bucket in enumerate(buckets.values()):
                starts[b] = len(slots)
                counts[b] = len(bucket)
                slots.extend(bucket.values())
                keys.extend(bucket)
            if len(self.positions) == 1:
                hooks: List[Key] = [(hook,) for hook in buckets]
            else:
                hooks = list(buckets)
            cache = self.cache = ProbeArrays(
                np.array(slots, dtype=np.intp),
                _columns(keys, len(self.store.schema)),
                _columns(hooks, len(self.positions)),
                starts,
                counts,
            )
        return cache

    def patch(self, dead_slots: List[int], new_keys: List[Key], new_slots: List[int]) -> bool:
        """Bring the cached arrays in step with the buckets, which first
        lost the keys at ``dead_slots`` and then gained ``new_keys`` (at
        ``new_slots``, in that order): entries leave and join at the
        positions a rebuild would choose. False when a new key's values
        do not fit the cached column types — the caller then drops the
        cache.
        """
        arrays = self.cache
        slots, counts = arrays.slots, arrays.counts
        key_cols, hook_cols = arrays.key_cols, arrays.hook_cols
        high = self.store.high
        regrouped = False
        if dead_slots:
            dead = np.zeros(high, dtype=bool)
            dead[dead_slots] = True
            keep = ~dead[slots]
            owner = np.searchsorted(arrays.starts, np.flatnonzero(~keep), side="right") - 1
            counts = counts - np.bincount(owner, minlength=len(counts))
            slots = slots[keep]
            key_cols = tuple(col[keep] for col in key_cols)
            live = counts > 0
            if not live.all():  # a bucket that empties leaves the dict
                regrouped = True
                counts = counts[live]
                hook_cols = tuple(col[live] for col in hook_cols)
        if new_keys:
            # A key joins the end of its bucket, which is found through the
            # bucket's first entry. A key that is its own bucket's first
            # entry opened the bucket: those follow the old buckets, in
            # the order they were opened (the dict's).
            buckets, hook_of = self.buckets, self.hook_of
            anchor = np.fromiter(
                (next(iter(buckets[hook_of(key)].values())) for key in new_keys),
                dtype=np.intp, count=len(new_keys),
            )
            joined = np.array(new_slots, dtype=np.intp)
            opened = np.flatnonzero(anchor == joined)
            kept = len(counts)
            bucket_of = np.empty(high, dtype=np.intp)
            bucket_of[slots] = np.repeat(np.arange(kept), counts)
            bucket_of[joined[opened]] = kept + np.arange(len(opened))
            owner = bucket_of[anchor]
            ends = np.cumsum(counts)
            if len(opened):
                regrouped = True
                hooks = [hook_of(new_keys[i]) for i in opened.tolist()]
                if len(self.positions) == 1:
                    hooks = [(hook,) for hook in hooks]
                fitted = _fit(hook_cols, hooks)
                if fitted is None:
                    return False
                hook_cols = tuple(np.concatenate(pair) for pair in fitted)
                counts = np.concatenate((counts, np.zeros(len(opened), dtype=np.intp)))
                ends = np.concatenate((ends, np.full(len(opened), len(slots))))
            order = np.argsort(owner, kind="stable")
            fitted = _fit(key_cols, [new_keys[i] for i in order.tolist()])
            if fitted is None:
                return False
            # One merge order for every column: old entry k sorts at k, a
            # new one just before the position it is inserted at.
            merge = np.argsort(
                np.concatenate((np.arange(len(slots)), ends[owner[order]] - 0.5)),
                kind="stable",
            )
            key_cols = tuple(np.concatenate(pair)[merge] for pair in fitted)
            slots = np.concatenate((slots, joined[order]))[merge]
            counts = counts + np.bincount(owner, minlength=len(counts))
        arrays.slots, arrays.counts = slots, counts
        arrays.starts = np.cumsum(counts) - counts
        arrays.key_cols, arrays.hook_cols = key_cols, hook_cols
        if regrouped:
            arrays.match = None
        return True


def _fit(cols: Tuple[np.ndarray, ...], rows: List[Key]) -> Optional[List[Tuple]]:
    """Per column, ``(col, new)``: the cached column and the matching
    values of ``rows`` under one dtype that holds both exactly, as a
    rebuild over all the values would pick it. None when a rebuild would
    fall back to an object column instead.
    """
    pairs = []
    for col, values in zip(cols, zip(*rows)):
        new = column_array(list(values))
        if not len(col):
            col = new[:0]  # an empty column has no type to keep
        elif col.dtype.kind == "O":
            new = np.empty(len(values), dtype=object)
            for i, value in enumerate(values):
                new[i] = value
        elif new.dtype != col.dtype:
            kinds = {col.dtype.kind, new.dtype.kind}
            if not (kinds <= set("iufb") or kinds == {"U"}):
                return None
            dtype = np.result_type(col, new)
            col, new = col.astype(dtype), new.astype(dtype)
        pairs.append((col, new))
    return pairs


def _columns(rows: List[Key], arity: int) -> Tuple[np.ndarray, ...]:
    if not rows:
        return tuple(column_array([]) for _ in range(arity))
    return tuple(column_array(list(col)) for col in zip(*rows))


class SlotStore(_IndexCarrier):
    """One materialized view as ``key -> slot`` plus a block of rows.

    Mutations follow :meth:`Relation.add_inplace` exactly — payload
    addition, a sum that is the exact ring zero deletes its key, a
    ring-zero delta for an absent key is skipped — and keep every built
    index in step. ``support`` is the view's static feature support (the
    block is allocated over it; scalar-block rings ignore it).
    """

    __slots__ = (
        "schema", "ring", "name", "support", "slots", "block", "high", "free",
        "indexes", "pending",
    )

    def __init__(self, schema, ring, support=(), name: str = ""):
        self.schema = tuple(schema)
        self.ring = ring
        self.name = name
        self.support = support
        #: Live keys in view order -> row of ``block``.
        self.slots: Dict[Key, int] = {}
        self.block = ring.alloc_block(0, support)
        #: Rows ``[0, high)`` are live or on the free list.
        self.high = 0
        self.free: List[int] = []
        self.indexes: Dict[Tuple[str, ...], StoreIndex] = {}
        self.pending: set = set()

    @classmethod
    def from_relation(cls, relation: Relation, support=()) -> "SlotStore":
        """Store holding copies of ``relation``'s entries, in its order."""
        store = cls(relation.schema, relation.ring, support, relation.name)
        if relation.data:
            block = relation.ring.make_block(relation.data.values())
            store.add_block(list(relation.data), block, distinct=True)
        return store

    def _build_index(self, attrs) -> StoreIndex:
        return StoreIndex(self, attrs).build(self.slots)

    # ------------------------------------------------------------------
    # Reads (all copies)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.slots)

    def __contains__(self, key: Key) -> bool:
        return key in self.slots

    def payload(self, key: Key) -> Any:
        """Copy of ``key``'s payload (ring zero when absent)."""
        slot = self.slots.get(key)
        if slot is None:
            return self.ring.zero()
        return self.ring.copy(self.ring.row(self.block, slot))

    @property
    def capacity(self) -> int:
        return self.ring.block_size(self.block)

    def copy(self) -> Relation:
        """The view as a plain relation of payload copies, in view order."""
        ring = self.ring
        slots = self.slots
        relation = Relation(self.schema, ring, name=self.name)
        if len(slots) <= 4:
            # A root view's few rows: cheaper one by one than one gather.
            row, block = ring.row, self.block
            relation.data = {k: ring.copy(row(block, i)) for k, i in slots.items()}
        else:
            live = np.fromiter(slots.values(), dtype=np.intp, count=len(slots))
            rows = ring.block_payloads(ring.take(self.block, live))
            relation.data = dict(zip(slots, rows))
        return relation

    @property
    def data(self) -> Mapping[Key, Any]:
        """Read-only ``key -> payload copy`` mapping, built per access."""
        return MappingProxyType(self.copy().data)

    def __eq__(self, other) -> bool:
        return self.copy() == (other.copy() if isinstance(other, SlotStore) else other)

    def close_to(self, other, tol: float = 1e-8) -> bool:
        if isinstance(other, SlotStore):
            other = other.copy()
        return self.copy().close_to(other, tol)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_inplace(self, rows: Mapping[Key, Any]) -> int:
        """Add a (small) ``key -> payload`` delta row by row.

        Returns how many cached :class:`ProbeArrays` the call dropped.
        Keys leave after every hit is added and join after that, which
        is where :meth:`add_block` puts them.
        """
        ring = self.ring
        slots = self.slots
        add_row = ring.add_row
        dead_keys: List[Key] = []
        new = []
        for key, payload in rows.items():
            slot = slots.get(key)
            if slot is None:
                if not ring.is_zero(payload):
                    new.append((key, payload))
            elif add_row(self.block, slot, payload):
                dead_keys.append(key)
        if not dead_keys and not new:
            return 0
        # Delta keys are distinct: deleting after the hits and appending
        # the misses last is the order add_block uses.
        dead_slots = self._delete(dead_keys)
        new_slots = [slot for key, payload in new for slot in self._insert([key], payload)]
        return self._keys_changed(dead_slots, [key for key, _ in new], new_slots)

    #: The call row mode adds through into every view form (a dict view's
    #: is ``Relation._add_rows``).
    _add_rows = add_inplace

    def add_block(self, keys, block, distinct: bool = False) -> int:
        """Scatter ``block`` row ``i`` into ``keys[i]``'s row.

        One slot lookup per key, one ``add_at`` over the hit rows, one
        zero test over the touched rows; only inserts and deletes write
        the dict and the buckets. Hits never move a key and batch keys
        are distinct, so deleting after the hits and appending the live
        misses last lands :meth:`add_inplace`'s key and bucket orders.
        ``distinct`` is the caller's promise that no key repeats (the
        fused program groups by key first), which skips hashing every
        key once more to find out. Returns how many cached
        :class:`ProbeArrays` the call dropped.
        """
        ring = self.ring
        if not isinstance(keys, list):
            keys = list(keys)
        n = len(keys)
        if not distinct and len(set(keys)) != n:
            # Occurrences of one key merge sequentially, as in a dict delta.
            return sum(
                self.add_block([key], ring.take(block, [i]))
                for i, key in enumerate(keys)
            )
        at = np.fromiter(map(self.slots.get, keys, repeat(-1)), dtype=np.intp, count=n)
        hit = np.flatnonzero(at >= 0)
        dead_keys: List[Key] = []
        if len(hit):
            delta, rows_at = block, at
            if len(hit) < n:
                delta, rows_at = ring.take(block, hit), at[hit]
            dead = ring.is_zero_many(ring.add_at(self.block, rows_at, delta))
            if dead.any():
                dead_keys = [keys[i] for i in hit[dead].tolist()]
        new_keys: List[Key] = []
        if len(hit) < n:
            miss = np.flatnonzero(at < 0)
            rows = ring.take(block, miss) if len(hit) else block
            zero = ring.is_zero_many(rows)
            if zero.any():
                miss = miss[~zero]
                rows = ring.take(rows, np.flatnonzero(~zero))
            new_keys = keys if len(miss) == n else [keys[i] for i in miss.tolist()]
        if not dead_keys and not new_keys:
            return 0
        dead_slots = self._delete(dead_keys)
        new_slots = self._insert(new_keys, rows) if new_keys else []
        return self._keys_changed(dead_slots, new_keys, new_slots)

    def rescale(self, factor: float) -> None:
        """Multiply every payload by ``factor`` (free rows stay zero)."""
        self.block = self.ring.scale_float_many(self.block, factor)

    # ------------------------------------------------------------------

    def _insert(self, keys: List[Key], rows) -> List[int]:
        """Append absent ``keys`` with ``rows`` (a block, or one payload);
        returns their slots."""
        free = self.free
        slots = [free.pop() for _ in range(min(len(keys), len(free)))]
        fresh = len(keys) - len(slots)
        if fresh:
            ring = self.ring
            high = self.high
            if high + fresh > self.capacity:
                # Double, so appends cost amortised O(1) row copies.
                used = np.arange(high)
                block = ring.alloc_block(
                    max(2 * self.capacity, high + fresh, 16), self.support
                )
                ring.set_rows(block, used, ring.take(self.block, used))
                self.block = block
            slots.extend(range(high, high + fresh))
            self.high = high + fresh
        self.ring.set_rows(self.block, np.array(slots, dtype=np.intp), rows)
        self.slots.update(zip(keys, slots))
        for index in self.indexes.values():
            for key, slot in zip(keys, slots):
                index.set(key, slot)
        return slots

    def _delete(self, keys: List[Key]) -> List[int]:
        slots = list(map(self.slots.pop, keys))
        self.free.extend(slots)
        for index in self.indexes.values():
            for key in keys:
                index.discard(key)
        return slots

    def _keys_changed(self, dead_slots: List[int], new_keys: List[Key], new_slots: List[int]) -> int:
        """Patch the cached probe arrays after deletes, then inserts;
        returns how many could not be patched and were dropped."""
        dropped = 0
        for index in self.indexes.values():
            if index.cache is not None and not index.patch(dead_slots, new_keys, new_slots):
                index.cache = None
                dropped += 1
        return dropped
