"""Slot stores: a bulk-ring view kept as one ring block, not as objects.

A materialized view whose ring has bulk kernels (``has_bulk_kernels``:
the cofactor rings — numeric COVAR, MI and mixed COVAR — decayed or not)
is a :class:`SlotStore`: an insertion-ordered ``key -> slot`` dict — its
order *is* the view order, so every downstream float sum associates as
it would over a dict relation — plus one growing payload block whose row
``slot`` holds the key's payload, and a free list of the rows exact-zero
deletes gave back. Both modes of the compiled maintenance program read
and write these rows: columnar mode scatters with
:meth:`SlotStore.add_block` — one ring pass: each new key takes a zero
row first, so one ``add_at`` and one zero test cover hits and new keys
alike — and gathers probe matches with
``ring.take(store.block, slots)``; row mode adds small deltas with
:meth:`SlotStore.add_inplace` and joins against row views — of one key
(:meth:`SlotStore.get`) when it probes the whole key, of a partial
index's bucket (:meth:`StoreIndex.matches`) otherwise. There is no
second copy of a payload to keep coherent, and the only copy of a key
outside ``slots`` is a partial index's bucket.

Who may alias what: row views from ``get`` and ``matches`` may alias the
block (the sparse ring's rows, rewritten in place, come as copies) and
are for use inside one join; everything the read API returns
(:attr:`SlotStore.data`, :meth:`~SlotStore.payload`,
:meth:`~SlotStore.copy`) is a copy maintenance cannot touch.
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

    Bucket ``b`` occupies positions ``starts[b] : starts[b] + counts[b]``,
    its hook value is ``tuple(col[b] for col in hook_cols)`` (one column
    per index attribute, so hooks match numerically instead of by hashing
    tuples), and position ``p`` holds the entry whose key is
    ``tuple(col[p] for col in key_cols)`` and whose payload is row
    ``slots[p]`` of the store's block. Nothing here depends on payload
    values: a payload update leaves the arrays alone. A whole-key index
    lays them out by slot — bucket ``b`` is slot ``b``, ``counts[b]`` 0
    while the slot is free — so a key insert or delete writes its own
    slot's cells (:meth:`StoreIndex.patch`). A partial index lays its
    buckets out back to back in bucket order, each listing its keys in
    the order row mode's probe yields them, and a key insert or delete
    drops the arrays for the next columnar probe to build again.
    """

    __slots__ = ("slots", "key_cols", "hook_cols", "starts", "counts", "match")

    def __init__(self, slots, key_cols, hook_cols, starts, counts):
        self.slots = slots
        self.key_cols = key_cols
        self.hook_cols = hook_cols
        self.starts = starts
        self.counts = counts
        #: Lazily built hook-matching structure (owned by the fused probe,
        #: built over :meth:`live_hooks`); dropped when a bucket appears or
        #: vanishes, unless the layout by slot can ``repoint`` it.
        self.match = None

    def live_hooks(self):
        """Positions and hook columns of the buckets that hold keys: all of
        them, unless laid out by slot (a free slot's bucket is empty)."""
        live = np.flatnonzero(self.counts)
        return live, [col[live] for col in self.hook_cols]


class StoreIndex(RelationIndex):
    """Index of a :class:`SlotStore`, with its probe arrays cached."""

    __slots__ = ("cache",)

    def __init__(self, store: "SlotStore", attrs):
        super().__init__(store, attrs)
        #: Cached :class:`ProbeArrays`; the store patches a whole-key
        #: index's and drops a partial one's when a key is inserted or
        #: deleted, and never touches them on a payload update.
        self.cache = None

    def key_map(self) -> Mapping[Key, int]:
        return self.view.slots

    def matches(self, hook: Any):
        """``(key, row view)`` pairs under ``hook``; the views may alias the
        store's block, so consume them before the next mutation."""
        store = self.view
        row, block, slots = store.ring.row, store.block, store.slots
        return [(key, row(block, slots[key])) for key in self.keys(hook)]

    def probe_arrays(self) -> ProbeArrays:
        """The index in columnar form, built when none is cached."""
        if self.cache is None:
            fields = self._by_slot() if self.whole else self._by_bucket()
            self.cache = ProbeArrays(*fields)
        return self.cache

    def _by_bucket(self):
        """Probe-array fields of a partial index, buckets back to back."""
        buckets = self.buckets
        keys = [key for bucket in buckets.values() for key in bucket]
        counts = np.fromiter(map(len, buckets.values()), dtype=np.intp, count=len(buckets))
        hooks = [(hook,) for hook in buckets] if len(self.positions) == 1 else list(buckets)
        slots = np.fromiter(
            map(self.view.slots.__getitem__, keys), dtype=np.intp, count=len(keys)
        )
        return (
            slots,
            _columns(keys, len(self.view.schema)),
            _columns(hooks, len(self.positions)),
            np.cumsum(counts) - counts,
            counts,
        )

    def _by_slot(self):
        """Probe-array fields of a whole-key index, laid out by slot, with
        room for twice the slots."""
        store = self.view
        live = np.fromiter(store.slots.values(), dtype=np.intp, count=len(store))
        size = 2 * store.high if len(live) else 0
        counts = np.zeros(size, dtype=np.intp)
        counts[live] = 1
        cols = _columns(list(store.slots), len(store.schema))
        key_cols = tuple(np.zeros(size, dtype=col.dtype) for col in cols)
        for full, col in zip(key_cols, cols):
            full[live] = col
        slots = np.arange(size, dtype=np.intp)
        return slots, key_cols, key_cols, slots, counts

    def patch(self, dead_slots: List[int], new_keys: List[Key], new_slots: List[int]) -> bool:
        """Bring a whole-key index's cached arrays in step with the store,
        which first lost the keys at ``dead_slots`` and then gained
        ``new_keys`` (at ``new_slots``, in that order), in amortized
        O(keys changed). False when a new key's values do not fit the
        cached column types — the caller then drops the cache.
        """
        arrays = self.cache
        fitted = _fit(arrays.key_cols, new_keys) if new_keys else ()
        if fitted is None:
            return False
        store = self.view
        if not len(store) or len(arrays.counts) < store.high:
            self.cache = ProbeArrays(*self._by_slot())
            return True
        match = arrays.match
        for slots, live in ((dead_slots, 0), (new_slots, 1)):
            if not slots:
                continue
            slots = np.array(slots, dtype=np.intp)
            arrays.counts[slots] = live
            if live:
                for col, new in fitted:
                    col[slots] = new
                arrays.key_cols = arrays.hook_cols = tuple(col for col, _ in fitted)
            hooks = [col[slots] for col in arrays.hook_cols]
            if match is not None and not match.repoint(hooks, slots if live else -1):
                match = None
        arrays.match = match
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
    index in step: a whole-key index reads ``slots`` itself, a partial
    one gains and loses keys with it. ``support`` is the view's static
    feature support (the block is allocated over it; the sparse
    cofactor ring ignores it).
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
        return StoreIndex(self, attrs)

    # ------------------------------------------------------------------
    # Reads (all copies)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.slots)

    def __contains__(self, key: Key) -> bool:
        return key in self.slots

    def get(self, key: Key) -> Any:
        """Row view of ``key``'s payload, None when absent — row mode's
        whole-key probe; it may alias the block (see the module notes)."""
        slot = self.slots.get(key)
        return None if slot is None else self.ring.row(self.block, slot)

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
        """Scatter ``block`` row ``i`` into ``keys[i]``'s row, in one ring pass.

        One slot lookup per key. Misses whose payload is the ring zero
        drop; every other miss takes its row first — a free one, else a
        fresh one, both holding the ring zero — so one ``add_at`` adds
        hits and misses alike and one zero test finds the hits that
        cancelled. Only then are the dict and the partial indexes'
        buckets written: deletes first, then the misses appended in
        batch order, which is :meth:`add_inplace`'s key and bucket order.
        Misses the block has no row left for wait for those deletes and
        go in last through :meth:`_insert`, which reuses the freed rows
        before it grows the block — so the block grows when, and by as
        much as, a scatter that deleted before it inserted would grow it.
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
        miss = np.flatnonzero(at < 0)
        new = miss[~ring.is_zero_many(block)[miss]] if len(miss) else miss
        free = self.free
        reused = min(len(new), len(free))
        fresh = min(len(new) - reused, self.capacity - self.high)
        new_slots = free[len(free) - reused :][::-1]
        del free[len(free) - reused :]
        new_slots.extend(range(self.high, self.high + fresh))
        self.high += fresh
        new, late = new[: len(new_slots)], new[len(new_slots) :]
        at[new] = new_slots
        # Every row is added, unless a miss dropped or waits.
        rows = np.flatnonzero(at >= 0)
        dead_keys: List[Key] = []
        if len(rows):
            delta, to = (block, at) if len(rows) == n else (ring.take(block, rows), at[rows])
            dead = ring.is_zero_many(ring.add_at(self.block, to, delta))
            if dead.any():
                dead_keys = [keys[i] for i in rows[dead].tolist()]
        if not dead_keys and not len(new) and not len(late):
            return 0
        dead_slots = self._delete(dead_keys)
        new_keys = [keys[i] for i in new.tolist()]
        self._link(new_keys, new_slots)
        if len(late):
            late_keys = [keys[i] for i in late.tolist()]
            new_slots = new_slots + self._insert(late_keys, ring.take(block, late))
            new_keys += late_keys
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
        self._link(keys, slots)
        return slots

    def _link(self, keys: List[Key], slots: List[int]) -> None:
        """Enter new ``keys``, whose rows are written, at ``slots``."""
        self.slots.update(zip(keys, slots))
        for index in self.indexes.values():
            if not index.whole:
                for key in keys:
                    index.add(key)

    def _delete(self, keys: List[Key]) -> List[int]:
        slots = list(map(self.slots.pop, keys))
        self.free.extend(slots)
        for index in self.indexes.values():
            if not index.whole:
                for key in keys:
                    index.discard(key)
        return slots

    def _keys_changed(self, dead_slots: List[int], new_keys: List[Key], new_slots: List[int]) -> int:
        """Patch the whole-key indexes' cached probe arrays after deletes,
        then inserts, and drop the partial ones' (the next columnar probe
        builds them again); returns how many were dropped."""
        dropped = 0
        for index in self.indexes.values():
            if index.cache is None:
                continue
            if not (index.whole and index.patch(dead_slots, new_keys, new_slots)):
                index.cache = None
                dropped += 1
        return dropped
