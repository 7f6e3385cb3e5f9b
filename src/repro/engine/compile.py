"""Compiled per-path programs: how an engine maintains a delta.

One :class:`FusedPath` per (relation, path), compiled from the static
view tree at engine construction for every payload ring, maintains
every delta of that relation, in one of two modes chosen by the delta's
size (``EngineStatistics.COLUMNAR_MIN_DELTA``):

- **row mode** (small deltas, e.g. single-tuple updates, and every
  delta on dict views): one payload object per key, driven by the
  compiled hook / keep / group positions and lift lists — lift and scale
  each delta row (times the decay boost, below), probe each sibling —
  one ``get`` on its own key map when the probe carries its whole key
  (every probe but a dimension update's into its fact leaf, or a free
  variable's), else its partial index's ``matches`` — multiply with
  the ring's
  payload ``mul`` (plain ``*`` for scalar rings), group-sum in dicts in
  row order, and add into the stored views (``SlotStore.add_inplace``,
  or a dict view's ``Relation._add_rows``). No
  :class:`~repro.data.relation.Relation` is built;
- **columnar mode** (larger deltas on slot-store views, when every lift
  on the path is bulk-liftable): the running delta is key *column
  arrays* plus one contiguous payload block, and lift -> probe-gather ->
  multiply -> group-sum run as bulk ring kernels chained with numpy
  index arithmetic — no payload object and no Python-level loop per
  delta row.

On a decayed engine the leaf lift of either mode multiplies the scaled
payloads by the engine's boost ``λ^(-ticks)`` (``scale_float`` after
``scale``; see :mod:`repro.rings.decay`) — the one place a delta's
multiplicities become payloads, so no other step knows about decay.

Both modes issue the same payload products and leave the same views —
bit for bit wherever the float sums are exact (a columnar group-sum,
``np.add.reduceat``, may associate a group's rows differently from row
mode's left-to-right adds). Columnar mode rests on:

- **int-keyed grouping** — key columns are integer-encoded per column
  (``value - min`` for integer columns of a bounded span, ``np.unique``
  for other typed columns, one dict pass for object columns) and
  combined into a single code word. A code space of at most
  ``_DIRECT_LIMIT`` is grouped by *addressing* — each code's first row
  is written into a table, no sort — and a larger one with one
  ``np.unique`` call remapped to *first-seen* order; either way every
  downstream float sum associates in the order the rows arrived;
- **columnar sibling probes** — every stored view is a
  :class:`~repro.data.store.SlotStore`, and each of its indexes caches
  its :class:`~repro.data.store.ProbeArrays` (key columns, bucket ranges,
  hook value columns and row slots; a whole-key index's are laid out by
  slot and patched when the view gains or loses keys, a partial index's
  built again after such a change): probe hooks are matched against buckets
  numerically — through a hook-code -> bucket table when the index's
  hook columns are integers of a packed range within ``_DIRECT_LIMIT``,
  via per-column ``searchsorted`` otherwise — match pairs are expanded
  by integer index arithmetic and payloads fetched from the store's
  block with ``ring.take``. A step's first probe whose hook is the whole
  running key (known at compile time: ``_FusedProbe.distinct``) sees
  distinct hooks, since the step below just grouped by that key, and
  skips grouping them; when every delta row matches one entry, in
  order, the running columns and block go on as they are, ungathered;
- **ordering discipline** — hooks are visited in first-seen order,
  bucket entries outer, delta rows inner, and within-group sums run over
  ascending original row order, so results do not depend on how the
  grouping was computed (addressed, sorted or the tuple-dict fallback).
"""

from __future__ import annotations

import operator
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.data.columnar import bulk_liftable, column_array, lift_column
from repro.data.relation import Relation, _hook_getter, _key_getter, _positions
from repro.data.store import SlotStore
from repro.engine.base import EngineStatistics

__all__ = ["FusedPath", "compile_fused_path"]

#: Combined group codes stay below this bound; larger key spaces fall
#: back to the tuple-dict grouping pass (same first-seen semantics).
_CODE_LIMIT = 1 << 62
#: An integer key column whose values span at most this many integers is
#: coded as ``value - min`` (two reductions) instead of being sorted.
_RANGE_LIMIT = 1 << 20
#: Code spaces of at most this many codes are grouped, and index hooks
#: matched, through a directly addressed table: one grow-only intp buffer
#: (<= 1 MB) per compiled path, one table of that size at most per index.
_DIRECT_LIMIT = 1 << 17


# ----------------------------------------------------------------------
# Pair expansion
# ----------------------------------------------------------------------


def _expand_pairs(members, member_start, member_count, entry_start, entry_count):
    """Expand (group -> members, group -> entry slots) into match pairs.

    Emission order: groups in the given (first-seen) order, bucket
    entries outer, delta members inner in ascending original row order
    (row mode's probe order). Returns ``(left_rows,
    right_slots)`` — indexes into the running delta and into the sibling
    source block respectively.
    """
    pairs = member_count * entry_count
    total = int(pairs.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    if total == len(pairs):
        # Every surviving group matched exactly one (member, entry) pair —
        # the dominant shape when delta keys are distinct and the sibling
        # is keyed on the hook. Gather directly.
        return members[member_start], entry_start
    gidx = np.repeat(np.arange(len(pairs), dtype=np.intp), pairs)
    first = np.concatenate(([0], np.cumsum(pairs)[:-1]))
    pos = np.arange(total, dtype=np.intp) - first[gidx]
    mc = member_count[gidx]
    left = members[member_start[gidx] + pos % mc]
    right = entry_start[gidx] + pos // mc
    return left, right


# ----------------------------------------------------------------------
# Int-keyed grouping
# ----------------------------------------------------------------------


class _Scratch:
    """Grow-only reusable buffers for the per-batch grouping codes.

    One per compiled path: fused batches run strictly sequentially per
    engine, and no buffer outlives the grouping call that fills it,
    so reuse is safe and removes the last per-call allocations the
    profiler showed on the grouping hot loop.
    """

    __slots__ = ("_column_codes", "_combined", "_first")

    def __init__(self):
        self._column_codes = np.empty(0, dtype=np.intp)
        self._combined = np.empty(0, dtype=np.intp)
        self._first = np.empty(0, dtype=np.intp)

    def column_codes(self, n: int) -> np.ndarray:
        buf = self._column_codes
        if len(buf) < n:
            buf = self._column_codes = np.empty(max(n, 64), dtype=np.intp)
        return buf[:n]

    def combined(self, n: int) -> np.ndarray:
        buf = self._combined
        if len(buf) < n:
            buf = self._combined = np.empty(max(n, 64), dtype=np.intp)
        return buf[:n]

    def first(self, space: int) -> np.ndarray:
        """Code -> first row table of the addressed grouping. Never
        cleared: a call reads only the cells it has just written."""
        buf = self._first
        if len(buf) < space:
            buf = self._first = np.empty(space, dtype=np.intp)
        return buf


def _offsets(arr: np.ndarray, lo: int) -> np.ndarray:
    """``arr - lo`` as fresh intp codes, for any integer dtype.

    ``uint64`` values (and a ``lo``) past the intp range wrap, and the
    wrapped difference is the true one wherever that fits an intp — the
    callers only use rows they know to lie within a bounded span of
    ``lo``; other rows hold garbage, never an error.
    """
    codes = arr.astype(np.intp)
    codes -= lo - (1 << 64) if lo >= 1 << 63 else lo
    return codes


def _pack(packed: Optional[np.ndarray], codes: np.ndarray, span: int) -> np.ndarray:
    """Append one column's codes (fresh, below ``span``) to a code word."""
    if packed is None:
        return codes
    packed *= span
    packed += codes
    return packed


def _encode_column(arr: np.ndarray, scratch: Optional[_Scratch], dense: bool = False):
    """``(codes, cardinality)`` for one key column (code ids arbitrary).

    ``dense`` asks for codes below the row count whatever the values
    span (the retry after range codes overflowed the code word).
    """
    kind = arr.dtype.kind
    if kind == "O":
        index: Dict[Any, int] = {}
        n = len(arr)
        codes = scratch.column_codes(n) if scratch is not None else np.empty(n, dtype=np.intp)
        setdefault = index.setdefault
        for i, value in enumerate(arr.tolist()):
            codes[i] = setdefault(value, len(index))
        return codes, len(index)
    if kind in "iu" and not dense:
        lo = int(arr.min())
        span = int(arr.max()) - lo + 1
        if span <= _RANGE_LIMIT:
            return _offsets(arr, lo), span
    uniques, inverse = np.unique(arr, return_inverse=True)
    return inverse, len(uniques)


def _combined_codes(cols, n: int, scratch: _Scratch, dense: bool = False):
    """``(codes, space)``: one integer code word per row (``n`` >= 1 of
    them) and the size of the space the words live in, or ``(None, 0)``
    on code-space overflow."""
    combined = None
    space = 1
    for arr in cols:
        codes, k = _encode_column(arr, scratch, dense)
        if space > _CODE_LIMIT // k:
            # Range codes spend code space on values that do not occur;
            # dense ones overflow only when the batch itself is too big.
            return (None, 0) if dense else _combined_codes(cols, n, scratch, True)
        space *= k
        if combined is None:
            if len(cols) == 1:
                return codes, space
            combined = scratch.combined(n)
            np.copyto(combined, codes)
        else:
            combined *= k
            combined += codes
    return combined, space


def _group_rows_dict(cols, n: int):
    """Tuple-dict grouping fallback (key spaces too wide to int-encode)."""
    index: Dict[Tuple, int] = {}
    gids = np.empty(n, dtype=np.intp)
    reps: List[int] = []
    setdefault = index.setdefault
    for i, row in enumerate(zip(*(col.tolist() for col in cols))):
        gid = setdefault(row, len(reps))
        if gid == len(reps):
            reps.append(i)
        gids[i] = gid
    if len(reps) == n:
        return gids, gids
    return gids, np.asarray(reps, dtype=np.intp)


def _group_rows(cols, n: int, scratch: _Scratch):
    """First-seen grouping of ``n`` rows by the given key columns.

    Returns ``(gids, reps)``: per-row group ids numbered in first-seen
    order — the numbering a dict pass over the rows assigns, which fixes
    the summation order of every float accumulation downstream — and the
    first row index of each group. With no key columns every row lands
    in the single empty group. When every row is its own group the
    *same* array is returned twice; callers test ``reps is gids``.
    """
    if not cols:
        return (
            np.zeros(n, dtype=np.intp),
            np.zeros(1 if n else 0, dtype=np.intp),
        )
    rows = np.arange(n, dtype=np.intp)
    if not n:
        return rows, rows
    codes, space = _combined_codes(cols, n, scratch)
    if codes is None:
        return _group_rows_dict(cols, n)
    if space <= _DIRECT_LIMIT:
        # Addressed: rows written in descending order leave each code's
        # first row in its cell (fancy assignment stores in index order;
        # the grouping properties in tests/engine pin that).
        table = scratch.first(space)
        table[codes[::-1]] = rows[::-1]
        seen = table[codes]
        reps = np.flatnonzero(seen == rows)
        k = len(reps)
        if k == n:
            return rows, rows
        rank = np.empty(n, dtype=np.intp)
        rank[reps] = rows[:k]
        return rank[seen], reps
    uniques, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    k = len(uniques)
    if k == n:
        return rows, rows
    order = np.argsort(first, kind="stable")
    remap = np.empty(k, dtype=np.intp)
    remap[order] = rows[:k]
    return remap[inverse], first[order]


def _keys_of(cols, n: int) -> List[Tuple]:
    """Materialize key tuples from key columns (always tuples, like
    ``_key_getter``)."""
    if not cols:
        return [()] * n
    if len(cols) == 1:
        return [(value,) for value in cols[0].tolist()]
    return list(zip(*(col.tolist() for col in cols)))


# ----------------------------------------------------------------------
# Hook matching
# ----------------------------------------------------------------------


_EMPTY_IDX = np.empty(0, dtype=np.intp)


class _HookMatch:
    """Cached hook-matching structures for one index's probe arrays.

    All three forms cover the buckets that hold keys
    (:meth:`~repro.data.store.ProbeArrays.live_hooks`). ``table`` maps a
    packed hook code to its bucket position (-1: no bucket) and
    ``ranges`` holds each hook column's ``(min, span)``
    the codes are packed with; both are ``None`` unless every hook
    column is an integer column and the packed range fits
    ``_DIRECT_LIMIT``. The sorted form serves every other typed input
    and is built on first use: ``col_uniques[p]`` holds the sorted
    distinct values of the index's ``p``-th hook column and
    ``m_sorted``/``m_order`` the buckets' combined per-column codes in
    sorted order plus the permutation back to bucket positions — enough
    to resolve a batch of probe hooks with one ``searchsorted`` per
    column. Each column's code base is ``len(uniques) + 1``, reserving
    one sentinel digit for probe values absent from the index (those can
    never equal a bucket code). ``hook_index`` is the hook→bucket-position
    dict fallback, built lazily when the columns resist integer encoding
    (overflow, exotic dtypes) or a probe batch brings incomparable values.
    """

    __slots__ = (
        "table", "ranges", "sorted_built", "col_uniques", "m_sorted", "m_order",
        "hook_index",
    )

    def __init__(self, arrays):
        self.table, self.ranges = _hook_table(*arrays.live_hooks())
        self.sorted_built = False
        self.col_uniques = self.m_sorted = self.m_order = None
        self.hook_index: Optional[Dict[Any, int]] = None

    def repoint(self, hook_cols, positions) -> bool:
        """Point the table at bucket ``positions`` (-1: none) for the hooks
        in ``hook_cols`` — how the store moves buckets it keeps in place;
        False if a hook is out of range or another form is built."""
        if self.table is None or self.sorted_built or self.hook_index is not None:
            return False
        packed = None
        for col, (lo, span) in zip(hook_cols, self.ranges):
            if len(col) and (col.dtype.kind not in "iu" or col.min() < lo or col.max() >= lo + span):
                return False
            packed = _pack(packed, _offsets(col, lo), span)
        if packed is not None:
            self.table[packed] = positions
        return True


def _hook_table(live, cols):
    """``(table, ranges)`` of :class:`_HookMatch` for the hook columns of
    the buckets at positions ``live``, ``(None, None)`` when they are not
    integers of a packed range within ``_DIRECT_LIMIT``."""
    ranges: List[Tuple[int, int]] = []
    packed = None
    space = 1
    for col in cols:
        if col.dtype.kind not in "iu":
            return None, None
        lo = int(col.min())
        span = int(col.max()) - lo + 1
        space *= span
        if space > _DIRECT_LIMIT:
            return None, None
        ranges.append((lo, span))
        packed = _pack(packed, _offsets(col, lo), span)
    table = np.full(space, -1, dtype=np.intp)
    table[packed] = live
    return table, ranges


def _hook_match(arrays) -> _HookMatch:
    """The index's matching structures, built again after the probe
    arrays were (re)built or ``StoreIndex.patch`` reset them."""
    match = arrays.match
    if match is None:
        match = arrays.match = _HookMatch(arrays)
    return match


def _sorted_codes(arrays, match: _HookMatch) -> Optional[List[np.ndarray]]:
    """``match.col_uniques`` with the sorted form built (``None`` when
    the index's hook columns resist integer encoding)."""
    if not match.sorted_built:
        match.sorted_built = True
        col_uniques: List[np.ndarray] = []
        comb = None
        card = 1
        live, cols = arrays.live_hooks()
        for col in cols:
            if col.dtype.kind not in "iufbUS":
                return None
            uniques = np.unique(col)
            base = len(uniques) + 1
            if card > _CODE_LIMIT // base:
                return None
            card *= base
            col_uniques.append(uniques)
            codes = np.searchsorted(uniques, col)
            comb = codes if comb is None else comb * base + codes
        order = np.argsort(comb)
        match.col_uniques = col_uniques
        match.m_sorted, match.m_order = comb[order], live[order]
    return match.col_uniques


def _hook_index_of(arrays, match: _HookMatch) -> Dict[Any, int]:
    hook_index = match.hook_index
    if hook_index is None:
        live, cols = arrays.live_hooks()
        if len(cols) == 1:
            hooks: Iterable = cols[0].tolist()
        else:
            hooks = zip(*(col.tolist() for col in cols))
        hook_index = match.hook_index = dict(zip(hooks, live.tolist()))
    return hook_index


def _kinds_comparable(a: str, b: str) -> bool:
    return (a in "iufb" and b in "iufb") or (a == "U" and b == "U")


def _match_table(hook_cols, reps, match: _HookMatch):
    """Direct-address form of :func:`_match_reps`; ``None`` when a probe
    column is not an integer column (the sorted form compares those)."""
    inside = packed = None
    for col, (lo, span) in zip(hook_cols, match.ranges):
        if col.dtype.kind not in "iu":
            return None
        vals = col[reps]
        # Range test against bounds the probe dtype can hold (whatever its
        # width or signedness), so no comparison promotes or overflows.
        info = np.iinfo(vals.dtype)
        low, high = max(lo, info.min), min(lo + span - 1, info.max)
        if low > high:
            return _EMPTY_IDX, _EMPTY_IDX
        ok = (vals >= low) & (vals <= high)
        inside = ok if inside is None else inside & ok
        packed = _pack(packed, _offsets(vals, lo), span)  # garbage outside the range
    keep = np.flatnonzero(inside)
    bucket_idx = match.table[packed[keep]]
    hit = bucket_idx >= 0
    if not hit.all():
        keep, bucket_idx = keep[hit], bucket_idx[hit]
    return keep, bucket_idx


def _match_reps(hook_cols, reps, arrays):
    """Match per-group representative hooks against an index's buckets.

    Returns ``(keep, bucket_idx)``: positions of the groups whose hook
    owns a bucket (ascending, preserving first-seen group order) and the
    matching bucket position for each. Integer hooks of a small packed
    range are looked up in the index's hook-code table; otherwise the
    encoded path runs one ``searchsorted`` per column over the ``k``
    representatives, and batches whose values cannot be compared against
    the index's columns fall back to the hook→bucket dict.
    """
    match = _hook_match(arrays)
    if match.table is not None:
        found = _match_table(hook_cols, reps, match)
        if found is not None:
            return found
    col_uniques = _sorted_codes(arrays, match)
    if col_uniques is not None:
        comb = None
        for col, uniques in zip(hook_cols, col_uniques):
            if not _kinds_comparable(col.dtype.kind, uniques.dtype.kind):
                comb = None
                break
            rep_vals = col[reps]
            ku = len(uniques)
            pos = np.searchsorted(uniques, rep_vals)
            np.minimum(pos, ku - 1, out=pos)
            codes = np.where(uniques[pos] == rep_vals, pos, ku)
            comb = codes if comb is None else comb * (ku + 1) + codes
        if comb is not None:
            m_sorted = match.m_sorted
            pos = np.searchsorted(m_sorted, comb)
            np.minimum(pos, len(m_sorted) - 1, out=pos)
            keep = np.flatnonzero(m_sorted[pos] == comb)
            return keep, match.m_order[pos[keep]]
    hook_index = _hook_index_of(arrays, match)
    if len(hook_cols) == 1:
        rep_hooks: List = hook_cols[0][reps].tolist()
    else:
        rep_hooks = list(zip(*(col[reps].tolist() for col in hook_cols)))
    keep_g: List[int] = []
    bucket_g: List[int] = []
    get = hook_index.get
    for g, hook in enumerate(rep_hooks):
        b = get(hook)
        if b is not None:
            keep_g.append(g)
            bucket_g.append(b)
    return (
        np.asarray(keep_g, dtype=np.intp),
        np.asarray(bucket_g, dtype=np.intp),
    )


# ----------------------------------------------------------------------
# Row mode
# ----------------------------------------------------------------------


def _row_ops(ring):
    """``(mul, scale, copy, add_inplace, is_zero)`` of row mode: the
    ring's own calls, or, for a scalar ring (plain numbers whose ``*`` /
    ``+`` / truthiness agree with the ring, see ``Ring.is_scalar``), the
    C-level operators — ``pos`` returns an ``int`` or ``float`` as it
    is, ``not_`` is the truthiness zero test."""
    if ring.is_scalar:
        return operator.mul, operator.mul, operator.pos, operator.add, operator.not_
    return ring.mul, ring.scale, ring.copy, ring.add_inplace, ring.is_zero


def _lift_rows(one, mul, scale, data, lifts) -> Dict[Tuple, Any]:
    """Leaf lift of a Z-delta ``key -> multiplicity``, one payload per
    row: ``one`` times each lifted value, scaled by the multiplicity."""
    out = {}
    for key, multiplicity in data.items():
        payload = one
        for position, fn in lifts:
            payload = mul(payload, fn(key[position]))
        out[key] = scale(payload, multiplicity)
    return out


def _times_lifts(mul, rows, lifts) -> Dict[Tuple, Any]:
    """Each payload times the lifted values of its key, in lift order."""
    out = {}
    for key, payload in rows.items():
        for position, fn in lifts:
            payload = mul(payload, fn(key[position]))
        out[key] = payload
    return out


def _sum_rows(copy, add_inplace, is_zero, rows, group_of, prune: bool) -> Dict[Tuple, Any]:
    """Group-sum ``rows`` by ``group_of`` in row order (the first payload
    of a group is copied, later ones added into it); with ``prune``,
    groups that cancelled to the exact ring zero drop."""
    out: Dict[Tuple, Any] = {}
    get = out.get
    for key, payload in rows.items():
        group = group_of(key)
        existing = get(group)
        out[group] = copy(payload) if existing is None else add_inplace(existing, payload)
    if prune:
        for key in [key for key, payload in out.items() if is_zero(payload)]:
            del out[key]
    return out


def _row_ladder(ring, materialized, steps, current, stats, timer):
    """Row mode up ``steps`` from the running ``key -> payload`` dict
    ``current``: probe each step's siblings, multiply in its lifts and
    group-sum by its view key, yielding ``(step, grouped delta)`` — the
    step loop :meth:`FusedPath.rows` scatters from and
    :meth:`FusedPath.derive` collects. Stops once the rows annihilate."""
    mul, _scale, copy, add_inplace, is_zero = _row_ops(ring)
    for step in steps:
        if not current:
            return
        joined = current
        for probe in step.probes:
            sibling = materialized[probe.sibling]
            index = sibling.ensure_index(probe.attrs)
            if timer:
                t0 = timer()
            joined = probe.run_rows(joined, sibling, index, mul, is_zero, stats)
            if timer:
                stats.record_stage("probe", timer() - t0)
            stats.probe_steps += 1
            if not joined:
                return  # annihilated mid-join: nothing propagates further up
        if step.lifts:
            if timer:
                t0 = timer()
            joined = _times_lifts(mul, joined, step.lifts)
            if timer:
                stats.record_stage("multiply", timer() - t0)
        if timer:
            t0 = timer()
        current = _sum_rows(
            copy, add_inplace, is_zero, joined, step.group_of,
            bool(step.lifts) or ring.has_negation,
        )
        if timer:
            stats.record_stage("group", timer() - t0)
        yield step, current


# ----------------------------------------------------------------------
# Compiled path
# ----------------------------------------------------------------------


class _FusedProbe:
    """One compiled sibling probe: schema positions and their key
    extractors."""

    __slots__ = (
        "sibling", "attrs", "hook_positions", "keep_positions", "whole",
        "distinct", "hook_of", "key_of", "rest_of",
    )

    def __init__(
        self,
        sibling: str,
        attrs: Tuple[str, ...],
        hook_positions: Tuple[int, ...],
        keep_positions: Tuple[int, ...],
        whole: bool,
        distinct: bool,
    ):
        self.sibling = sibling
        self.attrs = attrs
        #: Positions of the probe attributes in the *running* schema.
        self.hook_positions = hook_positions
        #: Positions (in the sibling key) of its non-shared suffix.
        self.keep_positions = keep_positions
        #: The probe carries the sibling's whole key, in key order.
        self.whole = whole
        #: The hooks are the whole key of a delta the ladder has just
        #: grouped by that key, so no two rows share one: columnar mode
        #: groups them by identity, without looking.
        self.distinct = distinct
        #: Row mode: a running key's hook (the index's hook form), the
        #: sibling key it names when ``whole``, and a sibling key's
        #: non-shared suffix.
        self.hook_of = _hook_getter(hook_positions)
        self.key_of = _key_getter(hook_positions)
        self.rest_of = _key_getter(keep_positions)

    def run_rows(self, rows, sibling, index, mul, is_zero, stats):
        """Row mode of :meth:`run`: join the running ``key -> payload``
        dict with the sibling, delta rows outer and sibling entries
        inner — one lookup in the sibling's own map when the probe
        carries its whole key, else the entries of ``index``'s bucket.
        The running keys are distinct and a sibling key is its hook plus
        its suffix, so every product lands on its own key; exact
        ring-zero products drop."""
        if not len(sibling):
            return {}  # no lookups, so none counted
        out = {}
        hits = 0
        if self.whole:
            get = sibling.get if isinstance(sibling, SlotStore) else sibling.data.get
            key_of = self.key_of
            for key_a, payload_a in rows.items():
                payload_b = get(key_of(key_a))
                if payload_b is None:
                    continue
                hits += 1
                product = mul(payload_a, payload_b)
                if not is_zero(product):
                    out[key_a] = product
        else:
            matches, hook_of, rest_of = index.matches, self.hook_of, self.rest_of
            for key_a, payload_a in rows.items():
                bucket = matches(hook_of(key_a))
                if not bucket:
                    continue
                hits += 1
                for key_b, payload_b in bucket:
                    product = mul(payload_a, payload_b)
                    if not is_zero(product):
                        out[key_a + rest_of(key_b)] = product
        stats.index_probes += len(rows)
        stats.index_hits += hits
        return out

    def run(self, cols, block, n, sibling, index, ring, stats, scratch):
        """Probe one sibling: returns the widened ``(cols, block, n)``.

        Delta rows are grouped by hook (first-seen order; each row its
        own group when the hooks are known to be ``distinct``), each
        distinct hook is looked up once, and surviving (group, bucket)
        pairs are expanded into match-pair index arrays — gather +
        multiply then run as three kernel calls over the whole batch;
        when every row matches one entry, in order, the running columns
        and block are used as they are.
        """
        hook_cols = [cols[p] for p in self.hook_positions]
        if self.distinct:
            gids = reps = np.arange(n, dtype=np.intp)
        else:
            gids, reps = _group_rows(hook_cols, n, scratch)
        k = len(reps)
        if index.cache is not None:
            stats.mirror_hits += 1
        else:
            stats.mirror_builds += 1
        arrays = index.probe_arrays()
        if k == 0 or len(arrays.starts) == 0:
            keep_arr = ent_start = ent_count = _EMPTY_IDX
        elif not hook_cols:
            # Cartesian step: one delta group, one all-entries bucket.
            keep_arr = np.zeros(1, dtype=np.intp)
            ent_start = arrays.starts
            ent_count = arrays.counts
        else:
            keep_arr, bucket_idx = _match_reps(hook_cols, reps, arrays)
            ent_start = arrays.starts[bucket_idx]
            ent_count = arrays.counts[bucket_idx]
        hits = len(keep_arr)
        stats.index_probes += k
        stats.index_hits += hits
        if not hits:
            return cols, ring.zero_block(0), 0
        # Members of each group, ascending row order within the group.
        if reps is gids:
            # Identity grouping (all delta hooks distinct): each group's
            # single member is its own representative row.
            member_start = keep_arr
            member_count = np.ones(len(keep_arr), dtype=np.intp)
            order = gids
        else:
            # Stable; group ids that fit 16 bits sort by radix, the same
            # permutation sooner.
            order = np.argsort(gids.astype(np.uint16) if k <= 1 << 16 else gids, kind="stable")
            counts = np.bincount(gids, minlength=k)
            member_start = np.concatenate(([0], np.cumsum(counts)[:-1]))[keep_arr]
            member_count = counts[keep_arr]
        left, right = _expand_pairs(
            order,
            member_start,
            member_count,
            ent_start,
            ent_count,
        )
        if reps is gids and hits == n == len(left):
            # Every row matched one entry: ``left`` is every row in order.
            new_cols = list(cols)
        else:
            new_cols = [col[left] for col in cols]
            block = ring.take(block, left)
        new_cols.extend(arrays.key_cols[p][right] for p in self.keep_positions)
        product = ring.mul_many(block, ring.take(sibling.block, arrays.slots[right]))
        return new_cols, product, len(left)


class _FusedStep:
    """One inner view of a fused ladder: probes, lifts, projection."""

    __slots__ = ("view_name", "probes", "lifts", "group_positions", "group_of")

    def __init__(
        self,
        view_name: str,
        probes: Tuple[_FusedProbe, ...],
        lifts: Tuple[Tuple[int, Callable], ...],
        group_positions: Tuple[int, ...],
    ):
        self.view_name = view_name
        self.probes = probes
        self.lifts = lifts  # (position in the running schema, lift fn)
        self.group_positions = group_positions
        self.group_of = _key_getter(group_positions)


class FusedPath:
    """The compiled maintenance program of one relation's path.

    :meth:`apply` runs F-IVM's ladder — lift, sibling joins, marginalize,
    fold into the views the engine stores (a dropped view costs its
    grouping only) — up the ``maintained`` steps, in one of two modes,
    chosen by the delta's size:

    - **columnar** (:meth:`columnar`, from ``COLUMNAR_MIN_DELTA`` keys
      on, and only when ``bulk``: slot-store views and every lift on
      the path bulk-liftable): the delta travels as key columns plus
      one payload block through bulk ring kernels;
      ``columnar_batches``/``columnar_steps`` advance together with
      ``fused_batches``/``fused_steps``;
    - **row** (:meth:`rows`, every other delta): one payload per key
      and one ring call per operation (lift, ``mul`` per probe match,
      ``copy``/``add_inplace`` per group, in row order — the C-level
      number operators for scalar rings), siblings probed by one lookup
      of their whole key or through a partial index's ``matches``, and
      the views added into through
      ``_add_rows`` — slot stores and dict views alike; it counts
      ``probe_steps``, and builds no :class:`Relation`.

    Both modes read and write the same slot stores and leave the same
    views — bit for bit wherever the float sums are exact; otherwise a
    columnar group-sum may associate a group's rows differently.
    :meth:`derive` runs the same ladder over a stored view's whole
    contents to recompute a view the engine dropped.
    """

    __slots__ = (
        "leaf_name",
        "leaf_lifts",
        "leaf_group_positions",
        "leaf_group_of",
        "steps",
        "maintained",
        "bulk",
        "_scratch",
    )

    def __init__(
        self,
        leaf_name: str,
        leaf_lifts: Tuple[Tuple[int, Callable], ...],
        leaf_group_positions: Tuple[int, ...],
        steps: Tuple[_FusedStep, ...],
        maintained: Tuple[_FusedStep, ...],
        bulk: bool,
    ):
        self.leaf_name = leaf_name
        self.leaf_lifts = leaf_lifts  # (position in the delta schema, lift fn)
        self.leaf_group_positions = leaf_group_positions
        self.leaf_group_of = _key_getter(leaf_group_positions)
        self.steps = steps
        #: The steps :meth:`apply` runs: every step, or none when the
        #: engine keeps only the leaves (its deltas stop at the leaf).
        self.maintained = maintained
        #: The views are slot stores and every lift on the path is
        #: bulk-liftable: columnar mode is available.
        self.bulk = bulk
        self._scratch = _Scratch()

    def apply(self, engine, delta) -> None:
        """Maintain one delta: columnar from ``COLUMNAR_MIN_DELTA`` keys
        on (bulk paths only), row mode below."""
        if self.bulk and len(delta.data) >= engine.stats.COLUMNAR_MIN_DELTA:
            self.columnar(engine, delta)
        else:
            self.rows(engine, delta)

    def rows(self, engine, delta) -> None:
        """Run the ladder one payload per key (row mode)."""
        stats = engine.stats
        stats.record_batch(delta)
        ring = engine.plan.ring
        mul, scale, copy, add_inplace, is_zero = _row_ops(ring)
        materialized = engine.materialized
        view_sizes = stats.view_sizes
        timer = time.perf_counter if engine.profile_stages else None
        if timer:
            t0 = timer()
        lifted = _lift_rows(ring.one(), mul, scale, delta.data, self.leaf_lifts)
        boost = engine.boost
        if boost != 1.0:
            scale_float = ring.scale_float
            lifted = {key: scale_float(p, boost) for key, p in lifted.items()}
        if timer:
            t1 = timer()
            stats.record_stage("lift", t1 - t0)
        current = _sum_rows(copy, add_inplace, is_zero, lifted, self.leaf_group_of, True)
        if timer:
            stats.record_stage("group", timer() - t1)
        leaf_view = materialized[self.leaf_name]
        if timer:
            t0 = timer()
        stats.mirror_invalidations += leaf_view._add_rows(current)
        if timer:
            stats.record_stage("scatter", timer() - t0)
        view_sizes[self.leaf_name] = len(leaf_view)
        for step, current in _row_ladder(
            ring, materialized, self.maintained, current, stats, timer
        ):
            stats.delta_tuples_propagated += len(current)
            target = materialized.get(step.view_name)
            if target is None:
                continue  # not stored: the delta only passes through
            if timer:
                t0 = timer()
            stats.mirror_invalidations += target._add_rows(current)
            if timer:
                stats.record_stage("scatter", timer() - t0)
            view_sizes[step.view_name] = len(target)

    def columnar(self, engine, delta) -> None:
        """Run the ladder for one delta batch in bulk (columnar mode)."""
        stats = engine.stats
        stats.record_batch(delta)
        stats.columnar_batches += 1
        stats.fused_batches += 1
        ring = engine.plan.ring
        materialized = engine.materialized
        view_sizes = stats.view_sizes
        timer = time.perf_counter if engine.profile_stages else None
        columnar = delta.columnar()
        cols = [column_array(column) for column in columnar.columns]
        n = len(columnar.counts)
        # Lift: payload = (product of lifted attribute values) * multiplicity.
        if timer:
            t0 = timer()
        if self.leaf_lifts:
            block = None
            for position, fn in self.leaf_lifts:
                lifted = lift_column(ring, fn, cols[position])
                block = lifted if block is None else ring.mul_many(block, lifted)
            block = ring.scale_many(block, columnar.counts)
        else:
            block = ring.from_int_many(columnar.counts)
        if engine.boost != 1.0:
            block = ring.scale_float_many(block, engine.boost)
        if timer:
            stats.record_stage("lift", timer() - t0)
        cols, keys, block, n = self._group_compact(
            ring, cols, self.leaf_group_positions, block, n, stats, timer
        )
        leaf_view = materialized[self.leaf_name]
        if timer:
            t0 = timer()
        stats.mirror_invalidations += leaf_view.add_block(keys, block, distinct=True)
        if timer:
            stats.record_stage("scatter", timer() - t0)
        view_sizes[self.leaf_name] = len(leaf_view)
        for step in self.maintained:
            if not n:
                break
            cols, block, n = self._join(
                ring, materialized, step, cols, block, n, stats, timer
            )
            if not n:
                # Annihilated mid-join: nothing propagates further up.
                break
            target = materialized.get(step.view_name)
            cols, keys, block, n = self._group_compact(
                ring, cols, step.group_positions, block, n, stats, timer,
                target is not None,
            )
            stats.delta_tuples_propagated += n
            if target is None:
                continue  # not stored: the delta only passes through
            if timer:
                t0 = timer()
            stats.mirror_invalidations += target.add_block(keys, block, distinct=True)
            if timer:
                stats.record_stage("scatter", timer() - t0)
            view_sizes[step.view_name] = len(target)

    def derive(self, engine, view_name: str) -> Dict[str, Relation]:
        """Recompute ``view_name``, a view on this path the engine does
        not store, with the ladder :meth:`apply` runs.

        The whole contents of the stored view nearest below it on the
        path (the leaf at worst) go up as one delta would — as one block
        on a ``bulk`` path, else in row mode: every view is its child
        joined with its siblings, linear in each, so the child's contents
        give the view itself. The siblings must be stored. Returns the
        views the contents passed — all dropped ones, ``view_name`` last
        — and leaves the engine's counters alone.
        """
        ring = engine.plan.ring
        materialized = engine.materialized
        names = [step.view_name for step in self.steps]
        start = stop = names.index(view_name) + 1
        while start > 1 and names[start - 2] not in materialized:
            start -= 1
        below = materialized[names[start - 2] if start > 1 else self.leaf_name]
        steps = self.steps[start - 1 : stop]
        stats = EngineStatistics()
        derived: Dict[str, Relation] = {
            step.view_name: Relation(
                engine.tree.views[step.view_name].key, ring, name=step.view_name
            )
            for step in steps
        }
        if not self.bulk:
            for step, rows in _row_ladder(ring, materialized, steps, below.data, stats, None):
                derived[step.view_name].data = rows
            return derived
        keys = list(below.slots)
        n = len(keys)
        cols = [column_array(list(col)) for col in zip(*keys)]
        rows = np.fromiter(below.slots.values(), dtype=np.intp, count=n)
        block = ring.take(below.block, rows)
        for step in steps:
            if n:
                cols, block, n = self._join(
                    ring, materialized, step, cols, block, n, stats, None
                )
            if n:
                cols, keys, block, n = self._group_compact(
                    ring, cols, step.group_positions, block, n, stats, None
                )
                derived[step.view_name].data = dict(zip(keys, ring.block_payloads(block)))
        return derived

    def _join(self, ring, materialized, step, cols, block, n, stats, timer):
        """Probe ``step``'s siblings and multiply in its lifts: the
        running ``(cols, block, n)`` before grouping (``n == 0`` once the
        rows annihilated)."""
        for probe in step.probes:
            sibling = materialized[probe.sibling]
            index = sibling.ensure_index(probe.attrs)
            if timer:
                t0 = timer()
            cols, block, n = probe.run(
                cols, block, n, sibling, index, ring, stats, self._scratch
            )
            if timer:
                stats.record_stage("probe", timer() - t0)
            stats.columnar_steps += 1
            stats.fused_steps += 1
            if not n:
                return cols, block, 0
        if step.lifts:
            if timer:
                t0 = timer()
            for position, fn in step.lifts:
                block = ring.mul_many(block, lift_column(ring, fn, cols[position]))
            if timer:
                stats.record_stage("multiply", timer() - t0)
        return cols, block, n

    def _group_compact(
        self, ring, cols, group_positions, block, n, stats, timer, scatter=True
    ):
        """Group-sum by the key positions, then drop exact ring zeros.

        Returns ``(group_cols, keys, block, k)``: the gathered key
        columns (the running schema after projection), matching key
        tuples for the scatter (``None`` without ``scatter``: the view
        is not stored), and the compacted block.
        """
        if timer:
            t0 = timer()
        group_cols = [cols[p] for p in group_positions]
        gids, reps = _group_rows(group_cols, n, self._scratch)
        k = len(reps)
        if k != n:
            block = ring.sum_segments(block, gids, k)
            group_cols = [col[reps] for col in group_cols]
        mask = ring.is_zero_many(block)
        if mask.any():
            keep = np.flatnonzero(~mask)
            block = ring.take(block, keep)
            group_cols = [col[keep] for col in group_cols]
            k = len(keep)
        keys = _keys_of(group_cols, k) if scatter else None
        if timer:
            stats.record_stage("group", timer() - t0)
        return group_cols, keys, block, k


def compile_fused_path(engine, relation_name: str) -> FusedPath:
    """Compile one relation's maintenance path.

    Pure function of the static view tree, compiled once at engine
    construction. Row mode runs any path over any view form; columnar
    mode (``bulk``) needs slot-store views and bulk metadata on every
    lifting function of the path. An engine that keeps only the leaves
    (``engine.keeps``) maintains no step above the leaf.
    """
    leaf, leaf_lifts, inner = engine._paths[relation_name]
    schema = tuple(engine.query.schema_of(relation_name).attributes)
    bulk = engine._stored and all(map(bulk_liftable, leaf_lifts.values()))
    leaf_lift_items = tuple((schema.index(attr), fn) for attr, fn in leaf_lifts.items())
    leaf_group_positions = _positions(schema, tuple(leaf.key))
    schema_now = tuple(leaf.key)
    probe_steps = engine.probe_plan.path_steps[relation_name]
    steps: List[_FusedStep] = []
    for position, (view, lifts) in enumerate(inner):
        probes = []
        # The running rows are grouped by their whole key here (the leaf's
        # or the step below's view key), so a first probe on all of it
        # sees distinct hooks.
        grouped = list(range(len(schema_now)))
        for step in probe_steps[position]:
            sibling_key = engine.tree.views[step.sibling].key
            hook_positions = _positions(schema_now, tuple(step.attrs))
            keep_positions = tuple(
                i for i, attr in enumerate(sibling_key) if attr not in schema_now
            )
            whole = bool(sibling_key) and tuple(step.attrs) == tuple(sibling_key)
            distinct = bool(grouped) and not probes and sorted(hook_positions) == grouped
            probes.append(
                _FusedProbe(
                    step.sibling, tuple(step.attrs), hook_positions, keep_positions,
                    whole, distinct,
                )
            )
            schema_now = schema_now + tuple(sibling_key[i] for i in keep_positions)
        bulk = bulk and all(map(bulk_liftable, lifts.values()))
        steps.append(
            _FusedStep(
                view.name,
                tuple(probes),
                tuple((schema_now.index(attr), fn) for attr, fn in lifts.items()),
                _positions(schema_now, tuple(view.key)),
            )
        )
        schema_now = tuple(view.key)
    steps = tuple(steps)
    maintained = () if engine.keeps == "leaves" else steps
    return FusedPath(
        leaf.name, leaf_lift_items, leaf_group_positions, steps, maintained, bulk
    )
