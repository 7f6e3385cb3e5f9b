"""Fused per-path kernels: the columnar maintenance program.

One :class:`FusedPath` per (relation, path), compiled from the static
view tree at engine construction, maintains a whole delta batch at once:
the running delta is key *column arrays* plus one contiguous payload
block, and lift -> probe-gather -> multiply -> group-sum run as bulk
ring kernels chained with numpy index arithmetic — no payload object
and no Python-level loop per delta row:

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
  hook value columns and row slots; patched, not rebuilt, when the view
  gains or loses keys): probe hooks are matched against buckets
  numerically — through a hook-code -> bucket table when the index's
  hook columns are integers of a packed range within ``_DIRECT_LIMIT``,
  via per-column ``searchsorted`` otherwise — match pairs are expanded
  by integer index arithmetic and payloads fetched from the store's
  block with ``ring.take``;
- **ordering discipline** — hooks are visited in first-seen order,
  bucket entries outer, delta rows inner, and within-group sums run over
  ascending original row order, so results do not depend on how the
  grouping was computed (addressed, sorted or the tuple-dict fallback).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.data.columnar import bulk_liftable, column_array, lift_column
from repro.data.relation import Relation, _positions
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
    (the per-tuple probe loop's order). Returns ``(left_rows,
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
# Lifting
# ----------------------------------------------------------------------


def _lift_block(ring, fn, arr: np.ndarray):
    """Bulk-lift one attribute column (as an ndarray) into a payload block.

    Numeric columns whose lift transform is ``float`` (or absent) feed
    ``ring.lift_many`` the array directly — ``np.asarray(..., float64)``
    inside the kernel produces bit-identical values to the per-element
    ``float(v)`` loop. Everything else round-trips through the original
    Python objects via ``tolist``.
    """
    slot = getattr(fn, "bulk_slot", None)
    if slot is not None:
        transform = getattr(fn, "bulk_transform", None)
        if transform in (None, float) and arr.dtype.kind in "iufb":
            return ring.lift_many(slot, arr)
    return lift_column(ring, fn, arr.tolist())


_EMPTY_IDX = np.empty(0, dtype=np.intp)


class _HookMatch:
    """Cached hook-matching structures for one index's probe arrays.

    ``table`` maps a packed hook code to its bucket position (-1: no
    bucket) and ``ranges`` holds each hook column's ``(min, span)``
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

    def __init__(self, table, ranges):
        self.table = table
        self.ranges = ranges
        self.sorted_built = False
        self.col_uniques = self.m_sorted = self.m_order = None
        self.hook_index: Optional[Dict[Any, int]] = None


def _hook_table(cols):
    """``(table, ranges)`` of :class:`_HookMatch` for an index's hook
    columns, ``(None, None)`` when they are not integers of a packed
    range within ``_DIRECT_LIMIT``."""
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
    table[packed] = np.arange(len(packed), dtype=np.intp)
    return table, ranges


def _hook_match(arrays) -> _HookMatch:
    """The index's matching structures, rebuilt after ``StoreIndex.patch``
    reset them (a bucket appeared or vanished)."""
    match = arrays.match
    if match is None:
        match = arrays.match = _HookMatch(*_hook_table(arrays.hook_cols))
    return match


def _sorted_codes(arrays, match: _HookMatch) -> Optional[List[np.ndarray]]:
    """``match.col_uniques`` with the sorted form built (``None`` when
    the index's hook columns resist integer encoding)."""
    if not match.sorted_built:
        match.sorted_built = True
        col_uniques: List[np.ndarray] = []
        comb = None
        card = 1
        for col in arrays.hook_cols:
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
        match.m_sorted, match.m_order = comb[order], order
    return match.col_uniques


def _hook_index_of(arrays, match: _HookMatch) -> Dict[Any, int]:
    hook_index = match.hook_index
    if hook_index is None:
        cols = arrays.hook_cols
        if len(cols) == 1:
            hooks: Iterable = cols[0].tolist()
        else:
            hooks = zip(*(col.tolist() for col in cols))
        hook_index = match.hook_index = {
            hook: b for b, hook in enumerate(hooks)
        }
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
# Compiled path
# ----------------------------------------------------------------------


class _FusedProbe:
    """One compiled sibling probe: pure schema positions, no closures."""

    __slots__ = ("sibling", "attrs", "hook_positions", "keep_positions")

    def __init__(
        self,
        sibling: str,
        attrs: Tuple[str, ...],
        hook_positions: Tuple[int, ...],
        keep_positions: Tuple[int, ...],
    ):
        self.sibling = sibling
        self.attrs = attrs
        #: Positions of the probe attributes in the *running* schema.
        self.hook_positions = hook_positions
        #: Positions (in the sibling key) of its non-shared suffix.
        self.keep_positions = keep_positions

    def run(self, cols, block, n, sibling, index, ring, stats, scratch):
        """Probe one sibling: returns the widened ``(cols, block, n)``.

        Delta rows are grouped by hook (first-seen order), each distinct
        hook is looked up once, and surviving (group, bucket) pairs are
        expanded into match-pair index arrays — gather + multiply then
        run as three kernel calls over the whole batch.
        """
        hook_cols = [cols[p] for p in self.hook_positions]
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
        index.probes += k
        index.hits += hits
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
            order = np.argsort(gids, kind="stable")
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
        new_cols = [col[left] for col in cols]
        new_cols.extend(arrays.key_cols[p][right] for p in self.keep_positions)
        product = ring.mul_many(
            ring.take(block, left), ring.take(sibling.block, arrays.slots[right])
        )
        return new_cols, product, len(left)


class _FusedStep:
    """One inner view of a fused ladder: probes, lifts, projection."""

    __slots__ = ("view_name", "probes", "lifts", "group_positions")

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


class FusedPath:
    """The fused kernel of one relation's maintenance path.

    :meth:`apply` is the batch counterpart of the per-tuple loop in
    ``FIVMEngine.apply``: same ladder (lift, sibling joins, marginalize,
    fold into the views the engine stores — a dropped view costs its
    grouping only), and ``columnar_batches``/``columnar_steps``
    advance together with ``fused_batches``/``fused_steps``.
    :meth:`derive` runs the same ladder over a stored view's whole
    contents to recompute a view the engine dropped.
    """

    __slots__ = (
        "leaf_name",
        "leaf_lifts",
        "leaf_group_positions",
        "steps",
        "_scratch",
    )

    def __init__(
        self,
        leaf_name: str,
        leaf_lifts: Tuple[Tuple[int, Callable], ...],
        leaf_group_positions: Tuple[int, ...],
        steps: Tuple[_FusedStep, ...],
    ):
        self.leaf_name = leaf_name
        self.leaf_lifts = leaf_lifts  # (position in the delta schema, lift fn)
        self.leaf_group_positions = leaf_group_positions
        self.steps = steps
        self._scratch = _Scratch()

    def apply(self, engine, delta) -> None:
        """Run the fused ladder for one delta batch."""
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
                lifted = _lift_block(ring, fn, cols[position])
                block = lifted if block is None else ring.mul_many(block, lifted)
            block = ring.scale_many(block, columnar.counts)
        else:
            block = ring.from_int_many(columnar.counts)
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
        for step in self.steps:
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
        path (the leaf at worst) go up as one block, as a delta would:
        every view is its child joined with its siblings, linear in each,
        so the child's contents give the view itself. The siblings must
        be stored. Returns the views the block passed — all dropped ones,
        ``view_name`` last — and leaves the engine's counters alone.
        """
        ring = engine.plan.ring
        materialized = engine.materialized
        names = [step.view_name for step in self.steps]
        start = stop = names.index(view_name) + 1
        while start > 1 and names[start - 2] not in materialized:
            start -= 1
        below = materialized[names[start - 2] if start > 1 else self.leaf_name]
        keys = list(below.slots)
        n = len(keys)
        cols = [column_array(list(col)) for col in zip(*keys)]
        rows = np.fromiter(below.slots.values(), dtype=np.intp, count=n)
        block = ring.take(below.block, rows)
        stats = EngineStatistics()
        derived: Dict[str, Relation] = {}
        for step in self.steps[start - 1 : stop]:
            view = engine.tree.views[step.view_name]
            relation = derived[view.name] = Relation(view.key, ring, name=view.name)
            if n:
                cols, block, n = self._join(
                    ring, materialized, step, cols, block, n, stats, None
                )
            if n:
                cols, keys, block, n = self._group_compact(
                    ring, cols, step.group_positions, block, n, stats, None
                )
                relation.data = dict(zip(keys, ring.block_payloads(block)))
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
                block = ring.mul_many(block, _lift_block(ring, fn, cols[position]))
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


def compile_fused_path(engine, relation_name: str) -> Optional[FusedPath]:
    """Compile one relation's maintenance path into a fused kernel.

    Pure function of the static view tree, compiled once at engine
    construction. Returns ``None`` when a lifting function on the path
    lacks bulk metadata — the per-tuple path then handles every batch
    for this relation.
    """
    leaf, leaf_lifts, inner = engine._paths[relation_name]
    schema = tuple(engine.query.schema_of(relation_name).attributes)
    leaf_lift_items = []
    for attr, fn in leaf_lifts.items():
        if not bulk_liftable(fn):
            return None
        leaf_lift_items.append((schema.index(attr), fn))
    leaf_group_positions = _positions(schema, tuple(leaf.key))
    schema_now = tuple(leaf.key)
    probe_steps = engine.probe_plan.path_steps[relation_name]
    steps: List[_FusedStep] = []
    for position, (view, lifts) in enumerate(inner):
        probes = []
        for step in probe_steps[position]:
            sibling_key = engine.tree.views[step.sibling].key
            hook_positions = _positions(schema_now, tuple(step.attrs))
            keep_positions = tuple(
                i for i, attr in enumerate(sibling_key) if attr not in schema_now
            )
            probes.append(
                _FusedProbe(
                    step.sibling, tuple(step.attrs), hook_positions, keep_positions
                )
            )
            schema_now = schema_now + tuple(sibling_key[i] for i in keep_positions)
        lift_items = []
        for attr, fn in lifts.items():
            if not bulk_liftable(fn):
                return None
            lift_items.append((schema_now.index(attr), fn))
        steps.append(
            _FusedStep(
                view.name,
                tuple(probes),
                tuple(lift_items),
                _positions(schema_now, tuple(view.key)),
            )
        )
        schema_now = tuple(view.key)
    return FusedPath(
        leaf.name, tuple(leaf_lift_items), leaf_group_positions, tuple(steps)
    )
