"""Fused per-path kernels: bit-equality, probe arrays, checkpoints.

The fused program (:mod:`repro.engine.compile`) promises *bit-equal*
results to the per-tuple path — not merely numerically close — because
it replays the exact same float summation orders. These tests sweep
rings, batch sizes and delete-heavy cancellation streams against that
promise (with re-evaluation as the third voice), and pin down the
supporting invariants: cached probe arrays can never serve stale state,
and fused counters survive checkpoint round-trips.
"""

import pickle
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data import Relation, inserts
from repro.data.columnar import column_array
from repro.data.index import IndexedRelation
from repro.data.store import ProbeArrays, SlotStore
from repro.datasets import (
    RetailerConfig,
    UpdateStream,
    continuous_covar_features,
    generate_retailer,
    retailer_query,
    retailer_row_factories,
    retailer_variable_order,
    toy_covar_continuous_query,
    toy_database,
    toy_variable_order,
)
from repro.engine import FIVMEngine, NaiveEngine
from repro.engine import compile as fused_program
from repro.engine.compile import (
    _expand_pairs,
    _group_rows,
    _group_rows_dict,
    _match_reps,
    _Scratch,
    compile_fused_path,
)
from repro.rings import CountSpec, CovarSpec
from repro.rings.cofactor import CofactorLayout, NumericCofactorRing
from tests.conftest import assert_same_as_rebuilt, per_tuple_path

R_SCHEMA = ("A", "B")


def covar_query(limit=2):
    return retailer_query(
        CovarSpec(continuous_covar_features(limit=limit), backend="numeric")
    )


def retailer_setup(seed=11, inventory_rows=300, insert_ratio=0.5):
    config = RetailerConfig(
        locations=4, dates=6, items=20, inventory_rows=inventory_rows, seed=seed
    )
    database = generate_retailer(config)
    stream = UpdateStream(
        database,
        retailer_row_factories(config, database),
        targets=("Inventory",),
        batch_size=64,
        insert_ratio=insert_ratio,
        seed=seed,
    )
    return database, stream


def payloads_identical(a, b):
    """Bit-for-bit payload equality (never ``close_to``)."""
    if hasattr(a, "c"):
        return (
            a.c == b.c and bool((a.s == b.s).all()) and bool((a.q == b.q).all())
        )
    return a == b


def assert_views_bit_equal(fused, reference):
    # Both store the same views; dropped ones are compared re-derived.
    assert fused.materialized.keys() == reference.materialized.keys()
    for name in fused.tree.views:
        # A store's ``data`` is a fresh mapping of row copies: take it once.
        mine, theirs = fused.view(name).data, reference.view(name).data
        assert list(mine) == list(theirs), name
        for key, payload in mine.items():
            assert payloads_identical(payload, theirs[key]), (name, key)


def toy_engine():
    """The toy query over the numeric COVAR ring (B/C/D are integers, so
    every float sum is exact) — the smallest engine with fused paths."""
    engine = FIVMEngine(toy_covar_continuous_query(), order=toy_variable_order())
    engine.initialize(toy_database())
    return engine


class TestFusedBitEquality:
    """Fused vs forced per-tuple vs re-evaluation, across rings and
    batch sizes."""

    @pytest.mark.parametrize("batch_size", (16, 100, 500))
    @pytest.mark.parametrize(
        "query_ring",
        ("covar", "count"),
    )
    def test_stream_sweep(self, query_ring, batch_size):
        database, stream = retailer_setup()
        events = list(stream.tuples(800))
        query_of = covar_query if query_ring == "covar" else (
            lambda: retailer_query(CountSpec())
        )
        fused = FIVMEngine(query_of(), order=retailer_variable_order())
        per_tuple = FIVMEngine(query_of(), order=retailer_variable_order())
        naive = NaiveEngine(query_of(), order=retailer_variable_order())
        for engine in (fused, per_tuple, naive):
            engine.initialize(database)
        fused.apply_stream(iter(events), batch_size=batch_size)
        naive.apply_stream(iter(events), batch_size=batch_size)
        with per_tuple_path():
            per_tuple.apply_stream(iter(events), batch_size=batch_size)
        if query_ring == "covar":
            if batch_size >= 100:
                assert fused.stats.fused_batches > 0
        else:
            # Scalar rings never leave their dict fast paths.
            assert fused.stats.fused_batches == 0
        assert fused.stats.fused_batches == fused.stats.columnar_batches
        assert per_tuple.stats.fused_batches == 0
        assert_views_bit_equal(fused, per_tuple)
        assert fused.stats.delta_tuples_propagated == (
            per_tuple.stats.delta_tuples_propagated
        )
        if query_ring == "count":
            assert fused.result() == naive.result()
        else:
            assert fused.result().close_to(naive.result(), 1e-8)

    def test_delete_heavy_cancellation(self):
        """Insert-then-delete streams cancel to the exact same views."""
        database, stream = retailer_setup(insert_ratio=0.2)
        warm = list(stream.tuples(400))
        fused = FIVMEngine(covar_query(), order=retailer_variable_order())
        per_tuple = FIVMEngine(covar_query(), order=retailer_variable_order())
        for engine in (fused, per_tuple):
            engine.initialize(database)
        fused.apply_stream(iter(warm), batch_size=128)
        with per_tuple_path():
            per_tuple.apply_stream(iter(warm), batch_size=128)
        assert fused.stats.fused_batches > 0
        assert per_tuple.stats.fused_batches == 0
        assert_views_bit_equal(fused, per_tuple)

    def test_exact_insert_delete_annihilation(self):
        """+row then -row in separate batches leaves no residue."""
        engine = toy_engine()
        rows = [(f"a{i}", i) for i in range(40)]
        before = {name: dict(engine.view(name).data) for name in engine.tree.views}
        engine.apply("R", inserts(R_SCHEMA, rows))
        delta = inserts(R_SCHEMA, rows)
        engine.apply("R", delta.neg())
        assert engine.stats.fused_batches == 2
        for name, data in before.items():
            assert engine.view(name).data == data, name


class TestProbeArrays:
    """Cached probe arrays can never serve a probe stale state: they hold
    no payloads, and every key insert or delete is patched into them."""

    def ring(self):
        return NumericCofactorRing(CofactorLayout(("x",)))

    def indexed(self):
        ring = self.ring()
        rel = SlotStore(("A", "B"), ring, support=(0,))
        block = ring.make_block(
            [ring.lift(0, float(v)) for v in (1.0, 2.0, 3.0)]
        )
        rel.add_block([(1, 10), (2, 20), (2, 21)], block)
        return ring, rel, rel.ensure_index(("A",))

    def test_layout_matches_buckets(self):
        ring, rel, index = self.indexed()
        arrays = index.probe_arrays()
        assert index.cache is arrays and index.probe_arrays() is arrays
        assert len(arrays.starts) == len(index.buckets)
        total = 0
        for b, (hook, bucket) in enumerate(index.buckets.items()):
            assert arrays.hook_cols[0][b] == hook
            start, count = arrays.starts[b], arrays.counts[b]
            assert count == len(bucket)
            assert [
                tuple(col[i] for col in arrays.key_cols)
                for i in range(start, start + count)
            ] == list(bucket.keys())
            assert arrays.slots[start : start + count].tolist() == list(
                bucket.values()
            )
            total += count
        assert total == len(rel) == len(arrays.slots)
        gathered = ring.take(rel.block, arrays.slots)
        assert gathered.s[:, 0].tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize(
        "mutate", ("add_inplace", "add_block", "delete_inplace", "delete_block")
    )
    def test_every_key_change_is_patched_into_the_arrays(self, mutate):
        ring, rel, index = self.indexed()
        arrays = index.probe_arrays()
        payload = ring.lift(0, 5.0)
        gone = ring.neg(ring.lift(0, 1.0))  # cancels (1, 10) exactly
        if mutate == "add_inplace":
            other = Relation(("A", "B"), ring)
            other.data = {(9, 90): payload}
            dropped = rel.add_inplace(other)
        elif mutate == "add_block":
            dropped = rel.add_block([(9, 90)], ring.make_block([payload]))
        elif mutate == "delete_inplace":
            other = Relation(("A", "B"), ring)
            other.data = {(1, 10): gone}
            dropped = rel.add_inplace(other)
        else:
            dropped = rel.add_block([(1, 10)], ring.make_block([gone]))
        assert dropped == 0 and index.cache is arrays
        assert arrays.match is None  # a bucket came or went
        assert len(arrays.slots) == len(rel) == index.entry_count()
        assert_same_as_rebuilt(index)

    def test_a_key_the_columns_cannot_hold_drops_the_arrays(self):
        ring, rel, index = self.indexed()
        index.probe_arrays()
        assert rel.add_block([("nine", 90)], ring.make_block([ring.lift(0, 5.0)])) == 1
        assert index.cache is None
        assert index.probe_arrays().key_cols[0].dtype == object
        # A wider number is absorbed the way a rebuild would type it.
        ring, rel, index = self.indexed()
        index.probe_arrays()
        assert rel.add_block([(2.5, 7)], ring.make_block([ring.lift(0, 5.0)])) == 0
        assert index.cache.key_cols[0].dtype == np.float64
        assert_same_as_rebuilt(index)

    @pytest.mark.parametrize("mutate", ("add_inplace", "add_block", "rescale"))
    def test_payload_updates_keep_the_arrays_and_show_through(self, mutate):
        ring, rel, index = self.indexed()
        arrays = index.probe_arrays()
        payload = ring.lift(0, 5.0)
        if mutate == "add_inplace":
            other = Relation(("A", "B"), ring)
            other.data = {(2, 20): payload}
            assert rel.add_inplace(other) == 0
            expected = [1.0, 7.0, 3.0]
        elif mutate == "add_block":
            assert rel.add_block([(2, 20)], ring.make_block([payload])) == 0
            expected = [1.0, 7.0, 3.0]
        else:
            rel.rescale(0.5)
            expected = [0.5, 1.0, 1.5]
        assert index.cache is arrays
        # The arrays carry slots, not payloads: the gather reads the block.
        assert ring.take(rel.block, arrays.slots).s[:, 0].tolist() == expected
        assert [p.s[0] for _, p in index.matches(2)] == expected[1:]

    def test_add_inplace_drops_columnar_cache(self):
        """Regression: the indexed add_inplace branch bypassed the base
        class and left ``Relation.columnar()``'s cache stale."""
        rel = IndexedRelation(("A", "B"))  # default Z multiplicities
        rel.data = {(1, 10): 2, (2, 20): 1}
        rel.ensure_index(("A",))
        first = rel.columnar()
        other = Relation(("A", "B"))
        other.data = {(7, 70): 3}
        rel.add_inplace(other)
        refreshed = rel.columnar()
        assert refreshed is not first
        assert len(refreshed.counts) == len(rel.data)

    def test_stale_arrays_never_reach_a_fused_probe(self):
        """End to end: mutate a sibling between fused batches and check
        the next batch probes the *new* contents."""
        engine = toy_engine()
        oracle = toy_engine()
        # Mutate S (the sibling view side) between two R batches: the R
        # path probes V_S, whose probe arrays the new key must have dropped.
        rows = [(f"b{i}", i) for i in range(20)]
        s_rows = [("b1", 1, 1), ("b2", 2, 2)]
        more = [(f"b{i}", i + 100) for i in range(30)]
        steps = [
            ("R", inserts(R_SCHEMA, rows)),
            ("S", inserts(("A", "C", "D"), s_rows)),
            ("R", inserts(R_SCHEMA, more)),
        ]
        for name, delta in steps:
            engine.apply(name, delta.copy())
        with per_tuple_path():
            for name, delta in steps:
                oracle.apply(name, delta.copy())
        assert oracle.stats.fused_batches == 0
        assert engine.stats.fused_batches >= 2
        assert_views_bit_equal(engine, oracle)
        assert engine.result() == oracle.result()


class TestGroupingKernels:
    def test_first_seen_order_matches_dict_pass(self):
        rng = np.random.default_rng(3)
        cols = [
            np.asarray(rng.integers(0, 7, size=200)),
            np.asarray(rng.integers(0, 5, size=200)),
        ]
        gids, reps = _group_rows(cols, 200, _Scratch())
        seen = {}
        for i, row in enumerate(zip(cols[0].tolist(), cols[1].tolist())):
            expected = seen.setdefault(row, len(seen))
            assert gids[i] == expected
        assert [
            (cols[0][r], cols[1][r]) for r in reps.tolist()
        ] == list(seen.keys())

    def test_object_columns_take_dict_encoding(self):
        cols = [column_array([("t", 1), ("t", 2), ("t", 1)])]
        assert cols[0].dtype.kind == "O"
        gids, reps = _group_rows(cols, 3, _Scratch())
        assert gids.tolist() == [0, 1, 0]
        assert reps.tolist() == [0, 1]

    def test_expand_pairs_order(self):
        members = np.asarray([3, 0, 2, 1], dtype=np.intp)  # two groups
        left, right = _expand_pairs(
            members,
            np.asarray([0, 2], dtype=np.intp),
            np.asarray([2, 2], dtype=np.intp),
            np.asarray([5, 9], dtype=np.intp),
            np.asarray([2, 1], dtype=np.intp),
        )
        # Group 0: entries 5,6 outer x members 3,0 inner; group 1: entry 9.
        assert left.tolist() == [3, 0, 3, 0, 2, 1]
        assert right.tolist() == [5, 5, 6, 6, 9, 9]


# ----------------------------------------------------------------------
# Addressing == sorting == the dict pass
# ----------------------------------------------------------------------

#: Key columns by how ``_encode_column`` codes them: range-coded integers
#: (signed, narrow, and ``uint64`` past the intp range), integers too far
#: apart to range-code, and the bool / float / str / object encoders.
COLUMN_VALUES = (
    (st.integers(-5, 5), np.int64),
    (st.integers(-3, 3), np.int32),
    (st.integers(2**64 - 4, 2**64 - 1), np.uint64),
    (st.sampled_from([-(2**62), -1, 0, 2**62]), np.int64),
    (st.booleans(), np.bool_),
    (st.sampled_from([-0.0, 0.0, 1.5, -2.5]), np.float64),
    (st.sampled_from(["a", "b", "c"]), None),
    (st.sampled_from([("t", 1), ("t", 2), None, "t"]), None),
)


@st.composite
def key_columns(draw, rows=st.integers(0, 24), width=st.integers(1, 3)):
    n = draw(rows)
    cols = []
    for _ in range(draw(width)):
        values, dtype = draw(st.sampled_from(COLUMN_VALUES))
        column = draw(st.lists(values, min_size=n, max_size=n))
        cols.append(column_array(column) if dtype is None else np.array(column, dtype=dtype))
    return cols, n


def limits(range_limit, direct_limit, code_limit=1 << 62):
    """The three module constants patched down, so a handful of rows
    lands on either side of each."""
    return mock.patch.multiple(
        fused_program,
        _RANGE_LIMIT=range_limit,
        _DIRECT_LIMIT=direct_limit,
        _CODE_LIMIT=code_limit,
    )


drawn_limits = st.tuples(
    st.sampled_from([1, 4, 1 << 20]),
    st.sampled_from([0, 6, 40, 1 << 17]),
    st.sampled_from([2, 30, 1 << 62]),
)


def grouped_by_hand(cols, n):
    seen = {}
    return [
        seen.setdefault(tuple(col[i].item() if col.dtype.kind != "O" else col[i] for col in cols), len(seen))
        for i in range(n)
    ]


def assert_groups_equal(got, want):
    for ours, theirs in zip(got, want):
        assert ours.dtype == np.intp
        assert ours.tolist() == theirs.tolist()


class TestGroupingPaths:
    """``_group_rows`` returns the dict pass's ``(gids, reps)`` whichever
    way it computed them: addressed, one packed ``np.unique``, or the
    dict pass itself after the code word overflowed."""

    @given(key_columns(), drawn_limits)
    def test_every_path_is_the_dict_pass(self, drawn, patched):
        cols, n = drawn
        want = _group_rows_dict(cols, n)
        assert want[0].tolist() == grouped_by_hand(cols, n)
        assert_groups_equal(_group_rows(cols, n, _Scratch()), want)
        with limits(*patched):
            got = _group_rows(cols, n, _Scratch())
        assert_groups_equal(got, want)
        if len(want[1]) == n:
            # The identity contract _FusedProbe.run tests with ``is``.
            assert got[0] is got[1]

    @given(st.lists(key_columns(width=st.integers(1, 2)), min_size=2, max_size=5))
    def test_one_scratch_across_shrinking_and_growing_code_spaces(self, batches):
        """The addressed table is never cleared: a cell another call
        wrote must not surface in this one."""
        scratch = _Scratch()
        for cols, n in batches:
            assert_groups_equal(_group_rows(cols, n, scratch), _group_rows_dict(cols, n))

    @pytest.mark.parametrize("direct_limit", (0, 1 << 17))
    def test_the_edges(self, direct_limit):
        scratch = _Scratch()
        with limits(1 << 20, direct_limit):
            gids, reps = _group_rows([], 4, scratch)  # no columns: one group
            assert gids.tolist() == [0, 0, 0, 0] and reps.tolist() == [0]
            gids, reps = _group_rows([], 0, scratch)
            assert gids.tolist() == [] and reps.tolist() == []
            gids, reps = _group_rows([np.array([], dtype=np.int64)], 0, scratch)
            assert gids is reps and gids.tolist() == []
            gids, reps = _group_rows([np.full(5, 7)], 5, scratch)  # all equal
            assert gids.tolist() == [0] * 5 and reps.tolist() == [0]
            gids, reps = _group_rows([np.array([3, 1, 2])], 3, scratch)  # all distinct
            assert gids is reps and gids.tolist() == [0, 1, 2]

    def test_range_codes_that_overflow_the_word_retry_densely(self):
        """Four columns spanning 2**16 each overflow a 2**62 word as range
        codes, not as dense ones: still no dict pass."""
        cols = [np.array([0, 1 << 16, 0, 5]) for _ in range(4)]
        with mock.patch.object(
            fused_program, "_group_rows_dict", side_effect=AssertionError
        ):
            gids, reps = _group_rows(cols, 4, _Scratch())
        assert gids.tolist() == [0, 1, 0, 2] and reps.tolist() == [0, 1, 3]


PROBE_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint64)


def matched_by_hand(hook_cols, reps, index_hooks):
    position = {hook: b for b, hook in enumerate(index_hooks)}
    keep, buckets = [], []
    for g, row in enumerate(reps.tolist()):
        b = position.get(tuple(int(col[row]) for col in hook_cols))
        if b is not None:
            keep.append(g)
            buckets.append(b)
    return keep, buckets


def match_three_ways(hook_cols, reps, arrays):
    """``_match_reps`` through the table, the sorted codes and the dict."""
    found = []
    for direct_limit, code_limit in ((1 << 17, 1 << 62), (0, 1 << 62), (0, 1)):
        arrays.match = None
        with limits(1 << 20, direct_limit, code_limit):
            keep, buckets = _match_reps(hook_cols, reps, arrays)
            match = arrays.match
        assert (match.table is not None) == bool(direct_limit)
        assert (match.hook_index is not None) == (code_limit == 1)
        found.append((keep.tolist(), buckets.tolist()))
    arrays.match = None
    return found


class TestHookMatchingPaths:
    @given(st.data())
    def test_table_sorted_codes_and_dict_agree(self, data):
        width = data.draw(st.integers(1, 2))
        base = data.draw(st.sampled_from([-40, 0, 30000]))
        values = st.integers(base, base + 9)
        index_hooks = data.draw(
            st.lists(st.tuples(*[values] * width), min_size=1, max_size=12, unique=True)
        )
        index_cols = tuple(np.array(col, dtype=np.int64) for col in zip(*index_hooks))
        arrays = ProbeArrays(None, None, index_cols, None, None)
        # Probe values below, between and above the index's, in a column
        # of another width or signedness wherever the values fit it.
        n = data.draw(st.integers(1, 10))
        probe_cols = []
        for _ in range(width):
            column = data.draw(
                st.lists(st.integers(base - 3, base + 12), min_size=n, max_size=n)
            )
            fitting = [
                dtype for dtype in PROBE_DTYPES
                if np.iinfo(dtype).min <= min(column) and max(column) <= np.iinfo(dtype).max
            ]
            probe_cols.append(np.array(column, dtype=data.draw(st.sampled_from(fitting))))
        gids, reps = _group_rows(probe_cols, n, _Scratch())
        want = matched_by_hand(probe_cols, reps, index_hooks)
        for got in match_three_ways(probe_cols, reps, arrays):
            assert got == want

    def test_probe_dtype_that_cannot_hold_the_index_range_matches_nothing(self):
        arrays = ProbeArrays(None, None, (np.array([30000, 30001]),), None, None)
        probes = [np.array([7, 120], dtype=np.int8)]
        for got in match_three_ways(probes, np.arange(2), arrays):
            assert got == ([], [])
        # ... and unsigned probes against negative hooks, signed against
        # hooks past the intp range.
        arrays = ProbeArrays(None, None, (np.array([-2, -1]),), None, None)
        for got in match_three_ways([np.array([254, 255], dtype=np.uint8)], np.arange(2), arrays):
            assert got == ([], [])
        top = 2**64 - 1
        arrays = ProbeArrays(None, None, (np.array([top - 1, top], dtype=np.uint64),), None, None)
        for got in match_three_ways([np.array([-1, -2])], np.arange(2), arrays):
            assert got == ([], [])
        same = [np.array([top, 5, top - 1], dtype=np.uint64)]
        for got in match_three_ways(same, np.arange(3), arrays):
            assert got == ([0, 2], [1, 0])

    def test_float_probes_take_the_sorted_codes(self):
        """3.0 matches the integer hook 3 — by comparison, not by table."""
        arrays = ProbeArrays(None, None, (np.array([1, 3]),), None, None)
        keep, buckets = _match_reps([np.array([3.0, 2.5, 1.0])], np.arange(3), arrays)
        assert arrays.match.table is not None and arrays.match.sorted_built
        assert (keep.tolist(), buckets.tolist()) == ([0, 2], [1, 0])

    def test_buckets_added_and_removed_by_patch_reach_every_path(self):
        ring = NumericCofactorRing(CofactorLayout(("x",)))
        store = SlotStore(("A", "B"), ring, support=(0,))
        store.add_block(
            [(1, 10), (2, 20), (2, 21)],
            ring.make_block([ring.lift(0, float(v)) for v in (1.0, 2.0, 3.0)]),
        )
        index = store.ensure_index(("A",))
        arrays = index.probe_arrays()
        probes = [np.array([0, 1, 2, 9, 40], dtype=np.int16)]
        reps = np.arange(5)

        def check():
            hooks = [(hook,) for hook in index.buckets]
            want = matched_by_hand(probes, reps, hooks)
            keep, buckets = _match_reps(probes, reps, arrays)
            assert arrays.match.table is not None
            assert (keep.tolist(), buckets.tolist()) == want
            for got in match_three_ways(probes, reps, arrays):
                assert got == want
            return want

        assert check() == ([1, 2], [0, 1])
        store.add_block([(9, 90), (40, 1)], ring.make_block([ring.lift(0, 5.0)] * 2))
        assert index.cache is arrays and arrays.match is None  # patched, table dropped
        assert check() == ([1, 2, 3, 4], [0, 1, 2, 3])
        store.add_block([(1, 10)], ring.make_block([ring.neg(ring.lift(0, 1.0))]))
        assert index.cache is arrays and arrays.match is None
        assert check() == ([2, 3, 4], [0, 1, 2])


# ----------------------------------------------------------------------
# A count guard, not a timing guard
# ----------------------------------------------------------------------


class _CountingNumpy:
    """``numpy`` as ``repro.engine.compile`` sees it, counting each
    sorting entry point the module reaches for."""

    COUNTED = ("unique", "argsort", "searchsorted", "lexsort", "sort")

    def __init__(self):
        self.calls = Counter()

    def __getattr__(self, name):
        if name in self.COUNTED:
            self.calls[name] += 1
        return getattr(np, name)


def sort_calls_in_a_bulk_batch():
    """Sorting calls ``compile.py`` makes for one warm ~1000-row batch.

    The batch is shaped like ``retailer_covar_bulk``'s: Inventory rows
    over 32 locations x 90 dates x 900 items, so the leaf group-by spans
    2.6M codes and sorts while every other grouping and every hook match
    fits its table.
    """
    config = RetailerConfig(
        locations=32, dates=90, items=900, inventory_rows=3000, seed=5
    )
    database = generate_retailer(config)
    engine = FIVMEngine(covar_query(limit=3), order=retailer_variable_order())
    engine.initialize(database)
    stream = UpdateStream(
        database,
        retailer_row_factories(config, database),
        targets=("Inventory",),
        batch_size=1000,
        insert_ratio=0.5,
        seed=5,
    )
    engine.apply(*stream.next_batch())  # probe arrays and hook tables built
    name, batch = stream.next_batch()
    # One key twice (other units), so the leaf group-by is not the identity.
    row = next(iter(batch.data))
    batch.data[row[:3] + (row[3] + 1,)] = 1
    assert name == "Inventory" and 990 < len(batch) < 1010
    counting = _CountingNumpy()
    with mock.patch.object(fused_program, "np", counting):
        engine.apply(name, batch)
    assert engine.stats.fused_batches == 2
    return dict(counting.calls)


def test_sort_calls_in_a_bulk_batch():
    """Pinned: 1 ``np.unique`` (the leaf group-by, 2.6M codes) and 2
    ``np.argsort`` (its first-seen remap, and the member order of the
    one probe whose hooks repeat, ``ksn``); no ``searchsorted``, no other
    sort. With every grouping a sort the same batch took 16 ``np.unique``,
    5 ``np.argsort`` and 7 ``np.searchsorted``. A silent fall back from
    addressing to sorting changes these numbers — no clock involved."""
    assert sort_calls_in_a_bulk_batch() == {"unique": 1, "argsort": 2}


class TestCheckpointRoundTrip:
    def test_fused_counters_survive_snapshot(self):
        database, stream = retailer_setup()
        events = list(stream.tuples(600))
        engine = FIVMEngine(covar_query(), order=retailer_variable_order())
        engine.initialize(database)
        engine.apply_stream(iter(events[:300]), batch_size=100)
        assert engine.stats.fused_batches > 0
        snapshot = pickle.loads(pickle.dumps(engine.export_state()))
        clone = FIVMEngine(covar_query(), order=retailer_variable_order())
        clone.import_state(snapshot)
        for field in (
            "fused_batches",
            "fused_steps",
            "mirror_hits",
            "mirror_builds",
            "mirror_invalidations",
        ):
            assert getattr(clone.stats, field) == getattr(
                engine.stats, field
            ), field
        engine.apply_stream(iter(events[300:]), batch_size=100)
        clone.apply_stream(iter(events[300:]), batch_size=100)
        assert_views_bit_equal(clone, engine)
        assert clone.stats.fused_batches == engine.stats.fused_batches

    def test_restored_engine_keeps_fused_paths(self):
        engine = toy_engine()
        clone = FIVMEngine(toy_covar_continuous_query(), order=toy_variable_order())
        clone.import_state(engine.export_state())
        assert engine._fused_paths
        assert set(clone._fused_paths) == set(engine._fused_paths)
        assert all(
            compile_fused_path(clone, name) is not None
            for name in clone._fused_paths
        )
