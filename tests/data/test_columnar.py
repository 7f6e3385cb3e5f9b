"""ColumnarDelta, slot-store block scatter, batcher emission."""

import pickle

import numpy as np
import pytest

from repro.data import ColumnarDelta, Relation, SlotStore, UpdateBatcher
from repro.data.delta import delta_of
from repro.errors import DataError
from repro.rings import CofactorLayout, NumericCofactorRing

SCHEMA = ("A", "B")
#: Slot stores hold cofactor payloads; ``count(v)`` is the count-only
#: payload ``v`` (empty support), so a value reads like a scalar.
COUNTS = NumericCofactorRing(CofactorLayout(("x",)))


def count(value):
    return COUNTS.scale_float(COUNTS.one(), value)


def sample_delta():
    return delta_of(
        SCHEMA, inserted=[(1, "a"), (2, "b"), (2, "b"), (7, "x")], deleted=[(3, "c")]
    )


class TestColumnarDelta:
    def test_from_relation_roundtrip(self):
        delta = sample_delta()
        columnar = ColumnarDelta.from_relation(delta)
        assert len(columnar) == len(delta.data)
        assert columnar.rows == list(delta.data.keys())
        assert columnar.columns == ([1, 2, 7, 3], ["a", "b", "x", "c"])
        assert columnar.counts.tolist() == [1, 2, 1, -1]
        assert columnar.update_count() == 5
        assert columnar.to_relation().data == delta.data

    def test_columns_and_rows_derive_each_other(self):
        from_rows = ColumnarDelta(SCHEMA, [1, 1], rows=[(1, "a"), (2, "b")])
        assert from_rows.columns == ([1, 2], ["a", "b"])
        from_columns = ColumnarDelta(SCHEMA, [1, 1], columns=([1, 2], ["a", "b"]))
        assert from_columns.rows == [(1, "a"), (2, "b")]
        assert from_columns.column(1) == ["a", "b"]

    def test_empty_delta(self):
        empty = ColumnarDelta(SCHEMA, [], rows=[])
        assert len(empty) == 0
        assert empty.columns == ([], [])
        assert empty.to_relation().data == {}

    def test_validation(self):
        with pytest.raises(DataError):
            ColumnarDelta(SCHEMA, [1])
        with pytest.raises(DataError):
            ColumnarDelta(SCHEMA, [1], columns=([1],))  # wrong column count
        with pytest.raises(DataError):
            ColumnarDelta(SCHEMA, [1, 1], columns=([1], ["a"]))  # short column
        with pytest.raises(DataError):
            ColumnarDelta(SCHEMA, [1, 1], rows=[(1, "a")])

    def test_to_relation_merges_duplicates_and_drops_zeros(self):
        columnar = ColumnarDelta(
            SCHEMA,
            [2, -1, 1, -1],
            rows=[(1, "a"), (2, "b"), (2, "b"), (1, "a")],
        )
        relation = columnar.to_relation()
        assert relation.data == {(1, "a"): 1}
        # A merged dict no longer matches the columns: no stale cache.
        assert relation._columnar is None

    def test_transport_is_picklable_and_compact(self):
        delta = sample_delta()
        schema, columns, counts = delta.columnar().transport()
        assert isinstance(counts, list)
        restored = ColumnarDelta(schema, counts, columns=columns)
        assert restored.to_relation().data == delta.data
        assert pickle.loads(pickle.dumps((schema, columns, counts)))


class TestRelationColumnarCache:
    def test_columnar_is_cached_until_mutation(self):
        delta = sample_delta()
        first = delta.columnar()
        assert delta.columnar() is first
        delta.add_inplace(delta_of(SCHEMA, inserted=[(9, "z")]))
        second = delta.columnar()
        assert second is not first
        assert second.to_relation().data == delta.data

    def test_copy_carries_the_cache(self):
        delta = sample_delta()
        cached = delta.columnar()
        assert delta.copy().columnar() is cached


class TestStoreBlockScatter:
    """SlotStore.add_block is the block form of Relation.add_inplace."""

    def test_matches_add_inplace_with_cancellation_and_parked_zero(self):
        ring = COUNTS
        base = Relation(("A",), ring, data={(1,): count(1.0), (2,): count(2.0)})
        via_block = SlotStore.from_relation(base)
        via_dict = base.copy()
        keys = [(1,), (2,), (3,), (4,)]
        values = [count(v) for v in (0.5, -2.0, 0.0, 3.0)]
        via_block.add_block(keys, ring.make_block(values))
        other = Relation(("A",), ring)
        other.data = dict(zip(keys, values))
        via_dict.add_inplace(other)
        assert via_block == via_dict
        assert list(via_block.data) == list(via_dict.data)
        # (2,) cancelled to zero and (3,) was a parked zero: both absent.
        assert (2,) not in via_block and (3,) not in via_block

    def test_matches_add_inplace_on_cofactor_ring(self):
        ring = NumericCofactorRing(CofactorLayout(("x", "y")))
        keys = [(1,), (2,), (1,)]
        payloads = [ring.lift(0, 2.0), ring.lift(1, 3.0), ring.neg(ring.lift(0, 2.0))]
        target = SlotStore(("A",), ring, support=(0, 1))
        target.add_block(keys, ring.make_block(payloads))
        # (1,) received x and -x in one block: exact cancellation.
        assert list(target.data) == [(2,)]
        assert ring.eq(target.payload((2,)), payloads[1])

    def test_store_keeps_built_indexes_consistent(self):
        ring = COUNTS
        view = SlotStore.from_relation(
            Relation(("A", "B"), ring, data={(1, "a"): count(1.0)})
        )
        index = view.add_index(("A",))
        keys = [(1, "a"), (2, "b"), (2, "c")]
        view.add_block(keys, ring.make_block([count(v) for v in (-1.0, 4.0, 5.0)]))
        assert dict(view.data) == {(2, "b"): count(4.0), (2, "c"): count(5.0)}
        assert index.entry_count() == 2
        assert index.keys(1) == ()
        assert index.keys(2) == ((2, "b"), (2, "c"))
        assert [key for key, _ in index.matches(2)] == [(2, "b"), (2, "c")]
        assert [payload for _, payload in index.matches(2)] == [count(4.0), count(5.0)]

    def test_lazy_indexes_stay_pending_through_block_scatter(self):
        ring = COUNTS
        view = SlotStore(("A",), ring)
        view.register_index(("A",))
        view.add_block([(1,)], ring.make_block([count(2.0)]))
        assert view.pending == {("A",)} and not view.indexes
        index = view.ensure_index(("A",))
        assert index.entry_count() == 1
        assert not view.pending

    def test_reads_are_copies_and_data_is_read_only(self):
        ring = NumericCofactorRing(CofactorLayout(("x",)))
        view = SlotStore(("A",), ring, support=(0,))
        view.add_block([(1,)], ring.make_block([ring.lift(0, 2.0)]))
        before = view.payload((1,))
        snapshot = view.copy()
        with pytest.raises(TypeError):
            view.data[(9,)] = before
        view.add_block([(1,)], ring.make_block([ring.lift(0, 5.0)]))
        assert before == ring.lift(0, 2.0)
        assert snapshot.payload((1,)) == ring.lift(0, 2.0)
        assert view.payload((1,)) == ring.add(ring.lift(0, 2.0), ring.lift(0, 5.0))


class TestBatcherColumnarEmission:
    def test_flushed_deltas_expose_a_shared_columnar_form(self):
        batcher = UpdateBatcher({"R": SCHEMA}, batch_size=10)
        batcher.add("R", (1, "a"))
        batcher.add("R", (1, "a"))
        batcher.add("R", (2, "b"), -1)
        ((name, delta),) = batcher.flush()
        assert name == "R"
        # Built lazily — per-tuple consumers never pay for it — and at
        # most once: every columnar consumer shares the cached build.
        assert delta._columnar is None
        columnar = delta.columnar()
        assert delta.columnar() is columnar
        assert columnar.rows == [(1, "a"), (2, "b")]
        assert columnar.counts.tolist() == [2, -1]


def test_numpy_counts_accepted():
    columnar = ColumnarDelta(SCHEMA, np.array([1, 2]), rows=[(1, "a"), (2, "b")])
    assert columnar.counts.dtype == np.int64
