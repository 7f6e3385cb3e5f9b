"""SlotStore against the dict model it replaced, on generated histories.

A ``RuleBasedStateMachine`` drives one store and one plain
``IndexedRelation`` (dict of payload objects + ``RelationIndex`` — the
reference representation, still what scalar and general rings use)
through interleaved block scatters and small dict deltas, and after
every step demands the same keys in the same order, ``np.array_equal``
rows, whole-key indexes that read the store's own rows, partial buckets
listing their keys in the model's order, and probe arrays equal to a
rebuild — a whole-key index's patched on every key insert and delete, a
partial one's built again after it. Integer-valued floats keep the arithmetic exact, so a delete
really does cancel to the exact ring zero. The machine runs over the
numeric cofactor ring (dense rows) and the sparse one (ragged rows).
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.data import IndexedRelation, Relation, SlotStore
from repro.errors import RingError
from repro.rings import (
    CofactorLayout,
    Feature,
    NumericCofactorRing,
    SparseCofactorRing,
)
from tests.conftest import assert_same_as_rebuilt, probe_entries

SCHEMA = ("A", "B")
RING = NumericCofactorRing(CofactorLayout(("x", "y")))
SUPPORT = (0, 1)
#: Ragged rows: a payload holds between zero and a dozen cells.
SPARSE = SparseCofactorRing(
    (Feature.categorical("colour"), Feature.continuous("y"), Feature.binned("z", 0, 4, 4))
)

keys = st.tuples(st.integers(0, 3), st.integers(0, 4))
#: The keys ``keys`` draws, and a few more only mixed batches miss with.
KEY_SPACE = [(a, b) for a in range(6) for b in range(5)]
coefficients = st.integers(-2, 2)


@st.composite
def numeric_payloads(draw):
    """Integer combinations of two fixed payloads: sums cancel exactly."""
    a, b = draw(coefficients), draw(coefficients)
    base = RING.mul(RING.lift(0, 2.0), RING.lift(1, 3.0))
    return RING.add(RING.scale(base, a), RING.scale(RING.lift(0, 1.0), b))


@st.composite
def sparse_payloads(draw):
    """Integer combinations of a few lifted products, of varying width."""
    ring = SPARSE
    wide = ring.mul(ring.mul(ring.lift(0, "red"), ring.lift(1, 3.0)), ring.lift(2, 2.5))
    terms = [wide, ring.lift(0, draw(st.sampled_from(["red", "green", "blue"]))), ring.one()]
    return ring.sum(ring.scale(term, draw(coefficients)) for term in terms)


def numeric_rows_equal(row, expected):
    wide = RING.project(expected, SUPPORT)
    return (
        row.support == SUPPORT
        and row.c == wide.c
        and np.array_equal(row.s, wide.s)
        and np.array_equal(row.q, wide.q)
    )


def store_machine(ring, support, payloads, rows_equal, grown):
    """The state machine over one ring: ``payloads`` draws values whose
    sums cancel exactly, ``grown`` is the payload growth inserts."""
    entries = st.lists(st.tuples(keys, payloads), max_size=12)

    class StoreVersusDictModel(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            self.store = SlotStore(SCHEMA, ring, support=support)
            self.model = IndexedRelation(SCHEMA, ring)

        def _delta(self, pairs):
            """A dict delta; a repeated key keeps its last payload."""
            delta = Relation(SCHEMA, ring)
            delta.data = dict(pairs)
            return delta

        @rule(pairs=entries)
        def scatter_block(self, pairs):
            """Block scatter — duplicates inside one block merge one by one."""
            if not pairs:
                return
            block_keys = [key for key, _ in pairs]
            self.store.add_block(block_keys, ring.make_block(p for _, p in pairs))
            for key, payload in pairs:
                self.model.add_inplace(self._delta([(key, payload)]))

        @rule(pairs=st.lists(st.tuples(keys, payloads), max_size=3))
        def add_small_delta(self, pairs):
            delta = self._delta(pairs)
            self.store.add_inplace(delta.data)
            self.model.add_inplace(delta)

        @rule(data=st.data())
        def delete_live_keys(self, data):
            """Cancel some live keys to the exact zero, by either entry point."""
            live = list(self.model.data)
            if not live:
                return
            doomed = data.draw(st.lists(st.sampled_from(live), max_size=4, unique=True))
            delta = self._delta((key, ring.neg(self.model.data[key])) for key in doomed)
            if data.draw(st.booleans()) and doomed:
                self.store.add_block(list(delta.data), ring.make_block(delta.data.values()))
            else:
                self.store.add_inplace(delta.data)
            self.model.add_inplace(delta)
            assert not any(key in self.store for key in doomed)

        @rule(data=st.data())
        def scatter_mixed_batch(self, data):
            """One scatter of distinct keys, in a drawn order, mixing hits,
            hits that cancel to the exact zero, live misses and misses
            whose payload is the ring zero. The block grows only when the
            keys left alive outgrow it — freed rows are reused first — and
            then as far as a scatter that deleted before it inserted would
            grow it; a whole-key index's cached arrays are patched, a
            partial one's dropped when a key came or went."""
            store = self.store
            live = list(self.model.data)
            hits = data.draw(st.lists(st.sampled_from(live), unique=True, max_size=6)) if live else []
            absent = [key for key in KEY_SPACE if key not in self.model.data]
            misses = data.draw(st.lists(st.sampled_from(absent), unique=True, max_size=6)) if absent else []
            batch = []
            for key in hits:
                cancel = data.draw(st.booleans())
                batch.append((key, ring.neg(self.model.data[key]) if cancel else data.draw(payloads)))
            for key in misses:
                batch.append((key, ring.zero() if data.draw(st.booleans()) else data.draw(payloads)))
            batch = data.draw(st.permutations(batch))
            if not batch:
                return
            capacity, before = store.capacity, set(store.slots)
            cached = [index for index in store.indexes.values() if index.cache is not None]
            dropped = store.add_block(
                [key for key, _ in batch], ring.make_block(p for _, p in batch), distinct=True
            )
            self.model.add_inplace(self._delta(batch))
            after = len(self.model)
            if after > capacity:
                assert store.capacity == max(2 * capacity, after, 16)
            else:
                assert store.capacity == capacity
            changed = set(store.slots) != before
            partial = [index for index in cached if not index.whole]
            assert dropped == (len(partial) if changed else 0)
            for index in cached:
                assert (index.cache is None) == (changed and not index.whole)

        @rule(count=st.integers(1, 40), start=st.integers(10, 10_000))
        def grow_past_capacity(self, count, start):
            self.scatter_block([((start + i, 0), grown) for i in range(count)])

        @rule(attrs=st.sampled_from([("A",), ("B",), ("A", "B"), ()]), cached=st.booleans())
        def build_index(self, attrs, cached):
            """``cached``: the probe arrays exist from here on, so every
            later insert and delete has to patch a whole-key index's."""
            index = self.store.ensure_index(attrs)
            self.model.ensure_index(attrs)
            if cached:
                index.probe_arrays()

        @invariant()
        def same_keys_same_order_same_rows(self):
            store, model = self.store, self.model
            assert list(store.slots) == list(model.data)
            assert len(store) == len(model)
            rows = store.copy().data
            for key, expected in model.data.items():
                assert rows_equal(rows[key], expected), key

        @invariant()
        def slots_are_a_partition(self):
            store = self.store
            live = list(store.slots.values())
            assert len(set(live)) == len(live)
            assert sorted(live + store.free) == list(range(store.high))
            assert store.high <= store.capacity
            zero = ring.zero()
            assert all(ring.eq(ring.row(store.block, slot), zero) for slot in store.free)

        @invariant()
        def indexes_read_the_store(self):
            """A whole-key index is the store's own map: its ``matches``
            is the store's row. A partial one holds keys only, in the
            model's order, and its probe arrays — cached or built now —
            equal a fresh build; a whole-key one's, patched on every key
            insert and delete, read as a rebuild too."""
            store, model = self.store, self.model
            assert set(store.indexes) == set(model.indexes)
            for attrs, index in store.indexes.items():
                reference = model.indexes[attrs]
                assert index.whole == reference.whole == (attrs == SCHEMA)
                if index.whole:
                    assert index.buckets is None and reference.buckets is None
                    for key, slot in store.slots.items():
                        [(found, row)] = index.matches(key)
                        assert found == key
                        assert ring.eq(row, ring.row(store.block, slot))
                else:
                    assert list(index.buckets) == list(reference.buckets)
                    for hook, bucket in reference.buckets.items():
                        assert list(index.buckets[hook]) == list(bucket)
                        assert set(index.buckets[hook].values()) == {None}
                    index.probe_arrays()
                if index.cache is not None:
                    assert_same_as_rebuilt(index)
                    live = [s for *_, slots in probe_entries(index.cache) for s in slots]
                    assert sorted(live) == sorted(store.slots.values())

    StoreVersusDictModel.TestCase.settings = settings(
        max_examples=60, stateful_step_count=30, deadline=None
    )
    return StoreVersusDictModel.TestCase


TestStoreVersusDictModel = store_machine(
    RING, SUPPORT, numeric_payloads(), numeric_rows_equal, RING.lift(0, 1.0)
)
TestSparseStoreVersusDictModel = store_machine(
    SPARSE, (0, 1, 2), sparse_payloads(), SPARSE.eq, SPARSE.lift(0, "red")
)


class TestSlotReuse:
    def test_deleted_rows_are_reused_before_the_block_grows(self):
        store = SlotStore(("A",), RING, support=SUPPORT)
        one = RING.lift(0, 1.0)
        store.add_block([(i,) for i in range(20)], RING.make_block([one] * 20))
        capacity = store.capacity
        store.add_block(
            [(i,) for i in range(5)], RING.make_block([RING.neg(one)] * 5)
        )
        assert len(store.free) == 5 and len(store) == 15
        store.add_block([(100 + i,) for i in range(5)], RING.make_block([one] * 5))
        assert not store.free and store.capacity == capacity and store.high == 20
        # A deleted key that comes back lands at the end of the view order.
        store.add_block([(0,)], RING.make_block([one]))
        assert list(store.slots)[-1] == (0,)

    def test_misfits_are_refused(self):
        store = SlotStore(("A",), RING, support=(0,))
        with pytest.raises(RingError, match="does not fit"):
            store.add_block([(1,)], RING.make_block([RING.lift(1, 2.0)]))
