"""Persistent relation indexes: consistency, probing, cancellation.

A whole-key index is the view's own key map; a partial index's buckets
hold keys, never payloads, so every assertion on a bucket is on its
keys and every payload is read through the view.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data import IndexedRelation, Relation
from repro.errors import DataError, SchemaError
from repro.rings.scalar import Z

from tests.conftest import GENERIC_Z


def z_relation(schema, entries, ring=Z):
    relation = Relation(schema, ring)
    relation.data = dict(entries)
    return relation


def indexed(schema, entries, attrs, ring=Z):
    relation = IndexedRelation(schema, ring)
    relation.data = dict(entries)
    relation.add_index(attrs)
    return relation


def bucket_keys(index):
    """Every partial bucket as ``hook -> [keys]``, in bucket order."""
    return {hook: list(bucket) for hook, bucket in index.buckets.items()}


class TestRelationIndex:
    def test_build_groups_keys_by_hook(self):
        relation = indexed(("A", "B"), {("x", 1): 2, ("x", 2): 3, ("y", 1): 4}, ("A",))
        index = relation.index_on(("A",))
        assert bucket_keys(index) == {"x": [("x", 1), ("x", 2)], "y": [("y", 1)]}
        assert index.keys("z") == ()
        assert index.entry_count() == 3
        assert index.bucket_count() == 2

    def test_multi_attr_hook_is_tuple(self):
        relation = indexed(("A", "B", "C"), {("x", 1, "p"): 5}, ("A", "B"))
        assert relation.index_on(("A", "B")).keys(("x", 1)) == (("x", 1, "p"),)

    def test_empty_attrs_single_bucket(self):
        relation = indexed(("A", "B"), {("x", 1): 1, ("y", 2): 2}, ())
        index = relation.index_on(())
        assert not index.whole and index.bucket_count() == 1
        assert index.keys(()) == (("x", 1), ("y", 2))

    def test_unknown_attr_rejected(self):
        with pytest.raises(SchemaError):
            IndexedRelation(("A", "B")).add_index(("Z",))

    def test_discard_removes_empty_bucket(self):
        relation = indexed(("A", "B"), {("x", 1): 2}, ("A",))
        index = relation.index_on(("A",))
        index.discard(("x", 1))
        assert index.keys("x") == ()
        assert index.bucket_count() == 0
        index.discard(("x", 1))  # idempotent on absent entries

    def test_whole_key_index_is_the_relations_own_map(self):
        """On the view's whole key, in key order, the index keeps no
        bucket: lookups, counts and matches read the relation."""
        relation = indexed(("A", "B"), {("x", 1): 2, ("y", 1): 4}, ("A", "B"))
        index = relation.index_on(("A", "B"))
        assert index.whole and index.buckets is None
        assert index.keys(("x", 1)) == (("x", 1),) and index.keys(("x", 2)) == ()
        relation.add_inplace(z_relation(("A", "B"), {("x", 2): 3, ("y", 1): -4}))
        assert index.buckets is None
        assert index.entry_count() == index.bucket_count() == len(relation) == 2
        assert index.matches(("x", 2)) == [(("x", 2), 3)]
        assert not index.matches(("y", 1))
        # Unary keys hook as bare values, as partial hooks do.
        unary = indexed(("A",), {("x",): 1}, ("A",)).index_on(("A",))
        assert unary.whole and unary.keys("x") == (("x",),)

    def test_the_whole_key_out_of_order_is_partial(self):
        relation = indexed(("A", "B"), {("x", 1): 2}, ("B", "A"))
        index = relation.index_on(("B", "A"))
        assert not index.whole and bucket_keys(index) == {(1, "x"): [("x", 1)]}


class TestIndexedRelationMaintenance:
    def test_add_inplace_keeps_index_consistent(self):
        relation = indexed(("A", "B"), {("x", 1): 2}, ("A",))
        relation.add_inplace(z_relation(("A", "B"), {("x", 2): 3, ("y", 1): 1}))
        index = relation.index_on(("A",))
        assert bucket_keys(index) == {"x": [("x", 1), ("x", 2)], "y": [("y", 1)]}
        assert index.entry_count() == len(relation)

    def test_payload_updates_leave_the_buckets_alone(self):
        relation = indexed(("A", "B"), {("x", 1): 2, ("x", 2): 1}, ("A",))
        index = relation.index_on(("A",))
        bucket = index.buckets["x"]
        relation.add_inplace(z_relation(("A", "B"), {("x", 1): 5}))
        assert index.buckets["x"] is bucket and list(bucket) == [("x", 1), ("x", 2)]
        assert set(bucket.values()) == {None}
        assert dict(index.matches("x")) == {("x", 1): 7, ("x", 2): 1}

    def test_insert_then_delete_empties_bucket(self):
        """Cancellation must drop index buckets, not leave dead ones."""
        relation = indexed(("A", "B"), {}, ("A",))
        relation.add_inplace(z_relation(("A", "B"), {("x", 1): 1, ("x", 2): 1}))
        relation.add_inplace(z_relation(("A", "B"), {("x", 1): -1}))
        index = relation.index_on(("A",))
        assert index.keys("x") == (("x", 2),)
        relation.add_inplace(z_relation(("A", "B"), {("x", 2): -1}))
        assert index.keys("x") == ()
        assert index.bucket_count() == 0
        assert relation.data == {}

    def test_a_bucket_keeps_its_place_while_it_holds_a_key(self):
        """A key joining before the last one leaves keeps the bucket where
        it was; one joining after it reopens the bucket at the end — the
        order the rows arrive in, as a rebuild over the relation sees it."""
        relation = indexed(("A", "B"), {("x", 1): 1, ("y", 1): 1}, ("A",))
        index = relation.index_on(("A",))
        relation.add_inplace(z_relation(("A", "B"), {("x", 2): 1, ("x", 1): -1}))
        assert list(index.buckets) == ["x", "y"]
        relation.add_inplace(z_relation(("A", "B"), {("x", 2): -1, ("x", 3): 1}))
        assert list(index.buckets) == ["y", "x"]
        assert bucket_keys(index) == {"y": [("y", 1)], "x": [("x", 3)]}

    def test_generic_path_maintains_index(self):
        relation = indexed(("A", "B"), {("x", 1): 2}, ("A",), ring=GENERIC_Z)
        delta = Relation(("A", "B"), GENERIC_Z)
        delta.data = {("x", 1): -2, ("y", 3): 0, ("z", 4): 5}
        relation.add_inplace(delta)
        index = relation.index_on(("A",))
        assert index.keys("x") == ()  # cancelled
        assert index.keys("y") == ()  # ring-zero payload never parked
        assert index.keys("z") == (("z", 4),)

    def test_multiple_indexes_updated_together(self):
        relation = IndexedRelation(("A", "B"), Z)
        relation.add_index(("A",))
        relation.add_index(("B",))
        relation.add_index(("A", "B"))
        relation.add_inplace(z_relation(("A", "B"), {("x", 1): 1}))
        assert relation.index_on(("A",)).keys("x") == (("x", 1),)
        assert relation.index_on(("B",)).keys(1) == (("x", 1),)
        assert relation.index_on(("A", "B")).keys(("x", 1)) == (("x", 1),)

    def test_add_index_is_idempotent(self):
        relation = indexed(("A", "B"), {("x", 1): 1}, ("A",))
        again = relation.add_index(("A",))
        assert again is relation.index_on(("A",))
        assert len(relation.indexes) == 1

    def test_index_on_missing_raises(self):
        relation = indexed(("A", "B"), {}, ("A",))
        with pytest.raises(DataError):
            relation.index_on(("B",))

    def test_from_relation_shares_entries(self):
        base = z_relation(("A",), {("x",): 1})
        wrapped = IndexedRelation.from_relation(base)
        assert wrapped.data is base.data
        assert wrapped.schema == base.schema


class TestMatches:
    """``RelationIndex.matches`` — what row mode's partial probe
    iterates — yields exactly the live entries under a hook, whatever
    maintenance the relation went through."""

    def test_matches_yields_the_bucket_entries(self):
        relation = indexed(("A", "C"), {("x", 10): 5, ("x", 11): 7, ("y", 12): -3}, ("A",))
        index = relation.index_on(("A",))
        assert dict(index.matches("x")) == {("x", 10): 5, ("x", 11): 7}
        assert dict(index.matches("y")) == {("y", 12): -3}
        assert not index.matches("w")

    def test_cartesian_matches_every_entry(self):
        relation = indexed(("C",), {(7,): 3, (8,): 4}, ())
        assert dict(relation.index_on(()).matches(())) == relation.data

    @pytest.mark.parametrize("ring", [Z, GENERIC_Z], ids=["scalar", "generic"])
    def test_matches_after_maintenance_equal_the_live_entries(self, ring):
        relation = indexed(("A", "C"), {("x", 10): 1}, ("A",), ring)
        relation.add_inplace(z_relation(("A", "C"), {("x", 11): 4, ("x", 10): -1}, ring))
        index = relation.index_on(("A",))
        assert dict(index.matches("x")) == {("x", 11): 4}
        relation.add_inplace(z_relation(("A", "C"), {("x", 11): -4}, ring))
        assert not index.matches("x")

    @given(
        st.lists(
            st.dictionaries(
                st.tuples(st.integers(0, 5), st.integers(0, 3)),
                st.integers(-3, 3).filter(bool),
                max_size=12,
            ),
            max_size=4,
        ),
        st.sampled_from([Z, GENERIC_Z]),
    )
    def test_matches_equal_a_scan_on_random_streams(self, deltas, ring):
        relation = indexed(("A", "C"), {}, ("A",), ring)
        whole = relation.add_index(("A", "C"))
        for entries in deltas:
            relation.add_inplace(z_relation(("A", "C"), entries, ring))
        index = relation.index_on(("A",))
        for hook in range(6):
            live = {key: p for key, p in relation.data.items() if key[0] == hook}
            assert dict(index.matches(hook)) == live
            for key, payload in live.items():
                assert whole.matches(key) == [(key, payload)]
        assert index.entry_count() == whole.entry_count() == len(relation)
        assert whole.buckets is None
        assert all(set(b.values()) == {None} for b in index.buckets.values())
