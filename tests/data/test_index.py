"""Persistent relation indexes: consistency, probing, cancellation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data import IndexedRelation, Relation, RelationIndex
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


class TestRelationIndex:
    def test_build_groups_by_hook(self):
        index = RelationIndex(("A", "B"), ("A",))
        index.build({("x", 1): 2, ("x", 2): 3, ("y", 1): 4})
        assert index.get("x") == {("x", 1): 2, ("x", 2): 3}
        assert index.get("y") == {("y", 1): 4}
        assert index.get("z") is None
        assert index.entry_count() == 3
        assert index.bucket_count() == 2

    def test_multi_attr_hook_is_tuple(self):
        index = RelationIndex(("A", "B", "C"), ("A", "B"))
        index.build({("x", 1, "p"): 5})
        assert index.get(("x", 1)) == {("x", 1, "p"): 5}

    def test_empty_attrs_single_bucket(self):
        index = RelationIndex(("A", "B"), ())
        index.build({("x", 1): 1, ("y", 2): 2})
        assert index.bucket_count() == 1
        assert index.get(()) == {("x", 1): 1, ("y", 2): 2}

    def test_unknown_attr_rejected(self):
        with pytest.raises(SchemaError):
            RelationIndex(("A", "B"), ("Z",))

    def test_discard_removes_empty_bucket(self):
        index = RelationIndex(("A", "B"), ("A",))
        index.build({("x", 1): 2})
        index.discard(("x", 1))
        assert index.get("x") is None
        assert index.bucket_count() == 0
        index.discard(("x", 1))  # idempotent on absent entries


class TestIndexedRelationMaintenance:
    def test_add_inplace_keeps_index_consistent(self):
        relation = indexed(("A", "B"), {("x", 1): 2}, ("A",))
        relation.add_inplace(z_relation(("A", "B"), {("x", 2): 3, ("y", 1): 1}))
        index = relation.index_on(("A",))
        assert index.get("x") == {("x", 1): 2, ("x", 2): 3}
        assert index.get("y") == {("y", 1): 1}
        assert index.entry_count() == len(relation)

    def test_insert_then_delete_empties_bucket(self):
        """Cancellation must drop index buckets, not leave dead ones."""
        relation = indexed(("A", "B"), {}, ("A",))
        relation.add_inplace(z_relation(("A", "B"), {("x", 1): 1, ("x", 2): 1}))
        relation.add_inplace(z_relation(("A", "B"), {("x", 1): -1}))
        index = relation.index_on(("A",))
        assert index.get("x") == {("x", 2): 1}
        relation.add_inplace(z_relation(("A", "B"), {("x", 2): -1}))
        assert index.get("x") is None
        assert index.bucket_count() == 0
        assert relation.data == {}

    def test_generic_path_maintains_index(self):
        relation = indexed(("A", "B"), {("x", 1): 2}, ("A",), ring=GENERIC_Z)
        delta = Relation(("A", "B"), GENERIC_Z)
        delta.data = {("x", 1): -2, ("y", 3): 0, ("z", 4): 5}
        relation.add_inplace(delta)
        index = relation.index_on(("A",))
        assert index.get("x") is None  # cancelled
        assert index.get("y") is None  # ring-zero payload never parked
        assert index.get("z") == {("z", 4): 5}

    def test_multiple_indexes_updated_together(self):
        relation = IndexedRelation(("A", "B"), Z)
        relation.add_index(("A",))
        relation.add_index(("B",))
        relation.add_inplace(z_relation(("A", "B"), {("x", 1): 1}))
        assert relation.index_on(("A",)).get("x") == {("x", 1): 1}
        assert relation.index_on(("B",)).get(1) == {("x", 1): 1}

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
    """``RelationIndex.matches`` — what row mode's sibling probe iterates —
    yields exactly the live entries under a hook, whatever maintenance
    the relation went through."""

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
        for entries in deltas:
            relation.add_inplace(z_relation(("A", "C"), entries, ring))
        index = relation.index_on(("A",))
        for hook in range(6):
            live = {key: p for key, p in relation.data.items() if key[0] == hook}
            assert dict(index.matches(hook)) == live
        assert index.entry_count() == len(relation)
