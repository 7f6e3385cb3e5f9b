"""Relations: construction, union, negation and comparison."""

import pytest

from repro.data import Relation
from repro.errors import DataError, SchemaError
from repro.rings import FloatRing, Z

from tests.conftest import GENERIC_Z


@pytest.fixture
def r():
    return Relation.from_tuples(("A", "B"), [("a1", 1), ("a1", 1), ("a2", 2)])


class TestConstruction:
    def test_from_tuples_accumulates_multiplicity(self, r):
        assert r.data == {("a1", 1): 2, ("a2", 2): 1}

    def test_zero_payloads_dropped(self):
        relation = Relation(("A",), Z, {("x",): 0, ("y",): 2})
        assert relation.data == {("y",): 2}

    def test_bad_key_arity(self):
        with pytest.raises(DataError):
            Relation(("A",), Z, {("x", "y"): 1})
        with pytest.raises(DataError):
            Relation.from_tuples(("A",), [("x", "y")])

    def test_duplicate_schema(self):
        with pytest.raises(SchemaError):
            Relation(("A", "A"))

    def test_copy_is_shallow_but_independent(self, r):
        clone = r.copy()
        clone.data[("a3", 3)] = 1
        assert ("a3", 3) not in r.data

    def test_payload_default_zero(self, r):
        assert r.payload(("zzz", 9)) == 0
        assert r.payload(("a1", 1)) == 2

    def test_contains_and_len(self, r):
        assert ("a1", 1) in r
        assert len(r) == 2


class TestUnionAndNegation:
    def test_add(self, r):
        other = Relation(("A", "B"), Z, {("a1", 1): 1, ("a3", 3): 4})
        total = r.add(other)
        assert total.data == {("a1", 1): 3, ("a2", 2): 1, ("a3", 3): 4}
        # purity
        assert r.data[("a1", 1)] == 2

    def test_add_inplace_cancellation(self, r):
        r.add_inplace(Relation(("A", "B"), Z, {("a1", 1): -2}))
        assert ("a1", 1) not in r.data

    def test_add_schema_mismatch(self, r):
        with pytest.raises(SchemaError):
            r.add(Relation(("A", "C")))

    def test_neg(self, r):
        assert r.neg().data == {("a1", 1): -2, ("a2", 2): -1}

class TestComparison:
    def test_eq(self, r):
        assert r == r.copy()
        assert r != r.neg()

    def test_close_to_float(self):
        ring = FloatRing()
        a = Relation(("A",), ring, {("x",): 1.0})
        b = Relation(("A",), ring, {("x",): 1.0 + 1e-12})
        assert a.close_to(b)
        assert not a.close_to(Relation(("A",), ring, {("x",): 2.0}))

    def test_close_to_int_falls_back_to_eq(self, r):
        assert r.close_to(r.copy())


class TestZeroDropRegression:
    """add_inplace must never park ring-zero payloads — cancelled updates
    in long streams would otherwise leak dead entries (issue #1)."""

    def test_zero_payload_for_absent_key_is_not_inserted(self):
        target = Relation(("A",), Z, {("x",): 1})
        other = Relation(("A",))
        other.data[("y",)] = 0  # bypass constructor pruning
        target.add_inplace(other)
        assert ("y",) not in target.data

    def test_zero_payload_skipped_on_generic_path_too(self):
        target = Relation(("A",), GENERIC_Z, {("x",): 1})
        other = Relation(("A",), GENERIC_Z)
        other.data[("y",)] = 0
        target.add_inplace(other)
        assert ("y",) not in target.data

    def test_cancellation_removes_key_on_both_paths(self):
        for ring in (Z, GENERIC_Z):
            target = Relation(("A",), ring, {("x",): 2})
            other = Relation(("A",), ring, {("x",): -2})
            target.add_inplace(other)
            assert target.data == {}

    def test_exact_scalar_rings_take_the_numeric_branches(self):
        assert Z.is_scalar and FloatRing().is_scalar and not GENERIC_Z.is_scalar


class TestPositionMemo:
    """Attribute positions and key extractors are resolved once per
    (schema, attrs) pair and shared; a failed lookup is not remembered."""

    def test_resolved_once_and_shared(self):
        from repro.data.relation import _hook_getter, _key_getter, _positions

        schema, attrs = ("A", "B", "C"), ("C", "A")
        assert _positions(schema, attrs) == (2, 0)
        assert _positions(schema, attrs) is _positions(tuple(schema), tuple(attrs))
        assert _key_getter((2, 0)) is _key_getter((2, 0))
        assert _hook_getter((1,)) is _hook_getter((1,))
        assert _key_getter((1,))(("a", "b", "c")) == ("b",)
        assert _hook_getter((1,))(("a", "b", "c")) == "b"
        assert _key_getter(())(("a",)) == _hook_getter(())(("a",)) == ()

    def test_unknown_attribute_raises_every_time(self):
        from repro.data.relation import _positions

        for _ in range(2):
            with pytest.raises(SchemaError, match="'Z' not in schema"):
                _positions(("A", "B"), ("Z",))
