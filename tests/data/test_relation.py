"""Relations: join, marginalize, lift, union and deltas."""

import pytest
from hypothesis import given

from repro.data import Relation
from repro.errors import DataError, SchemaError
from repro.rings import CofactorLayout, FloatRing, NumericCofactorRing, Z

from tests.conftest import GENERIC_Z, z_relation_strategy


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

    def test_scale(self, r):
        assert r.scale(3).data == {("a1", 1): 6, ("a2", 2): 3}
        assert r.scale(0).data == {}

    def test_filter(self, r):
        kept = r.filter(lambda key: key[0] == "a1")
        assert kept.data == {("a1", 1): 2}


class TestJoin:
    def test_natural_join_multiplies_payloads(self):
        r = Relation(("A", "B"), Z, {("a1", "b1"): 2, ("a2", "b2"): 1})
        s = Relation(("A", "C"), Z, {("a1", "c1"): 3, ("a3", "c3"): 1})
        j = r.join(s)
        assert j.schema == ("A", "B", "C")
        assert j.data == {("a1", "b1", "c1"): 6}

    def test_join_without_shared_attrs_is_product(self):
        r = Relation(("A",), Z, {("a1",): 2})
        s = Relation(("B",), Z, {("b1",): 3, ("b2",): 1})
        j = r.join(s)
        assert j.data == {("a1", "b1"): 6, ("a1", "b2"): 2}

    def test_join_both_probe_directions_agree(self):
        # r smaller than s and vice versa exercise both code paths.
        r = Relation(("A", "B"), Z, {("a1", "b1"): 2})
        s = Relation(
            ("A", "C"), Z, {("a1", "c1"): 1, ("a1", "c2"): 4, ("a2", "c1"): 5}
        )
        forward = r.join(s)
        backward = s.join(r)
        assert forward.data.keys() == {("a1", "b1", "c1"), ("a1", "b1", "c2")}
        # same content modulo column order
        assert forward.marginalize(()).payload(()) == backward.marginalize(()).payload(())

    def test_join_empty(self):
        r = Relation(("A",), Z, {("a1",): 1})
        assert r.join(Relation(("A",))).data == {}

    def test_join_ring_mismatch(self):
        r = Relation(("A",), Z, {("a1",): 1})
        s = Relation(("A",), FloatRing(), {("a1",): 1.0})
        with pytest.raises(DataError):
            r.join(s)

    def test_join_negative_payload_cancellation(self):
        r = Relation(("A", "B"), Z, {("a1", "b1"): 1, ("a1", "b2"): -1})
        s = Relation(("A",), Z, {("a1",): 1})
        j = r.join(s).marginalize(("A",))
        assert j.data == {}


class TestMarginalize:
    def test_group_by_sums_payloads(self, r):
        m = r.marginalize(("A",))
        assert m.data == {("a1",): 2, ("a2",): 1}

    def test_full_aggregation(self, r):
        m = r.marginalize(())
        assert m.data == {(): 3}

    def test_lift_applied_to_marginalized_attr(self):
        ring = FloatRing()
        rel = Relation(("A", "B"), ring, {("a1", 2): 1.0, ("a1", 3): 1.0})
        m = rel.marginalize(("A",), {"B": lambda b: float(b) * 10})
        assert m.data == {("a1",): 50.0}

    def test_lifting_kept_attr_rejected(self, r):
        with pytest.raises(SchemaError):
            r.marginalize(("A",), {"A": lambda a: 1})

    def test_unknown_keep_attr(self, r):
        with pytest.raises(SchemaError):
            r.marginalize(("Z",))

    def test_project_alias(self, r):
        assert r.project(("A",)) == r.marginalize(("A",))

    def test_total(self, r):
        assert r.total() == 3


class TestLift:
    def test_lift_to_cofactor_ring(self):
        layout = CofactorLayout(("B",))
        ring = NumericCofactorRing(layout)
        base = Relation.from_tuples(("A", "B"), [("a1", 2), ("a1", 3), ("a2", 5)])
        lifted = base.lift(ring, ("A",), {"B": lambda b: ring.lift(0, float(b))})
        a1 = lifted.payload(("a1",))
        assert a1.c == 2.0
        assert a1.s[0] == 5.0
        assert a1.q[0, 0] == 13.0

    def test_lift_scales_by_multiplicity(self):
        ring = FloatRing()
        base = Relation(("A",), Z, {("a1",): 3})
        lifted = base.lift(ring, ("A",))
        assert lifted.payload(("a1",)) == 3.0

    def test_lift_negative_multiplicity(self):
        ring = FloatRing()
        base = Relation(("A",), Z, {("a1",): -2})
        lifted = base.lift(ring, ())
        assert lifted.payload(()) == -2.0

    def test_lift_cancellation_prunes(self):
        ring = FloatRing()
        base = Relation(("A", "B"), Z, {("a1", 1): 1, ("a1", -1): 1})
        lifted = base.lift(ring, ("A",), {"B": float})
        assert lifted.data == {}

    def test_lift_requires_z_payloads(self):
        rel = Relation(("A",), FloatRing(), {("a1",): 1.0})
        with pytest.raises(DataError):
            rel.lift(FloatRing(), ())


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


# ----------------------------------------------------------------------
# Algebraic properties of the relation operations
# ----------------------------------------------------------------------


@given(
    z_relation_strategy(("A", "B")),
    z_relation_strategy(("A", "C")),
)
def test_join_total_commutes(r, s):
    """Total aggregate of r ⋈ s is independent of operand order."""
    left = r.join(s).marginalize(()).payload(())
    right = s.join(r).marginalize(()).payload(())
    assert left == right


@given(
    z_relation_strategy(("A", "B")),
    z_relation_strategy(("A", "C")),
    z_relation_strategy(("C", "D")),
)
def test_join_associative_on_totals(r, s, t):
    left = r.join(s.join(t)).marginalize(()).payload(())
    right = r.join(s).join(t).marginalize(()).payload(())
    assert left == right


@given(z_relation_strategy(("A", "B")), z_relation_strategy(("A", "B")))
def test_join_distributes_over_union(r1, r2):
    """(r1 + r2) ⋈ s == r1 ⋈ s + r2 ⋈ s — the linearity delta processing
    relies on."""
    s = Relation(("A", "C"), Z, {(0, 1): 2, (1, 0): -1, (2, 2): 3})
    combined = r1.add(r2).join(s)
    separate = r1.join(s).add(r2.join(s))
    assert combined == separate


@given(z_relation_strategy(("A", "B")))
def test_marginalize_then_total_matches_direct_total(r):
    assert r.marginalize(("A",)).total() == r.total()


@given(z_relation_strategy(("A", "B")), z_relation_strategy(("A", "B")))
def test_lift_distributes_over_union(r1, r2):
    """lift(r1 + r2) == lift(r1) + lift(r2) — the leaf-level linearity
    that makes delta lifting correct for mixed insert/delete batches."""
    layout = CofactorLayout(("B",))
    ring = NumericCofactorRing(layout)
    lifts = {"B": lambda b: ring.lift(0, float(b))}
    combined = r1.add(r2).lift(ring, ("A",), lifts)
    separate = r1.lift(ring, ("A",), lifts).add(r2.lift(ring, ("A",), lifts))
    assert combined.close_to(separate, 1e-9)


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

    def test_tolerance_ring_drops_near_zero_payloads(self):
        ring = FloatRing(zero_tolerance=1e-9)
        assert not ring.is_scalar  # tolerance forces the generic path
        target = Relation(("A",), ring, {("x",): 1.0})
        other = Relation(("A",), ring)
        other.data[("y",)] = 1e-12
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
