"""The sparse categorical cofactor ring against its references.

``SparseCofactorRing`` replaced ``GeneralCofactorRing(RelationRing())``
wholesale, so it is pinned from three sides on drawn expressions:

- the ring laws, *including overlapping supports* (two indicator
  vectors of one feature join on the category: equal ones meet and
  double on the diagonal, different ones vanish) — the delta rules are
  derived from exactly these axioms;
- every scalar operation equals the dict ring's
  (``tests/rings/reference_cofactor.py``) through a decode to
  ``{slot: {category: value}}``;
- every bulk and row kernel equals the ``Ring`` base class's
  per-payload loop over the scalar operations, on ragged blocks with
  rows that cancel to the exact zero, ``c == 0`` factors and no rows;
  and a view's row arena, driven through its whole life, holds what a
  ``{slot: payload}`` dict holds, under each of the three sort keys.

Plus the places a code can go wrong silently: pickles carry category
values and re-intern, code-width overflows raise, bad categories fail
at lift.
"""

import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.errors import RingError
from repro.rings import Binning, Feature, Ring, SparseCofactor, SparseCofactorRing
from repro.rings import cofactor_sparse
from repro.rings.base import check_ring_axioms
from tests.rings.reference_cofactor import as_dicts, reference_lift, reference_ring

FEATURES = (
    Feature.categorical("colour"),
    Feature.continuous("weight"),
    Feature.binned("height", 0.0, 8.0, 4),
    Feature.categorical("shape"),
)
RING = SparseCofactorRing(FEATURES)


class ScalarLoops(SparseCofactorRing):
    """The ring's scalar operations under the ``Ring`` base class's
    kernels: blocks are lists, every kernel a per-payload loop."""

    for _kernel in (
        "make_block", "zero_block", "block_size", "block_payloads", "take",
        "add_many", "mul_many", "neg_many", "scale_many", "from_int_many",
        "lift_many", "is_zero_many", "sum_segments",
    ):
        locals()[_kernel] = getattr(Ring, _kernel)


LOOPS = ScalarLoops(FEATURES)
REFERENCE = reference_ring(FEATURES)
REFERENCE_LIFTS = [reference_lift(REFERENCE, f, i) for i, f in enumerate(FEATURES)]

#: Per feature, attribute values (small integers keep float sums exact).
VALUES = (
    st.sampled_from(["red", "green", "blue"]),
    st.integers(-3, 3).map(float),
    st.sampled_from([0.5, 2.5, 7.9, 11.0]),
    st.sampled_from(["round", ("a", "tuple"), 7]),
)

lifts = st.integers(0, len(FEATURES) - 1).flatmap(
    lambda i: st.tuples(st.just(i), VALUES[i])
)
#: A sum of integer multiples of products of up to three lifts — lifts of
#: one feature may meet in a product (the overlapping supports).
expressions = st.lists(
    st.tuples(st.integers(-2, 2), st.lists(lifts, max_size=3)), max_size=3
)


def evaluate(ring, lift, expression):
    return ring.sum(
        ring.scale(ring.prod(lift(i, value) for i, value in factors), n)
        for n, factors in expression
    )


def sparse(expression) -> SparseCofactor:
    return evaluate(RING, RING.lift, expression)


def reference(expression):
    return evaluate(REFERENCE, lambda i, value: REFERENCE_LIFTS[i](value), expression)


payloads = expressions.map(sparse)
blocks = st.lists(payloads, max_size=6)


def assert_canonical(p: SparseCofactor):
    assert p.codes.dtype == np.int64 and p.vals.dtype == np.float64
    assert (np.diff(p.codes) > 0).all() and (p.vals != 0).all()


def same(a: SparseCofactor, b: SparseCofactor) -> bool:
    assert_canonical(a), assert_canonical(b)
    return RING.eq(a, b)


def rows_of(block):
    return list(RING.block_payloads(block))


def assert_rows(block, expected):
    got = rows_of(block)
    assert len(got) == len(expected) == len(block)
    for k, (a, b) in enumerate(zip(got, expected)):
        assert same(a, b), (k, a, b)


# ----------------------------------------------------------------------
# Ring laws
# ----------------------------------------------------------------------


@given(payloads, payloads, payloads)
def test_ring_axioms(a, b, c):
    check_ring_axioms(RING, a, b, c)


def test_one_feature_joins_on_the_category():
    red, blue = RING.lift(0, "red"), RING.lift(0, "blue")
    assert RING.entry(RING.mul(red, red), 0, 0).as_dict() == {("red",): 4.0}
    # s = red + blue; Q_00 = {red: 1, blue: 1} and no (red, blue) cell.
    assert RING.entry(RING.mul(red, blue), 0, 0).as_dict() == {("red",): 1.0, ("blue",): 1.0}
    assert RING.linear(RING.mul(red, blue), 0).as_dict() == {("red",): 1.0, ("blue",): 1.0}
    x = RING.lift(1, 3.0)
    assert RING.entry(RING.mul(x, x), 1, 1).annotation(()) == 9.0 + 9.0 + 2 * 9.0


# ----------------------------------------------------------------------
# Scalar operations == the dict ring
# ----------------------------------------------------------------------


@given(expressions, expressions, st.integers(-3, 3))
def test_scalar_operations_equal_the_dict_ring(ea, eb, n):
    a, b = sparse(ea), sparse(eb)
    ra, rb = reference(ea), reference(eb)
    for got, want in (
        (a, ra),
        (RING.add(a, b), REFERENCE.add(ra, rb)),
        (RING.mul(a, b), REFERENCE.mul(ra, rb)),
        (RING.sub(a, b), REFERENCE.sub(ra, rb)),
        (RING.neg(a), REFERENCE.neg(ra)),
        (RING.scale(a, n), REFERENCE.scale(ra, n)),
        (RING.from_int(n), REFERENCE.from_int(n)),
    ):
        assert_canonical(got)
        assert as_dicts(RING.decode(got)) == as_dicts(want)
    assert RING.eq(a, b) == REFERENCE.eq(ra, rb)
    assert RING.is_zero(a) == REFERENCE.is_zero(ra)
    assert RING.close(a, b) == REFERENCE.close(ra, rb)


@given(expressions)
def test_decode_encode_and_the_accessors(expression):
    a = sparse(expression)
    general = RING.decode(a)
    assert same(RING.encode(general), a)
    assert same(RING.encode(reference(expression)), a)
    for i in range(RING.degree):
        assert RING.linear(a, i) == REFERENCE.linear(general, i)
        for j in range(RING.degree):
            assert RING.entry(a, i, j) == REFERENCE.entry(general, i, j)
    assert same(RING.project(general, tuple(range(RING.degree))), a)


def test_project_refuses_aggregates_outside_the_support():
    a = RING.mul(RING.lift(0, "red"), RING.lift(2, 2.5))
    assert RING.project(a, (0, 2)) is a
    with pytest.raises(RingError, match="outside"):
        RING.project(a, (0, 1))
    with pytest.raises(RingError, match="outside"):
        RING.project(RING.decode(a), (2,))


# ----------------------------------------------------------------------
# Kernels == the base class's per-payload loops
# ----------------------------------------------------------------------


@given(blocks, blocks, st.data())
def test_bulk_kernels_equal_the_scalar_loops(left, right, data):
    n = min(len(left), len(right))
    left, right = left[:n], right[:n]
    a, b = RING.make_block(left), RING.make_block(right)
    assert_rows(a, left)
    assert_rows(RING.add_many(a, b), LOOPS.add_many(left, right))
    assert_rows(RING.mul_many(a, b), LOOPS.mul_many(left, right))
    assert_rows(RING.neg_many(a), LOOPS.neg_many(left))
    # rows that cancel to the exact zero
    cancelled = RING.add_many(a, RING.neg_many(a))
    assert RING.is_zero_many(cancelled).all() and not len(cancelled.codes)
    assert RING.is_zero_many(a).tolist() == LOOPS.is_zero_many(left).tolist()
    counts = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    assert_rows(RING.scale_many(a, counts), LOOPS.scale_many(left, counts))
    assert_rows(RING.from_int_many(counts), LOOPS.from_int_many(counts))
    assert_rows(RING.zero_block(n), [RING.zero()] * n)
    picks = data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=8 if n else 0))
    assert_rows(RING.take(a, picks), LOOPS.take(left, picks))
    groups = data.draw(st.integers(1, 4))
    ids = data.draw(st.lists(st.integers(0, groups - 1), min_size=n, max_size=n))
    assert_rows(RING.sum_segments(a, ids, groups), LOOPS.sum_segments(left, ids, groups))
    with mock.patch.object(RING, "_tag_bits", 64):  # the ranked-code key
        assert_rows(RING.mul_many(a, b), LOOPS.mul_many(left, right))
        assert_rows(RING.sum_segments(a, ids, groups), LOOPS.sum_segments(left, ids, groups))


@given(st.integers(0, len(FEATURES) - 1).flatmap(
    lambda i: st.tuples(st.just(i), st.lists(VALUES[i], max_size=6), st.booleans())
))
def test_lift_many_equals_lift(case):
    index, values, as_array = case
    column = values
    if as_array and all(type(v) in (str, float) for v in values):
        column = np.array(values)
    assert_rows(RING.lift_many(index, column), LOOPS.lift_many(index, values))


@given(blocks, blocks, payloads, st.data())
def test_row_kernels_equal_the_scalar_loops(stored, delta, single, data):
    n = min(len(stored), len(delta))
    stored, delta = stored[:n], delta[:n]
    capacity = n + 3
    rows = RING.alloc_block(capacity)
    assert len(rows) == capacity and RING.nonzero_cells(rows) == 0
    at = np.array(data.draw(st.permutations(range(capacity)))[:n], dtype=np.intp)
    RING.set_rows(rows, at, RING.make_block(stored))
    expected = [RING.zero()] * capacity
    for slot, payload in zip(at.tolist(), stored):
        expected[slot] = payload
    assert_rows(rows, expected)
    assert_rows(RING.take(rows, at[::-1]), stored[::-1])

    summed = RING.add_at(rows, at, RING.make_block(delta))
    assert_rows(summed, LOOPS.add_many(stored, delta))
    for slot, a, b in zip(at.tolist(), stored, delta):
        expected[slot] = RING.add(a, b)
    assert_rows(rows, expected)

    for slot in range(capacity):
        expected[slot] = RING.add(expected[slot], single)
        assert RING.add_row(rows, slot, single) == RING.is_zero(expected[slot])
        assert same(RING.row(rows, slot), expected[slot])
    RING.set_rows(rows, at, single)
    assert all(same(RING.row(rows, slot), single) for slot in at.tolist())
    assert RING.nonzero_cells(rows) == sum(len(p.codes) for p in rows_of(rows))
    assert RING.nonzero_cells(RING.make_block(stored)) == sum(len(p.codes) for p in stored)


def test_a_zero_count_factor_annihilates_the_other_side():
    no_count = RING.sub(RING.lift(0, "red"), RING.one())  # c == 0, s != 0
    other = RING.mul(RING.lift(1, 2.0), RING.lift(3, "round"))
    product = RING.mul(no_count, other)
    assert product.c == 0.0 and RING.linear(product, 1).is_empty
    block = RING.mul_many(RING.make_block([no_count, other]), RING.make_block([other, RING.zero()]))
    assert_rows(block, [product, RING.zero()])


# ----------------------------------------------------------------------
# The row arena against a {slot: payload} model
# ----------------------------------------------------------------------

#: ``_tag_bits`` per sort-key form: as built (the row above a whole code),
#: wide enough that only a row of 0 or 1 fits above a code (the squeezed
#: fields), and too wide for either (the row above the codes' ranks).
KEY_FORMS = {"direct": None, "squeezed": 14, "ranked": 64}


def key_form_ring(form: str) -> SparseCofactorRing:
    ring = SparseCofactorRing(FEATURES)
    if KEY_FORMS[form] is not None:
        ring._tag_bits = KEY_FORMS[form]
    return ring


@pytest.mark.parametrize("form", KEY_FORMS)
def test_each_form_sorts_its_own_way(form):
    ring = key_form_ring(form)
    block = ring.make_block([RING.lift(0, "red"), RING.lift(1, 2.0), RING.lift(3, 7)])
    with mock.patch.object(ring, "_packing_width", wraps=ring._packing_width) as squeezed, \
            mock.patch.object(cofactor_sparse.np, "unique", wraps=np.unique) as ranked:
        assert_rows(ring.add_many(block, block), [RING.scale(p, 2) for p in rows_of(block)])
    assert (squeezed.called, ranked.called) == {
        "direct": (False, False), "squeezed": (True, False), "ranked": (True, True)
    }[form]


def arena_machine(form: str):
    """One ``SparseCofactorRows`` driven through set, add, cancel, take,
    pickle and the doubling ``SlotStore._insert`` does, beside a
    ``{slot: payload}`` dict: rows grow (moving to the arena's top, or
    growing in place at it), shrink, cancel to the exact zero and get
    packed."""
    ring = key_form_ring(form)

    class ArenaVersusModel(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            self.rows = ring.alloc_block(3)
            self.model = [RING.zero()] * 3

        def slots(self, data):
            return np.array(
                data.draw(st.lists(st.integers(0, len(self.model) - 1), unique=True, max_size=4)),
                dtype=np.intp,
            )

        @rule(data=st.data())
        def set_rows(self, data):
            at = self.slots(data)
            values = data.draw(st.lists(payloads, min_size=len(at), max_size=len(at)))
            ring.set_rows(self.rows, at, ring.make_block(values))
            for slot, value in zip(at.tolist(), values):
                self.model[slot] = value

        @rule(data=st.data(), value=payloads)
        def set_one_payload_at_many_slots(self, data, value):
            at = self.slots(data)
            ring.set_rows(self.rows, at, value)
            for slot in at.tolist():
                self.model[slot] = value

        @rule(data=st.data())
        def add_at(self, data):
            at = self.slots(data)
            deltas = data.draw(st.lists(payloads, min_size=len(at), max_size=len(at)))
            summed = ring.add_at(self.rows, at, ring.make_block(deltas))
            expected = [RING.add(self.model[slot], d) for slot, d in zip(at.tolist(), deltas)]
            assert_rows(summed, expected)
            for slot, value in zip(at.tolist(), expected):
                self.model[slot] = value

        @rule(data=st.data())
        def cancel_to_zero(self, data):
            at = self.slots(data)
            gone = ring.make_block([RING.neg(self.model[slot]) for slot in at.tolist()])
            assert ring.is_zero_many(ring.add_at(self.rows, at, gone)).all()
            for slot in at.tolist():
                self.model[slot] = RING.zero()

        @rule(data=st.data(), value=payloads)
        def add_row(self, data, value):
            slot = data.draw(st.integers(0, len(self.model) - 1))
            expected = RING.add(self.model[slot], value)
            assert ring.add_row(self.rows, slot, value) == RING.is_zero(expected)
            self.model[slot] = expected

        @precondition(lambda self: len(self.model) < 40)
        @rule(extra=st.integers(0, 5))
        def double(self, extra):
            """What ``SlotStore._insert`` does when it runs out of rows."""
            used = np.arange(len(self.rows))
            grown = ring.alloc_block(2 * len(self.rows) + extra)
            ring.set_rows(grown, used, ring.take(self.rows, used))
            self.rows = grown
            self.model += [RING.zero()] * (len(grown) - len(used))

        @rule(data=st.data())
        def take(self, data):
            picks = data.draw(st.lists(st.integers(0, len(self.model) - 1), max_size=6))
            assert_rows(ring.take(self.rows, picks), [self.model[slot] for slot in picks])

        @rule()
        def pickle_round_trip(self):
            assert_rows(pickle.loads(pickle.dumps(self.rows)), self.model)

        @invariant()
        def rows_are_the_model(self):
            rows = self.rows
            assert_rows(rows, self.model)
            for slot, payload in enumerate(self.model):
                assert same(ring.row(rows, slot), payload)
            assert ring.nonzero_cells(rows) == sum(len(p.codes) for p in self.model)

        @invariant()
        def arena_bookkeeping(self):
            rows = self.rows
            assert rows.live == rows.length.sum() <= rows.top <= len(rows.codes)
            assert len(rows.codes) <= rows.live + rows.live // 4 + rows.burst
            # Live rows own disjoint cells below top.
            owned = np.zeros(rows.top, dtype=np.intp)
            for start, length in zip(rows.start.tolist(), rows.length.tolist()):
                owned[start : start + length] += 1
            assert owned.max(initial=0) <= 1

    ArenaVersusModel.TestCase.settings = settings(
        max_examples=40, stateful_step_count=25, deadline=None
    )
    return ArenaVersusModel.TestCase


TestArenaDirectKey = arena_machine("direct")
TestArenaSqueezedKey = arena_machine("squeezed")
TestArenaRankedKey = arena_machine("ranked")


# ----------------------------------------------------------------------
# Codes stay inside the process
# ----------------------------------------------------------------------


@given(blocks)
def test_pickles_carry_values_and_re_intern(payloads_):
    block = RING.make_block(payloads_)
    rows = RING._rows_of(block)
    blob = pickle.dumps((payloads_, block, rows))
    assert_rows(pickle.loads(blob)[1], payloads_)
    # Another process: same attribute names, categories interned in
    # another order — every code differs, the decoded values do not.
    with mock.patch.dict(cofactor_sparse._VOCABULARIES, clear=True):
        for name, values in (("colour", ["blue", "x", "green", "red"]), ("shape", [7, "round"])):
            cofactor_sparse.vocabulary(name).encode(values)
        loaded, loaded_block, loaded_rows = pickle.loads(blob)
        theirs = loaded_block.ring
        assert theirs is loaded_rows.ring is not RING and theirs.features == FEATURES
        for mine, other in zip(payloads_, loaded):
            assert other.ring is theirs
            assert_canonical(other)
            assert as_dicts(theirs.decode(other)) == as_dicts(RING.decode(mine))
        for other_block in (loaded_block, loaded_rows):
            assert [as_dicts(theirs.decode(p)) for p in theirs.block_payloads(other_block)] == [
                as_dicts(RING.decode(p)) for p in payloads_
            ]


def test_two_rings_over_the_same_attributes_share_codes():
    other = SparseCofactorRing(FEATURES)
    a = RING.mul(RING.lift(0, "green"), RING.lift(3, ("a", "tuple")))
    b = other.mul(other.lift(0, "green"), other.lift(3, ("a", "tuple")))
    assert RING.eq(a, b) and a == b and other.eq(other.add(a, b), RING.scale(a, 2))


class TestCodeWidth:
    def test_too_many_features_name_the_first_that_does_not_fit(self):
        features = tuple(Feature.categorical(f"f{i}") for i in range(cofactor_sparse.MAX_DEGREE + 2))
        SparseCofactorRing(features[: cofactor_sparse.MAX_DEGREE])
        with pytest.raises(RingError, match=f"'f{cofactor_sparse.MAX_DEGREE}' does not fit"):
            SparseCofactorRing(features)

    def test_too_many_bins(self):
        wide = Feature.binned("b", 0.0, 1.0, cofactor_sparse.CATEGORY_LIMIT + 1)
        with pytest.raises(RingError, match="'b'.*bins do not fit"):
            SparseCofactorRing((wide,))

    def test_a_full_vocabulary_raises_and_never_wraps(self):
        ring = SparseCofactorRing((Feature.categorical("crowded"),))
        with mock.patch.object(cofactor_sparse, "CATEGORY_LIMIT", 3):
            ring.lift_many(0, ["a", "b", "c"])
            for lift in (lambda: ring.lift(0, "d"), lambda: ring.lift_many(0, ["a", "d"])):
                with pytest.raises(RingError, match="'crowded' has more than 3 categories"):
                    lift()
            assert ring.lift(0, "c").codes[0] >> 24 == 2  # still what it was

    def test_foreign_entries_are_refused(self):
        with pytest.raises(RingError, match="tag outside"):
            RING.intern(1.0, [9999], ["red"], [0], [1.0])
        with pytest.raises(RingError, match="category outside 0..3"):
            RING.intern(1.0, [2], [4], [0], [1.0])  # bin 4 of 4 bins


class TestBadCategories:
    @pytest.mark.parametrize("value", [["a", "list"], {"a": "dict"}])
    def test_unhashable(self, value):
        with pytest.raises(RingError, match="'colour'.*unhashable"):
            RING.lift(0, value)
        with pytest.raises(RingError, match="'colour'.*unhashable"):
            RING.lift_many(0, ["red", value])

    def test_nan(self):
        for lift in (
            lambda: RING.lift(0, float("nan")),
            lambda: RING.lift_many(0, [1.0, float("nan")]),
            lambda: RING.lift_many(0, np.array([1.0, np.nan])),
        ):
            with pytest.raises(RingError, match="'colour': NaN is not a category"):
                lift()


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestBinning:
    BINNING = Binning(-1.0, 3.0, 8)
    VALUES = [
        -1.0, 3.0, 2.999999999, -1.0000001, -5, 7, 0, 0.0, -0.0, 1, 1.0, 1.5,
        2, -1, 3, 1e300, -1e300, float("inf"), float("-inf"), 0.49999999999999994,
    ]

    def test_bin_many_equals_bin_value_for_value(self):
        expected = [self.BINNING.bin(v) for v in self.VALUES]
        assert expected[:4] == [0, 7, 7, 0] and expected[17:19] == [7, 0]
        for column in (self.VALUES, np.array(self.VALUES), np.array(self.VALUES, dtype=object)):
            got = self.BINNING.bin_many(column)
            assert got.dtype == np.int64 and got.tolist() == expected
        ints = [-3, -1, 0, 1, 2, 3, 9]
        assert self.BINNING.bin_many(np.array(ints)).tolist() == [
            self.BINNING.bin(v) for v in ints
        ] == [self.BINNING.bin(float(v)) for v in ints]

    @given(st.floats(allow_nan=False), st.floats(-10, 10), st.floats(0.001, 100), st.integers(1, 50))
    def test_bin_many_equals_bin_on_drawn_binnings(self, value, low, span, count):
        binning = Binning(low, low + span, count)
        assert binning.bin_many([value]).tolist() == [binning.bin(value)]

    def test_a_range_wider_than_a_float_is_rejected(self):
        for low, high in ((-1e308, 1.7e308), (float("-inf"), 0.0), (0.0, float("inf"))):
            with pytest.raises(RingError, match="not finite"):
                Binning(low, high, 2)
        with pytest.raises(RingError, match="too narrow"):
            Binning(0.0, 5e-324, 2)

    def test_a_value_far_outside_a_narrow_range_clamps_without_overflow(self):
        binning = Binning(0.0, 0.001, 50)
        assert binning.bin_many([1.7e308, -1.7e308]).tolist() == [49, 0]
        assert [binning.bin(1.7e308), binning.bin(-1.7e308)] == [49, 0]

    def test_nan_raises_the_same_error(self):
        with pytest.raises(RingError, match="cannot bin NaN"):
            self.BINNING.bin(float("nan"))
        with pytest.raises(RingError, match="cannot bin NaN"):
            self.BINNING.bin_many([0.0, float("nan")])
        with pytest.raises(RingError, match="cannot bin NaN"):
            RING.lift_many(2, np.array([1.0, np.nan]))
