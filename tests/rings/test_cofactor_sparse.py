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
  rows that cancel to the exact zero, ``c == 0`` factors and no rows.

Plus the places a code can go wrong silently: pickles carry category
values and re-intern, code-width overflows raise, bad categories fail
at lift.
"""

import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    with mock.patch.object(RING, "_tag_bits", 64):  # the two-key sort
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

    def test_nan_raises_the_same_error(self):
        with pytest.raises(RingError, match="cannot bin NaN"):
            self.BINNING.bin(float("nan"))
        with pytest.raises(RingError, match="cannot bin NaN"):
            self.BINNING.bin_many([0.0, float("nan")])
        with pytest.raises(RingError, match="cannot bin NaN"):
            RING.lift_many(2, np.array([1.0, np.nan]))
