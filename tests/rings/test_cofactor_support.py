"""Support-restricted numeric cofactor payloads.

A payload stores ``s``/``Q`` only over its *support*; supports propagate
through the algebra (lift -> one slot, integers -> none, sums keep,
products take the union). Three properties pin that down:

- the ring laws hold over random, overlapping, disjoint and empty
  supports (the delta rules are derived from exactly these axioms);
- every bulk kernel equals its scalar operation row by row, support
  included (``sum_segments`` and ``is_zero_many`` against the ``Ring``
  base class's per-payload loops, whatever shortcut the kernel takes);
- results equal a dense reference ring cell for cell on random
  expression trees (``tests/rings/dense_cofactor.py``).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import RingError
from repro.rings import CofactorLayout, NumericCofactor, NumericCofactorRing, Ring
from repro.rings.base import check_ring_axioms
from tests.rings.dense_cofactor import DenseCofactorRing

M = 5
LAYOUT = CofactorLayout(tuple("abcde"))
RING = NumericCofactorRing(LAYOUT)
DENSE = DenseCofactorRing(M)


class ScalarLoops(NumericCofactorRing):
    """The ring's scalar operations under the ``Ring`` base class's
    group-sum and zero test: one per-payload loop each."""

    is_zero_many = Ring.is_zero_many
    sum_segments = Ring.sum_segments


LOOPS = ScalarLoops(LAYOUT)

#: Integer-valued, so sums and products of a few payloads are exact.
exact = st.integers(-4, 4).map(float)
#: Arbitrary but tame: deep products stay far from overflow.
floats = st.floats(-100.0, 100.0, allow_nan=False, width=64)
supports = st.sets(st.integers(0, M - 1)).map(lambda s: tuple(sorted(s)))


@st.composite
def payloads(draw, support=supports, values=exact):
    support = draw(support) if not isinstance(support, tuple) else support
    k = len(support)
    s = np.array(draw(st.lists(values, min_size=k, max_size=k)))
    upper = np.array(
        draw(st.lists(values, min_size=k * k, max_size=k * k))
    ).reshape(k, k)
    q = np.triu(upper) + np.triu(upper, 1).T
    return NumericCofactor(draw(values), s, q, support)


@st.composite
def support_triples(draw, mode):
    if mode == "random":
        return draw(st.tuples(supports, supports, supports))
    if mode == "overlapping":
        common = draw(st.sets(st.integers(0, M - 1), min_size=1))
        return tuple(
            tuple(sorted(common | set(draw(supports)))) for _ in range(3)
        )
    # Each slot goes to one operand or to none: pairwise disjoint.
    owner = draw(st.lists(st.integers(0, 3), min_size=M, max_size=M))
    triple = [
        tuple(i for i in range(M) if owner[i] == operand) for operand in range(3)
    ]
    if mode == "empty":
        triple[draw(st.integers(0, 2))] = ()
    return tuple(triple)


def assert_identical(got, want):
    """Same support, same bits (never ``close``)."""
    assert got.support == want.support
    assert got.c == want.c
    assert np.array_equal(got.s, want.s)
    assert np.array_equal(got.q, want.q)


class TestSupportPropagation:
    def test_constants_and_lifts(self):
        for payload in (RING.zero(), RING.one(), RING.from_int(-3)):
            assert payload.support == ()
            assert payload.s.shape == (0,) and payload.q.shape == (0, 0)
        assert RING.lift(3, 2.0).support == (3,)
        assert RING.from_int_many([1, 2]).support == ()
        assert RING.lift_many(3, [1.0, 2.0]).support == (3,)

    @given(payloads(), payloads(), st.integers(-3, 3))
    def test_sums_keep_and_products_unite(self, a, b, n):
        union = tuple(sorted(set(a.support) | set(b.support)))
        assert RING.mul(a, b).support == union
        assert RING.add(a, b).support == union
        assert RING.add(a, RING.neg(a)).support == a.support
        assert RING.scale(a, n).support == a.support
        assert RING.copy(a).support == a.support

    def test_supports_are_shared_not_rebuilt(self):
        a, b = RING.lift(0, 1.0), RING.lift(2, 1.0)
        assert RING.mul(a, b).support is RING.mul(a, b).support
        assert RING.lift(0, 5.0).support is a.support

    @given(payloads())
    def test_dense_spans_the_layout(self, a):
        dense = RING.dense(a)
        assert dense.support == tuple(range(M))
        assert dense.s.shape == (M,) and dense.q.shape == (M, M)
        assert RING.eq(dense, a)
        outside = [i for i in range(M) if i not in a.support]
        assert not dense.s[outside].any()
        assert not dense.q[outside].any() and not dense.q[:, outside].any()

    @given(payloads(), supports)
    def test_project_keeps_or_refuses(self, a, target):
        dense = RING.dense(a)
        lost = [i for i in a.support if i not in target]
        if dense.s[lost].any() or dense.q[lost].any() or dense.q[:, lost].any():
            with pytest.raises(RingError, match="outside"):
                RING.project(dense, target)
        else:
            projected = RING.project(dense, target)
            assert projected.support == target
            assert RING.eq(projected, a)


@pytest.mark.parametrize("mode", ("random", "overlapping", "disjoint", "empty"))
class TestRingLaws:
    @given(st.data())
    def test_axioms(self, mode, data):
        a, b, c = (
            data.draw(payloads(support=support))
            for support in data.draw(support_triples(mode))
        )
        check_ring_axioms(RING, a, b, c)


@st.composite
def blocks(draw, values=floats, rows=st.integers(1, 6)):
    """Two equal-length lists of payloads, each over one support."""
    n = draw(rows)
    support_a, support_b = draw(supports), draw(supports)
    return (
        [draw(payloads(support=support_a, values=values)) for _ in range(n)],
        [draw(payloads(support=support_b, values=values)) for _ in range(n)],
    )


class TestBulkKernelsMatchScalarOps:
    @given(blocks())
    def test_block_roundtrip(self, pair):
        a, _ = pair
        block = RING.make_block(a)
        assert block.support == a[0].support
        assert RING.block_size(block) == len(block) == len(a)
        for got, want in zip(RING.block_payloads(block), a):
            assert_identical(got, want)

    @given(blocks())
    def test_mixed_supports_pack_over_their_union(self, pair):
        a, b = pair
        block = RING.make_block(a + b)
        assert block.support == tuple(sorted(set(a[0].support) | set(b[0].support)))
        for got, want in zip(RING.block_payloads(block), a + b):
            assert got.support == block.support
            assert RING.eq(got, want)

    @given(blocks())
    def test_binary_kernels(self, pair):
        a, b = pair
        block_a, block_b = RING.make_block(a), RING.make_block(b)
        for kernel, op in ((RING.add_many, RING.add), (RING.mul_many, RING.mul)):
            rows = list(RING.block_payloads(kernel(block_a, block_b)))
            assert len(rows) == len(a)
            for got, x, y in zip(rows, a, b):
                assert_identical(got, op(x, y))

    @given(blocks(), st.data())
    def test_unary_kernels(self, pair, data):
        a, _ = pair
        block = RING.make_block(a)
        n = len(a)
        counts = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        factor = data.draw(floats)
        picks = data.draw(st.lists(st.integers(0, n - 1), max_size=8))
        for rows, want in (
            (RING.neg_many(block), [RING.neg(x) for x in a]),
            (RING.scale_many(block, counts), [RING.scale(x, c) for x, c in zip(a, counts)]),
            (
                RING.scale_float_many(block, factor),
                [RING.scale_float(x, factor) for x in a],
            ),
            (RING.take(block, picks), [a[i] for i in picks]),
        ):
            rows = list(RING.block_payloads(rows))
            assert len(rows) == len(want)
            for got, expected in zip(rows, want):
                assert_identical(got, expected)
        assert RING.is_zero_many(block).tolist() == [RING.is_zero(x) for x in a]
        zeroed = RING.is_zero_many(RING.scale_many(block, [0] * n))
        assert zeroed.all()

    @given(st.integers(0, M - 1), st.lists(floats, max_size=6), st.lists(st.integers(-3, 3), max_size=6))
    def test_entry_kernels(self, index, values, counts):
        for got, x in zip(RING.block_payloads(RING.lift_many(index, values)), values):
            assert_identical(got, RING.lift(index, x))
        for got, n in zip(RING.block_payloads(RING.from_int_many(counts)), counts):
            assert_identical(got, RING.from_int(n))

    @given(blocks(values=exact, rows=st.integers(1, 12)), st.data())
    def test_sum_segments(self, pair, data):
        a, _ = pair
        groups = data.draw(st.integers(1, 4))
        ids = data.draw(
            st.lists(st.integers(0, groups - 1), min_size=len(a), max_size=len(a))
        )
        if data.draw(st.booleans()):
            ids.sort()  # non-decreasing ids skip the kernel's sort
        block = RING.make_block(a)
        summed = RING.sum_segments(block, ids, groups)
        assert summed.support == a[0].support
        for gid, got in enumerate(RING.block_payloads(summed)):
            members = [x for x, g in zip(a, ids) if g == gid]
            assert RING.eq(got, RING.sum(RING.copy(x) for x in members))
            assert got.support == a[0].support
        for got, want in zip(
            RING.block_payloads(summed),
            LOOPS.block_payloads(LOOPS.sum_segments(block, ids, groups)),
        ):
            assert_identical(got, want)

    def test_sum_segments_past_sixteen_bit_ids(self):
        """Ids are radix-sorted as ``uint16`` only while they fit."""
        count = (1 << 16) + 5
        ids = [count - 1, 3, 1 << 16, 3, count - 1, 0, 1 << 16]
        rows = [RING.lift(1, float(v)) for v in range(1, len(ids) + 1)]
        summed = RING.sum_segments(RING.make_block(rows), ids, count)
        got = list(RING.block_payloads(RING.take(summed, sorted(set(ids)))))
        for gid, total in zip(sorted(set(ids)), got):
            members = [x for x, g in zip(rows, ids) if g == gid]
            assert_identical(total, RING.sum(RING.copy(x) for x in members))
        assert int(RING.is_zero_many(summed).sum()) == count - len(set(ids))

    @given(blocks(values=exact, rows=st.integers(1, 8)))
    def test_is_zero_many_reads_past_a_zero_count(self, pair):
        """``c == 0`` alone is not the ring zero: ``s`` / ``Q`` decide."""
        a, _ = pair
        support = a[0].support
        k = len(support)
        hollow = [NumericCofactor(0.0, x.s, x.q, support) for x in a]
        zeros = [NumericCofactor(0.0, np.zeros(k), np.zeros((k, k)), support)]
        block = RING.make_block(a + hollow + zeros)
        want = LOOPS.is_zero_many(block)
        assert RING.is_zero_many(block).tolist() == want.tolist()
        assert want[-1] and want.tolist()[: len(a)] == [RING.is_zero(x) for x in a]


expressions = st.recursive(
    st.one_of(
        st.tuples(st.just("lift"), st.integers(0, M - 1), floats),
        st.tuples(st.just("int"), st.integers(-3, 3)),
    ),
    lambda inner: st.one_of(
        st.tuples(st.just("add"), inner, inner),
        st.tuples(st.just("mul"), inner, inner),
        st.tuples(st.just("neg"), inner),
        st.tuples(st.just("scale"), inner, st.integers(-3, 3)),
    ),
    max_leaves=8,
)


def evaluate(ring, expression):
    op, *args = expression
    if op == "lift":
        return ring.lift(*args)
    if op == "int":
        return ring.from_int(*args)
    if op == "scale":
        return ring.scale(evaluate(ring, args[0]), args[1])
    return getattr(ring, op)(*(evaluate(ring, arg) for arg in args))


class TestMatchesDenseReference:
    """Cells outside a support only ever add or multiply in zeros, so
    skipping them changes no bit of any cell inside it."""

    @given(expressions)
    def test_expression_trees(self, expression):
        got = RING.dense(evaluate(RING, expression))
        c, s, q = evaluate(DENSE, expression)
        assert got.c == c
        assert np.array_equal(got.s, s)
        assert np.array_equal(got.q, q)

    @given(st.lists(st.tuples(floats, floats, floats), min_size=1, max_size=6))
    def test_view_tree_shape(self, rows):
        """SUM over rows of g_a(x) * g_c(y) * g_e(z): one lift per
        feature, as a view computes it — disjoint products throughout."""
        def total(ring):
            acc = ring.zero()
            for x, y, z in rows:
                acc = ring.add(
                    acc,
                    ring.mul(ring.mul(ring.lift(0, x), ring.lift(2, y)), ring.lift(4, z)),
                )
            return acc

        restricted = total(RING)
        assert restricted.support == (0, 2, 4)
        got = RING.dense(restricted)
        c, s, q = total(DENSE)
        assert got.c == c and np.array_equal(got.s, s) and np.array_equal(got.q, q)
