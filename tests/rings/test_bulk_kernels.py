"""Bulk ring kernels cross-validated against the per-element operations.

Property-style: random payload blocks for the numeric cofactor ring's
array kernels and for ``Ring``'s generic list kernels — over scalar
payloads (Z, floats) and over ``GeneralCofactorRing(FloatRing())`` —
checked element-wise against loops of ``add``/``mul``/``neg``/``scale``/
``lift``, including ±-cancellation to the exact ring zero.
"""

import random

import numpy as np
import pytest

from repro.rings import (
    CofactorLayout,
    FloatRing,
    NumericCofactorRing,
    Z,
)
from tests.rings.reference_cofactor import GeneralCofactorRing

LAYOUT = CofactorLayout(("x", "y", "z"))


def payload_samples(ring, rng, n):
    """Random payloads with plenty of structure (and some exact zeros)."""
    if isinstance(ring, NumericCofactorRing):
        out = []
        for _ in range(n):
            payload = ring.lift(rng.randrange(ring.degree), rng.uniform(-3, 3))
            if rng.random() < 0.5:
                payload = ring.mul(
                    payload,
                    ring.lift(rng.randrange(ring.degree), rng.uniform(-3, 3)),
                )
            if rng.random() < 0.1:
                payload = ring.zero()
            out.append(payload)
        return out
    if isinstance(ring, GeneralCofactorRing):
        return [
            ring.lift(rng.randrange(ring.degree), rng.uniform(-3, 3), rng.uniform(0, 9))
            if rng.random() > 0.1
            else ring.zero()
            for _ in range(n)
        ]
    if ring is Z:
        return [rng.randrange(-5, 6) for _ in range(n)]
    return [rng.uniform(-5, 5) if rng.random() > 0.1 else 0.0 for _ in range(n)]


def assert_payload_equal(ring, left, right):
    close = getattr(ring, "close", None)
    if close is not None and not isinstance(left, (int, bool)):
        assert close(left, right, 1e-9)
    else:
        assert ring.eq(left, right)


RINGS = [
    pytest.param(Z, id="Z"),
    pytest.param(FloatRing(), id="float"),
    pytest.param(NumericCofactorRing(LAYOUT), id="numeric-cofactor"),
    pytest.param(GeneralCofactorRing(FloatRing(), LAYOUT), id="general-fallback"),
]


@pytest.mark.parametrize("ring", RINGS)
class TestBulkKernels:
    def rng(self):
        return random.Random(17)

    def test_roundtrip_through_block(self, ring):
        payloads = payload_samples(ring, self.rng(), 23)
        unpacked = list(ring.block_payloads(ring.make_block(payloads)))
        assert len(unpacked) == 23
        for a, b in zip(payloads, unpacked):
            assert_payload_equal(ring, a, b)

    def test_add_mul_neg_many_match_elementwise(self, ring):
        rng = self.rng()
        a = payload_samples(ring, rng, 31)
        b = payload_samples(ring, rng, 31)
        block_a, block_b = ring.make_block(a), ring.make_block(b)
        for kernel, op in (
            (ring.add_many, ring.add),
            (ring.mul_many, ring.mul),
        ):
            got = list(ring.block_payloads(kernel(block_a, block_b)))
            for x, y, result in zip(a, b, got):
                assert_payload_equal(ring, op(x, y), result)
        got = list(ring.block_payloads(ring.neg_many(block_a)))
        for x, result in zip(a, got):
            assert_payload_equal(ring, ring.neg(x), result)

    def test_scale_and_from_int_many(self, ring):
        rng = self.rng()
        payloads = payload_samples(ring, rng, 19)
        counts = [rng.randrange(-4, 5) for _ in range(19)]
        scaled = list(
            ring.block_payloads(ring.scale_many(ring.make_block(payloads), counts))
        )
        for payload, n, result in zip(payloads, counts, scaled):
            assert_payload_equal(ring, ring.scale(payload, n), result)
        images = list(ring.block_payloads(ring.from_int_many(counts)))
        for n, result in zip(counts, images):
            assert_payload_equal(ring, ring.from_int(n), result)

    def test_take_and_zero_block(self, ring):
        payloads = payload_samples(ring, self.rng(), 11)
        block = ring.make_block(payloads)
        picks = [8, 0, 3, 3, 10]
        taken = list(ring.block_payloads(ring.take(block, np.array(picks))))
        for i, result in zip(picks, taken):
            assert_payload_equal(ring, payloads[i], result)
        zeros = ring.zero_block(4)
        assert ring.block_size(zeros) == 4
        assert ring.is_zero_many(zeros).all()
        assert ring.block_size(ring.zero_block(0)) == 0

    def test_is_zero_many_matches_is_zero(self, ring):
        payloads = payload_samples(ring, self.rng(), 29)
        mask = ring.is_zero_many(ring.make_block(payloads))
        assert list(mask) == [ring.is_zero(p) for p in payloads]

    def test_sum_segments_matches_sequential_sums(self, ring):
        rng = self.rng()
        payloads = payload_samples(ring, rng, 40)
        ids = [rng.randrange(7) for _ in range(40)]
        summed = list(
            ring.block_payloads(
                ring.sum_segments(ring.make_block(payloads), np.array(ids), 8)
            )
        )
        assert len(summed) == 8
        for gid in range(8):
            expected = ring.sum(
                ring.copy(p) for p, g in zip(payloads, ids) if g == gid
            )
            assert_payload_equal(ring, expected, summed[gid])

    def test_cancellation_sums_to_exact_ring_zero(self, ring):
        """x + (-x) per segment must hit the *exact* zero (prunable)."""
        payloads = payload_samples(ring, self.rng(), 15)
        block = ring.make_block(payloads)
        negated = ring.neg_many(block)
        both = ring.make_block(
            list(ring.block_payloads(block)) + list(ring.block_payloads(negated))
        )
        ids = np.r_[np.arange(15), np.arange(15)]
        totals = ring.sum_segments(both, ids, 15)
        assert ring.is_zero_many(totals).all()
        for payload in ring.block_payloads(totals):
            assert ring.is_zero(payload)


@pytest.mark.parametrize(
    "ring",
    [
        pytest.param(NumericCofactorRing(LAYOUT), id="numeric-cofactor"),
        pytest.param(GeneralCofactorRing(FloatRing(), LAYOUT), id="general-fallback"),
    ],
)
def test_lift_many_matches_elementwise_lift(ring):
    rng = random.Random(23)
    values = [rng.uniform(-3, 3) for _ in range(17)]
    for index in range(ring.degree):
        if isinstance(ring, GeneralCofactorRing):
            squares = [v * v for v in values]
            block = ring.lift_many(index, values, squares)
            expected = [ring.lift(index, v, v * v) for v in values]
        else:
            block = ring.lift_many(index, values)
            expected = [ring.lift(index, v) for v in values]
        for want, got in zip(expected, ring.block_payloads(block)):
            assert_payload_equal(ring, want, got)


def test_lift_many_without_lift_raises():
    from repro.errors import RingError

    with pytest.raises(RingError, match="lift_many"):
        Z.lift_many(0, [1, 2])


def test_scalar_blocks_scatter_native_python_payloads():
    """Block payloads must be indistinguishable from per-tuple ones."""
    for ring, values in ((Z, [1, -2, 3]), (FloatRing(), [0.5, -1.5, 2.0])):
        out = list(ring.block_payloads(ring.make_block(values)))
        assert out == values
        assert all(type(v) is type(values[0]) for v in out)
