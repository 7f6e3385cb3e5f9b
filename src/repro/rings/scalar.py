"""Scalar rings and semirings: Z, floats, booleans, min-plus.

The **Z ring** is the workhorse of classical IVM: payloads are tuple
multiplicities, inserts add positive and deletes add negative multiplicities
(Koch-style delta processing, which the paper builds on). The **float ring**
plays the same role for continuous aggregates and serves as the scalar ring
inside the numeric cofactor ring.

:class:`BoolRing` and :class:`MinPlusRing` demonstrate the paper's point
that the maintenance machinery is ring-generic: swapping in the boolean
semiring turns the count query into set-semantics existence, and the
tropical semiring turns it into a min-cost aggregate. Both lack additive
inverses, so they support insert-only streams (``has_negation = False``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import RingError
from repro.rings.base import Ring

__all__ = ["IntegerRing", "FloatRing", "BoolRing", "MinPlusRing", "Z", "R_FLOAT"]


class _ArrayBlockKernels:
    """Bulk kernels over 1-d numpy blocks, shared by the scalar rings.

    Blocks are plain arrays of ``_block_dtype``; :meth:`block_payloads`
    converts back to native Python scalars (via ``tolist``) so payloads
    scattered into relations are indistinguishable from the per-element
    path's. The Z block dtype is ``int64`` — far beyond any realistic
    multiplicity, but unlike Python ints not arbitrary-precision.
    """

    _block_dtype: type = np.float64

    def make_block(self, payloads):
        return np.array(list(payloads), dtype=self._block_dtype)

    def zero_block(self, n):
        return np.zeros(n, dtype=self._block_dtype)

    def block_size(self, block):
        return len(block)

    def block_payloads(self, block):
        return iter(block.tolist())

    def take(self, block, indices):
        return block[np.asarray(indices, dtype=np.intp)]

    def add_many(self, a, b):
        return a + b

    def mul_many(self, a, b):
        return a * b

    def neg_many(self, a):
        return -a

    def scale_many(self, block, counts):
        return block * np.asarray(counts, dtype=self._block_dtype)

    def from_int_many(self, counts):
        return np.asarray(counts, dtype=self._block_dtype)

    def is_zero_many(self, block):
        return block == 0

    def sum_segments(self, block, segment_ids, count):
        # np.add.at is an exact unordered scatter-add for both dtypes
        # (bincount would round-trip int64 through float64).
        totals = np.zeros(count, dtype=self._block_dtype)
        np.add.at(totals, np.asarray(segment_ids, dtype=np.intp), block)
        return totals

    # Row kernels of a view's slot store (see NumericCofactorRing): scalar
    # payloads span no features, so ``support`` is ignored.

    def alloc_block(self, n, support=()):
        return np.zeros(n, dtype=self._block_dtype)

    def add_at(self, block, at, delta):
        block[at] += delta
        return block[at]

    def add_row(self, block, i, a):
        block[i] += a
        return bool(self.is_zero(block.item(i)))

    def set_rows(self, block, at, rows):
        block[at] = rows

    def row(self, block, i):
        return block.item(i)


class IntegerRing(_ArrayBlockKernels, Ring):
    """The ring of integers Z; payloads are plain ``int``."""

    name = "Z"
    is_scalar = True
    has_bulk_kernels = True
    _block_dtype = np.int64

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def add(self, a: int, b: int) -> int:
        return a + b

    def mul(self, a: int, b: int) -> int:
        return a * b

    def neg(self, a: int) -> int:
        return -a

    def from_int(self, n: int) -> int:
        return n

    def scale(self, a: int, n: int) -> int:
        return a * n

    def is_zero(self, a: int) -> bool:
        return a == 0


class FloatRing(_ArrayBlockKernels, Ring):
    """The field of (floating point) reals; payloads are ``float``.

    Equality is exact by default; :meth:`close` offers a tolerance-based
    comparison for tests that accumulate rounding error.
    """

    name = "R"
    has_bulk_kernels = True
    _block_dtype = np.float64

    def __init__(self, zero_tolerance: float = 0.0):
        #: Magnitudes at or below this are considered zero when pruning.
        self.zero_tolerance = zero_tolerance

    def is_zero_many(self, block):
        if self.zero_tolerance == 0.0:
            return block == 0.0
        return np.abs(block) <= self.zero_tolerance

    @property
    def is_scalar(self) -> bool:
        # Truthiness-based zero pruning in the fast paths only matches
        # is_zero when the tolerance is exactly 0.
        return self.zero_tolerance == 0.0

    def zero(self) -> float:
        return 0.0

    def one(self) -> float:
        return 1.0

    def add(self, a: float, b: float) -> float:
        return a + b

    def mul(self, a: float, b: float) -> float:
        return a * b

    def neg(self, a: float) -> float:
        return -a

    def from_int(self, n: int) -> float:
        return float(n)

    def scale(self, a: float, n: int) -> float:
        return a * n

    has_float_scaling = True

    def scale_float(self, a: float, factor: float) -> float:
        return a * factor

    def scale_float_many(self, block, factor: float):
        return block * factor

    def is_zero(self, a: float) -> bool:
        return abs(a) <= self.zero_tolerance

    def close(self, a: float, b: float, tol: float = 1e-9) -> bool:
        """Tolerant comparison for accumulated floating-point payloads."""
        return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


class BoolRing(Ring):
    """Boolean semiring (or, and): set-semantics query evaluation.

    Supports insert-only maintenance; deletes would require the full
    provenance the Z ring keeps, which is exactly the paper's argument for
    running on Z and deriving set semantics at the end.
    """

    name = "B"
    has_negation = False

    def zero(self) -> bool:
        return False

    def one(self) -> bool:
        return True

    def add(self, a: bool, b: bool) -> bool:
        return a or b

    def mul(self, a: bool, b: bool) -> bool:
        return a and b

    def neg(self, a: bool) -> bool:
        raise RingError("the boolean semiring has no additive inverses")

    def from_int(self, n: int) -> bool:
        if n < 0:
            raise RingError("the boolean semiring cannot encode deletes")
        return n > 0

    def scale(self, a: bool, n: int) -> bool:
        if n < 0:
            raise RingError("the boolean semiring cannot encode deletes")
        return a and n > 0


class MinPlusRing(Ring):
    """Tropical (min, +) semiring: minimum-cost aggregates over joins.

    ``zero`` is +infinity and ``one`` is 0.0. Insert-only, like
    :class:`BoolRing`.
    """

    name = "MinPlus"
    has_negation = False

    def zero(self) -> float:
        return math.inf

    def one(self) -> float:
        return 0.0

    def add(self, a: float, b: float) -> float:
        return a if a <= b else b

    def mul(self, a: float, b: float) -> float:
        return a + b

    def neg(self, a: float) -> float:
        raise RingError("the tropical semiring has no additive inverses")

    def from_int(self, n: int) -> float:
        if n < 0:
            raise RingError("the tropical semiring cannot encode deletes")
        return math.inf if n == 0 else 0.0

    def scale(self, a: float, n: int) -> float:
        if n < 0:
            raise RingError("the tropical semiring cannot encode deletes")
        return math.inf if n == 0 else a

    def is_zero(self, a: float) -> bool:
        return a == math.inf


#: Shared singleton instances — the rings are stateless.
Z = IntegerRing()
R_FLOAT = FloatRing()
