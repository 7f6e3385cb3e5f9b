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

from repro.errors import RingError
from repro.rings.base import Ring

__all__ = ["IntegerRing", "FloatRing", "BoolRing", "MinPlusRing", "Z", "R_FLOAT"]


class IntegerRing(Ring):
    """The ring of integers Z; payloads are plain ``int``."""

    name = "Z"
    is_scalar = True

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


class FloatRing(Ring):
    """The field of (floating point) reals; payloads are ``float``.

    Equality is exact; :meth:`close` offers a tolerance-based comparison
    for tests that accumulate rounding error.
    """

    name = "R"
    is_scalar = True

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

    def is_zero(self, a: float) -> bool:
        return a == 0.0

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
