"""Dense reference for the numeric cofactor ring (test-only).

Every payload is ``(c, s[m], Q[m, m])`` over the whole layout, zeros
included, and the operations are the paper's formulas written out with
no notion of support. :class:`~repro.rings.NumericCofactorRing` stores
only the slots in a payload's support; its results, widened through
``ring.dense``, must equal these cell for cell.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.rings.base import Ring

DensePayload = Tuple[float, np.ndarray, np.ndarray]


class DenseCofactorRing(Ring):
    def __init__(self, degree: int):
        self.degree = degree
        self.name = f"DenseCofactor<{degree}>"

    def zero(self) -> DensePayload:
        return self.from_int(0)

    def one(self) -> DensePayload:
        return self.from_int(1)

    def from_int(self, n: int) -> DensePayload:
        m = self.degree
        return float(n), np.zeros(m), np.zeros((m, m))

    def lift(self, index: int, x: float) -> DensePayload:
        _, s, q = self.zero()
        s[index] = x
        q[index, index] = x * x
        return 1.0, s, q

    def add(self, a: DensePayload, b: DensePayload) -> DensePayload:
        return a[0] + b[0], a[1] + b[1], a[2] + b[2]

    def mul(self, a: DensePayload, b: DensePayload) -> DensePayload:
        (ca, sa, qa), (cb, sb, qb) = a, b
        cross = np.outer(sa, sb)
        return ca * cb, cb * sa + ca * sb, cb * qa + ca * qb + cross + cross.T

    def neg(self, a: DensePayload) -> DensePayload:
        return -a[0], -a[1], -a[2]

    def scale(self, a: DensePayload, n: int) -> DensePayload:
        return a[0] * n, a[1] * n, a[2] * n

    def eq(self, a: DensePayload, b: DensePayload) -> bool:
        return (
            a[0] == b[0] and np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])
        )
