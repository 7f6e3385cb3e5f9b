"""Pairwise mutual information from maintained count aggregates.

Section 2, MI: for categorical attributes X and Y the maintained payload
already holds every count needed —

- ``C_0``  : the total count (payload ``c``),
- ``C_X``  : counts grouped by X (payload ``s`` entries),
- ``C_XY`` : counts grouped by (X, Y) (payload ``Q`` entries) —

and the MI is::

    I(X, Y) = sum_{x, y} C_XY(x,y)/C_0 * log( C_0 * C_XY(x,y) / (C_X(x) C_Y(y)) )

The diagonal is the entropy H(X) (the self-information I(X, X)).
Logarithms are natural; scale by 1/ln 2 for bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import FIVMError
from repro.rings.cofactor_sparse import SparseCofactor, SparseCofactorRing
from repro.rings.specs import PayloadPlan

__all__ = ["MIMatrix", "mutual_information_matrix"]


@dataclass
class MIMatrix:
    """Symmetric matrix of pairwise MI values (diagonal: entropies)."""

    attributes: Tuple[str, ...]
    values: np.ndarray

    def mi(self, x: str, y: str) -> float:
        i = self._index(x)
        j = self._index(y)
        return float(self.values[i, j])

    def _index(self, attr: str) -> int:
        try:
            return self.attributes.index(attr)
        except ValueError:
            raise FIVMError(f"attribute {attr!r} not in MI matrix") from None

    def render(self, precision: int = 3) -> str:
        """ASCII heat-map table (the Chow-Liu tab's matrix)."""
        width = max(max(len(a) for a in self.attributes), 8)
        header = " " * width + " | " + " ".join(
            f"{a:>{width}}" for a in self.attributes
        )
        lines = [header, "-" * len(header)]
        for i, attr in enumerate(self.attributes):
            cells = " ".join(
                f"{self.values[i, j]:>{width}.{precision}f}"
                for j in range(len(self.attributes))
            )
            lines.append(f"{attr:>{width}} | {cells}")
        return "\n".join(lines)


def mutual_information_matrix(payload: SparseCofactor, plan: PayloadPlan) -> MIMatrix:
    """Expand the maintained payload into the full pairwise MI matrix.

    Computed from the payload's arrays: every joint count ``C_XY(x, y)``
    finds its two marginals by one sorted lookup among the linear
    entries, and the terms sum per attribute pair with ``bincount``.
    """
    ring = plan.ring
    if not isinstance(ring, SparseCofactorRing):
        raise FIVMError(
            "MI requires the cofactor ring with relational values (use MISpec)"
        )
    for feature in plan.features:
        if not feature.is_categorical:
            raise FIVMError(
                f"MI feature {feature.name!r} must be categorical or binned"
            )
    attributes = plan.layout.attributes
    m = len(attributes)
    values = np.zeros((m, m))
    c0 = float(payload.c)
    if c0 <= 0:
        return MIMatrix(attributes=attributes, values=values)
    tag, code_i, code_j = ring.unpack(payload.codes)
    linear = int(np.searchsorted(tag, m))  # linear entries sort first
    marginal_codes, marginals = payload.codes[:linear], payload.vals[:linear]

    present = marginals > 0
    p = marginals[present] / c0
    values[np.diag_indices(m)] = np.bincount(
        tag[:linear][present], weights=-p * np.log(p), minlength=m
    )

    left, right = ring.tag_left[tag[linear:]], ring.tag_right[tag[linear:]]
    joint = payload.vals[linear:]
    c_x = _lookup(marginal_codes, marginals, ring.pack(left, code_i[linear:]))
    c_y = _lookup(marginal_codes, marginals, ring.pack(right, code_j[linear:]))
    ok = (right >= 0) & (joint > 0) & (c_x > 0) & (c_y > 0)  # off-diagonal cells
    joint, c_x, c_y = joint[ok], c_x[ok], c_y[ok]
    terms = (joint / c0) * np.log(c0 * joint / (c_x * c_y))
    pairs = np.bincount(left[ok] * m + right[ok], weights=terms, minlength=m * m)
    pairs = np.maximum(pairs.reshape(m, m), 0.0)
    values += pairs + pairs.T
    return MIMatrix(attributes=attributes, values=values)


def _lookup(codes: np.ndarray, vals: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """``vals`` at the sorted ``codes`` equal to ``wanted`` (0 where absent)."""
    if not len(codes):
        return np.zeros(len(wanted))
    at = np.minimum(np.searchsorted(codes, wanted), len(codes) - 1)
    return np.where(codes[at] == wanted, vals[at], 0.0)
