"""COVAR matrix extraction: from ring payloads to dense moment matrices.

The root view's payload is a compound aggregate ``(c, s, Q)``. This module
converts it into an explicit numeric representation suitable for solvers:
one column per continuous feature and one column per *category* of each
categorical feature (the one-hot expansion the ring kept factorized), plus
the count. The extended moment matrix::

    M = [[ c   s^T ]
         [ s    Q  ]]

is exactly ``sum_rows [1, x]^T [1, x]`` over the training dataset defined
by the join, which is all ridge regression needs (Schleich et al., ref [6]).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import FIVMError
from repro.rings.cofactor import (
    GeneralCofactor,
    GeneralCofactorRing,
    NumericCofactor,
    NumericCofactorRing,
)
from repro.rings.cofactor_sparse import SparseCofactor, SparseCofactorRing
from repro.rings.specs import PayloadPlan

__all__ = ["Column", "CovarMatrix", "covar_from_payload"]


@dataclass(frozen=True)
class Column:
    """One column of the expanded COVAR matrix.

    ``category`` is ``None`` for continuous features and the category value
    for one-hot columns of categorical features.
    """

    attribute: str
    category: Optional[Any] = None

    @property
    def label(self) -> str:
        if self.category is None:
            return self.attribute
        return f"{self.attribute}={self.category}"


def _sorted_categories(values) -> List[Any]:
    try:
        return sorted(values)
    except TypeError:
        return sorted(values, key=repr)


@dataclass
class CovarMatrix:
    """Dense (count, sums, second moments) over expanded columns."""

    columns: Tuple[Column, ...]
    count: float
    sums: np.ndarray
    moments: np.ndarray

    @cached_property
    def _by_attribute(self) -> Dict[str, Tuple[int, ...]]:
        by_attribute: Dict[str, List[int]] = {}
        for i, column in enumerate(self.columns):
            by_attribute.setdefault(column.attribute, []).append(i)
        return {attribute: tuple(indices) for attribute, indices in by_attribute.items()}

    def index(self, attribute: str, category: Optional[Any] = None) -> int:
        target = Column(attribute, category)
        for i, column in enumerate(self.columns):
            if column == target:
                return i
        raise FIVMError(f"no COVAR column {target.label!r}")

    def columns_of(self, attribute: str) -> Tuple[int, ...]:
        """Indices of all columns belonging to ``attribute``."""
        try:
            return self._by_attribute[attribute]
        except KeyError:
            raise FIVMError(f"no COVAR columns for attribute {attribute!r}") from None

    @property
    def dimension(self) -> int:
        return len(self.columns)

    def extended(self) -> np.ndarray:
        """The (1+d) x (1+d) moment matrix including the intercept row."""
        d = self.dimension
        m = np.empty((d + 1, d + 1))
        m[0, 0] = self.count
        m[0, 1:] = self.sums
        m[1:, 0] = self.sums
        m[1:, 1:] = self.moments
        return m

    def render(self, precision: int = 3) -> str:
        """ASCII table of the matrix (the Regression tab's heat map)."""
        labels = [column.label for column in self.columns]
        width = max([len(label) for label in labels] + [10])
        header = " " * width + " | " + " ".join(f"{l:>{width}}" for l in labels)
        lines = [f"count = {self.count:g}", header, "-" * len(header)]
        for i, label in enumerate(labels):
            cells = " ".join(
                f"{self.moments[i, j]:>{width}.{precision}g}"
                for j in range(self.dimension)
            )
            lines.append(f"{label:>{width}} | {cells}")
        return "\n".join(lines)


def covar_from_payload(payload, plan: PayloadPlan) -> CovarMatrix:
    """Expand the root payload of a COVAR query into a dense matrix."""
    ring = plan.ring
    if isinstance(ring, NumericCofactorRing):
        return _from_numeric(payload, plan)
    if isinstance(ring, SparseCofactorRing):
        return _from_sparse(payload, plan)
    if isinstance(ring, GeneralCofactorRing):
        return _from_general_float(payload, plan)
    raise FIVMError(f"payload ring {ring.name!r} does not carry a COVAR matrix")


def _from_numeric(payload: NumericCofactor, plan: PayloadPlan) -> CovarMatrix:
    columns = tuple(Column(attr) for attr in plan.layout.attributes)
    payload = plan.ring.dense(payload)
    return CovarMatrix(
        columns=columns,
        count=float(payload.c),
        sums=payload.s.copy(),
        moments=payload.q.copy(),
    )


def _from_general_float(payload: GeneralCofactor, plan: PayloadPlan) -> CovarMatrix:
    layout = plan.layout
    m = layout.degree
    columns = tuple(Column(attr) for attr in layout.attributes)
    sums = np.zeros(m)
    for i, value in payload.s.items():
        sums[i] = value
    moments = np.zeros((m, m))
    for (i, j), value in payload.q.items():
        moments[i, j] = value
        moments[j, i] = value
    return CovarMatrix(columns, float(payload.c), sums, moments)


def _from_sparse(payload: SparseCofactor, plan: PayloadPlan) -> CovarMatrix:
    """One column per continuous feature and per category present in a
    categorical feature's ``s_X`` (sorted by category value); every
    aggregate cell then lands by two table lookups on its category codes."""
    ring: SparseCofactorRing = plan.ring
    m = ring.degree
    tag, code_i, code_j = ring.unpack(payload.codes)
    linear = int(np.searchsorted(tag, m))  # linear entries sort first

    # Per feature, a table from category code to column; -1: no such column.
    columns: List[Column] = []
    tables: List[np.ndarray] = []
    for slot, feature in enumerate(plan.features):
        if not feature.is_categorical:
            tables.append(np.array([len(columns)]))
            columns.append(Column(feature.name))
            continue
        lo, hi = np.searchsorted(tag[:linear], (slot, slot + 1))
        codes = code_i[lo:hi]
        categories = ring.categories(slot, codes)
        order = {category: k for k, category in enumerate(_sorted_categories(categories))}
        table = np.full(int(codes.max(initial=-1)) + 1, -1)
        table[codes] = [len(columns) + order[category] for category in categories]
        tables.append(table)
        columns.extend(Column(feature.name, category) for category in order)
    offsets = np.cumsum([0] + [len(table) for table in tables])
    column_of = np.concatenate(tables)

    def column(features: np.ndarray, codes: np.ndarray) -> np.ndarray:
        at = offsets[features] + codes
        inside = codes < offsets[features + 1] - offsets[features]
        return np.where(inside, column_of[np.where(inside, at, 0)], -1)

    d = len(columns)
    sums = np.zeros(d)
    sums[column(tag[:linear], code_i[:linear])] = payload.vals[:linear]
    left, right = ring.tag_left[tag[linear:]], ring.tag_right[tag[linear:]]
    rows = column(left, code_i[linear:])
    # Q_ii is keyed by one category: distinct one-hot columns are orthogonal.
    cols = rows.copy()
    off = right >= 0
    cols[off] = column(right[off], code_j[linear:][off])
    # A category whose count fell to zero has no column; what float sums
    # left of its other aggregates is rounding residue, not data.
    listed = (rows >= 0) & (cols >= 0)
    rows, cols, cells = rows[listed], cols[listed], payload.vals[linear:][listed]
    moments = np.zeros((d, d))
    moments[rows, cols] = cells
    moments[cols, rows] = cells
    return CovarMatrix(tuple(columns), float(payload.c), sums, moments)
