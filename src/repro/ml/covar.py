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
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import FIVMError
from repro.rings.cofactor import (
    GeneralCofactor,
    GeneralCofactorRing,
    NumericCofactor,
    NumericCofactorRing,
)
from repro.rings.lifting import Feature
from repro.rings.relational import RelationRing, RelationValue
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

    def index(self, attribute: str, category: Optional[Any] = None) -> int:
        target = Column(attribute, category)
        for i, column in enumerate(self.columns):
            if column == target:
                return i
        raise FIVMError(f"no COVAR column {target.label!r}")

    def columns_of(self, attribute: str) -> Tuple[int, ...]:
        """Indices of all columns belonging to ``attribute``."""
        out = tuple(
            i for i, column in enumerate(self.columns) if column.attribute == attribute
        )
        if not out:
            raise FIVMError(f"no COVAR columns for attribute {attribute!r}")
        return out

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
    if isinstance(ring, GeneralCofactorRing):
        if isinstance(ring.scalar, RelationRing):
            return _from_relational(payload, plan)
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


def _from_relational(payload: GeneralCofactor, plan: PayloadPlan) -> CovarMatrix:
    layout = plan.layout
    features: Dict[str, Feature] = {f.name: f for f in plan.features}
    count = float(payload.c.annotation(())) if payload.c.data else 0.0

    # Column discovery: continuous features contribute one column;
    # categorical features one column per category present in s_X.
    columns: List[Column] = []
    col_index: Dict[Column, int] = {}
    for slot, attr in enumerate(layout.attributes):
        feature = features[attr]
        if feature.is_categorical:
            s_value: RelationValue = payload.s.get(slot, RelationValue())
            for key in _sorted_categories(s_value.data):
                column = Column(attr, key[0])
                col_index[column] = len(columns)
                columns.append(column)
        else:
            column = Column(attr)
            col_index[column] = len(columns)
            columns.append(column)

    d = len(columns)
    sums = np.zeros(d)
    moments = np.zeros((d, d))

    for slot, attr in enumerate(layout.attributes):
        feature = features[attr]
        s_value = payload.s.get(slot)
        if s_value is None:
            continue
        if feature.is_categorical:
            for key, annotation in s_value.data.items():
                sums[col_index[Column(attr, key[0])]] = annotation
        else:
            sums[col_index[Column(attr)]] = s_value.annotation(())

    def set_moment(i: int, j: int, value: float) -> None:
        moments[i, j] = value
        moments[j, i] = value

    for (slot_i, slot_j), q_value in payload.q.items():
        attr_i = layout.attributes[slot_i]
        attr_j = layout.attributes[slot_j]
        cat_i = features[attr_i].is_categorical
        cat_j = features[attr_j].is_categorical
        if not q_value.data:
            continue
        if slot_i == slot_j:
            if cat_i:
                # Diagonal block of a categorical attribute: counts per
                # category; distinct one-hot columns are orthogonal.
                for key, annotation in q_value.data.items():
                    index = col_index[Column(attr_i, key[0])]
                    set_moment(index, index, annotation)
            else:
                index = col_index[Column(attr_i)]
                set_moment(index, index, q_value.annotation(()))
            continue
        if not cat_i and not cat_j:
            set_moment(
                col_index[Column(attr_i)],
                col_index[Column(attr_j)],
                q_value.annotation(()),
            )
        elif cat_i and cat_j:
            # Relation over both attributes; columns follow the canonical
            # sorted schema of the relation value.
            schema = q_value.schema
            pos_i = schema.index(attr_i)
            pos_j = schema.index(attr_j)
            for key, annotation in q_value.data.items():
                set_moment(
                    col_index[Column(attr_i, key[pos_i])],
                    col_index[Column(attr_j, key[pos_j])],
                    annotation,
                )
        else:
            cat_attr = attr_i if cat_i else attr_j
            cont_attr = attr_j if cat_i else attr_i
            for key, annotation in q_value.data.items():
                set_moment(
                    col_index[Column(cat_attr, key[0])],
                    col_index[Column(cont_attr)],
                    annotation,
                )
    return CovarMatrix(tuple(columns), count, sums, moments)
