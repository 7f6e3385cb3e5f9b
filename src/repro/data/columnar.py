"""Columnar (struct-of-arrays) form of batched Z-deltas.

A dict-of-tuples delta pays a Python object per key and per multiplicity;
a :class:`ColumnarDelta` holds the same batch as key *columns* plus one
contiguous ``int64`` multiplicity array. Two consumers want that layout:

- the columnar maintenance path of
  :class:`~repro.engine.fivm.FIVMEngine`, which runs the bulk ring
  kernels (:mod:`repro.rings.base`) over whole batches instead of tuple
  at a time;
- the sharded process backend, which pickles columns over the worker
  pipes far more compactly than a dict of key tuples.

Rows and columns are two views of the same batch; whichever the delta was
built from is stored and the other is derived lazily, at most once.
:func:`lift_column` is the bridge between the per-attribute lifting
closures of a payload plan and the bulk kernels: closures built by
:func:`~repro.rings.lifting.numeric_cofactor_lift` (and the scalar sum
specs) carry ``bulk_slot``/``bulk_scalar`` metadata describing how to
lift a whole value column in one kernel call.
"""

from __future__ import annotations

import pickle
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DataError
from repro.rings.base import Ring

__all__ = [
    "ColumnarDelta",
    "ColumnarBlocks",
    "column_array",
    "lift_column",
    "bulk_liftable",
]

Key = Tuple


def column_array(values) -> np.ndarray:
    """One key column as a 1-d ndarray safe for gather and key round-trips.

    Numeric and boolean columns come back as typed arrays (so grouping
    can run through ``np.unique``); string columns stay string-typed
    only when every element really is a ``str`` — numpy would otherwise
    silently stringify mixed values. Everything else (mixed types,
    nested tuples, arbitrary objects) falls back to an object array,
    which preserves the original Python objects exactly, so keys built
    back from the column compare and hash like the originals.
    """
    if not isinstance(values, list):
        values = list(values)
    try:
        arr = np.asarray(values)
    except (ValueError, TypeError):
        arr = None
    if arr is not None and arr.ndim == 1:
        kind = arr.dtype.kind
        if kind in "iufb":
            return arr
        if kind in "US" and all(type(v) is str for v in values):
            return arr
    out = np.empty(len(values), dtype=object)
    try:
        out[:] = values
    except ValueError:
        # Sequence-valued elements confuse the bulk assignment.
        for i, value in enumerate(values):
            out[i] = value
    return out


class ColumnarDelta:
    """One per-relation update batch in columnar form.

    Parameters
    ----------
    schema:
        Attribute names of the key columns.
    counts:
        Signed multiplicities, one per row (``int64``).
    columns / rows:
        The key data, as per-attribute columns or as key tuples — at
        least one must be given; the other is derived on first access.
    """

    __slots__ = ("schema", "name", "counts", "_columns", "_rows")

    def __init__(
        self,
        schema: Tuple[str, ...],
        counts,
        columns: Optional[Tuple[List, ...]] = None,
        rows: Optional[List[Key]] = None,
        name: str = "",
    ):
        if columns is None and rows is None:
            raise DataError("ColumnarDelta needs columns or rows")
        self.schema = tuple(schema)
        self.name = name
        self.counts = np.asarray(counts, dtype=np.int64)
        if columns is not None:
            columns = tuple(list(column) for column in columns)
            if len(columns) != len(self.schema):
                raise DataError(
                    f"{len(columns)} columns do not match schema {self.schema!r}"
                )
            width = len(self.counts)
            for column in columns:
                if len(column) != width:
                    raise DataError(
                        f"column length {len(column)} does not match "
                        f"{width} multiplicities"
                    )
        elif len(rows) != len(self.counts):
            raise DataError(
                f"{len(rows)} rows do not match {len(self.counts)} multiplicities"
            )
        self._columns = columns
        self._rows = rows

    # ------------------------------------------------------------------

    @classmethod
    def from_relation(cls, delta) -> "ColumnarDelta":
        """Columnar view of a Z-delta relation (keys stay shared tuples)."""
        data = delta.data
        counts = np.fromiter(data.values(), dtype=np.int64, count=len(data))
        return cls(delta.schema, counts, rows=list(data.keys()), name=delta.name)

    @property
    def rows(self) -> List[Key]:
        """Key tuples, one per row (derived from columns on first use)."""
        rows = self._rows
        if rows is None:
            rows = self._rows = list(zip(*self._columns)) if self._columns else []
        return rows

    @property
    def columns(self) -> Tuple[List, ...]:
        """Per-attribute key columns (derived from rows on first use)."""
        columns = self._columns
        if columns is None:
            if self._rows:
                columns = tuple(list(column) for column in zip(*self._rows))
            else:
                columns = tuple([] for _ in self.schema)
            self._columns = columns
        return columns

    def column(self, position: int) -> List:
        """One key column by schema position."""
        columns = self._columns
        if columns is not None:
            return columns[position]
        return [row[position] for row in self.rows]

    def __len__(self) -> int:
        return len(self.counts)

    def update_count(self) -> int:
        """Total |multiplicity| — the number of single-tuple updates."""
        return int(np.abs(self.counts).sum())

    def transport(self) -> Tuple[Tuple[str, ...], Tuple[List, ...], List[int]]:
        """The picklable wire form ``(schema, columns, counts)``.

        Counts go over the wire as plain ints: small Python ints pickle
        in 2-3 bytes where int64 array elements cost 8, and batch
        multiplicities are almost always small. Measured on retailer
        batch-1000 streams the full wire form is ~20% smaller and ~2x
        faster to pickle than the dict-of-key-tuples form.
        """
        return self.schema, self.columns, self.counts.tolist()

    def to_relation(self):
        """Materialize the dict form (duplicate keys merge, zeros drop).

        The returned relation carries this columnar delta as its cached
        :meth:`~repro.data.relation.Relation.columnar` form, so a worker
        that rebuilt the dict from the wire does not re-derive columns.
        """
        from repro.data.relation import Relation  # cycle guard (cold path)

        relation = Relation(self.schema, name=self.name)
        data = relation.data
        for row, count in zip(self.rows, self.counts.tolist()):
            total = data.get(row, 0) + count
            if total:
                data[row] = total
            else:
                data.pop(row, None)
        if len(data) == len(self.counts):
            # No duplicate keys merged and no zeros dropped: this columnar
            # form matches the dict exactly, so cache it on the relation.
            relation._columnar = self
        return relation

    def to_blocks(self) -> "ColumnarBlocks":
        """This delta as flat byte blocks — the wire-size measure.

        Typed columns (numeric, boolean, fixed-width string) count as
        raw ndarray blocks; anything an ndarray cannot represent exactly
        (mixed types, tuples, arbitrary objects) as one pickled blob per
        column. The counts array is always the first raw block. Nothing
        is sent in this form: ``ColumnarBlocks.nbytes`` is the
        framing-free size of a routed delta, which the benchmark reports
        as wire bytes per update.
        """
        parts: List[Tuple[str, Optional[str], Any]] = []
        counts = np.ascontiguousarray(self.counts)
        parts.append(("raw", counts.dtype.str, counts))
        for position in range(len(self.schema)):
            values = self.column(position)
            arr = column_array(values)
            if arr.dtype.kind in "iufbUS":
                arr = np.ascontiguousarray(arr)
                parts.append(("raw", arr.dtype.str, arr))
            else:
                blob = pickle.dumps(
                    list(values), protocol=pickle.HIGHEST_PROTOCOL
                )
                parts.append(("pkl", None, blob))
        nbytes = sum(
            part[2].nbytes if part[0] == "raw" else len(part[2])
            for part in parts
        )
        return ColumnarBlocks(self.schema, len(self), parts, nbytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or "ColumnarDelta"
        return f"<{label}({', '.join(self.schema)}) |{len(self)}| columnar>"


class ColumnarBlocks:
    """A :class:`ColumnarDelta` laid out as flat byte blocks.

    ``parts`` holds ``(kind, dtype, payload)`` per block — counts first,
    then one block per key column — and ``nbytes`` their total size.
    """

    __slots__ = ("schema", "length", "parts", "nbytes")

    def __init__(self, schema, length, parts, nbytes):
        self.schema = tuple(schema)
        self.length = int(length)
        self.parts = parts
        self.nbytes = int(nbytes)


# ----------------------------------------------------------------------
# Bulk lifting
# ----------------------------------------------------------------------


def bulk_liftable(fn) -> bool:
    """Whether a lifting closure carries bulk (column-wise) metadata."""
    return (
        getattr(fn, "bulk_slot", None) is not None
        or getattr(fn, "bulk_scalar", None) is not None
    )


def lift_column(ring: Ring, fn, values: Sequence[Any]):
    """Lift one attribute column into a payload block.

    ``fn`` is a lifting closure from a payload plan; its bulk metadata
    selects the kernel: ``bulk_slot`` routes through ``ring.lift_many``
    (cofactor rings), ``bulk_scalar`` packs the transformed column as the
    scalar block itself. Returns ``None`` for closures without metadata —
    the caller must fall back to the per-tuple path.
    """
    slot = getattr(fn, "bulk_slot", None)
    if slot is not None:
        transform = getattr(fn, "bulk_transform", None)
        if transform is not None:
            values = [transform(value) for value in values]
        return ring.lift_many(slot, values)
    scalar = getattr(fn, "bulk_scalar", None)
    if scalar is not None:
        return ring.make_block(scalar(value) for value in values)
    return None
