"""Relations as ring values: union as +, natural join as *.

Section 2 of the paper generalizes the cofactor ring to categorical
attributes by "using relations as values in c, s, and Q instead of scalars;
union and join instead of scalar addition and multiplication; the empty
relation 0 as zero". This module holds that value type: the form in which
:meth:`SparseCofactorRing.decode
<repro.rings.cofactor_sparse.SparseCofactorRing.decode>` spells out a
payload's aggregates.

A :class:`RelationValue` is a finite map from tuples (over a fixed schema of
attribute names) to numeric annotations. The ring on these values — union
summing annotations of equal keys, natural join multiplying them, the empty
relation as zero for *every* schema — is
``tests/rings/reference_cofactor.py``'s ``RelationRing``, the reference the
sparse ring is tested against.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.errors import RingError

__all__ = ["RelationValue"]

Key = Tuple


class RelationValue:
    """An annotated relation used as a ring value.

    Parameters
    ----------
    schema:
        Tuple of attribute names; ``None`` only for the canonical empty
        relation (zero), whose schema is undetermined.
    data:
        Mapping from key tuples (matching the schema arity) to numeric
        annotations. Zero annotations are dropped on construction.
    """

    __slots__ = ("schema", "data")

    def __init__(
        self,
        schema: Optional[Tuple[str, ...]] = None,
        data: Optional[Mapping[Key, float]] = None,
    ):
        if data:
            if schema is None:
                raise RingError("non-empty RelationValue requires a schema")
            if len(set(schema)) != len(schema):
                raise RingError(f"duplicate attribute in schema {schema!r}")
            arity = len(schema)
            # Canonical column order (sorted by attribute name) makes union
            # and join results independent of operand order, so the ring is
            # genuinely commutative.
            ordered = tuple(sorted(schema))
            if ordered != tuple(schema):
                permutation = tuple(schema.index(attr) for attr in ordered)
            else:
                permutation = None
            clean: Dict[Key, float] = {}
            for key, annotation in data.items():
                if len(key) != arity:
                    raise RingError(
                        f"key {key!r} does not match schema {schema!r}"
                    )
                if annotation != 0:
                    if permutation is not None:
                        key = tuple(key[i] for i in permutation)
                    clean[key] = annotation
            self.data = clean
            self.schema = ordered if clean else None
        else:
            self.data = {}
            self.schema = None
        if not self.data:
            self.schema = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def scalar(cls, value: float) -> "RelationValue":
        """A 0-ary relation ``{() -> value}`` — the embedding of a scalar."""
        return cls((), {(): value})

    @classmethod
    def indicator(cls, attr: str, value) -> "RelationValue":
        """The one-hot indicator ``{value -> 1}`` over schema ``(attr,)``."""
        return cls((attr,), {(value,): 1})

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.data

    def annotation(self, key: Key = ()) -> float:
        """Annotation of ``key``, 0 when absent."""
        return self.data.get(key, 0)

    def items(self) -> Iterable[Tuple[Key, float]]:
        return self.data.items()

    def as_dict(self) -> Dict[Key, float]:
        """A copy of the underlying key -> annotation map."""
        return dict(self.data)

    def total(self) -> float:
        """Sum of all annotations (the SUM over the whole relation)."""
        return sum(self.data.values())

    def __len__(self) -> int:
        return len(self.data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RelationValue):
            return NotImplemented
        if not self.data and not other.data:
            return True
        return self.schema == other.schema and self.data == other.data

    def __repr__(self) -> str:
        if not self.data:
            return "RelationValue(∅)"
        shown = ", ".join(
            f"{key!r}->{annotation}" for key, annotation in sorted(self.data.items(), key=repr)
        )
        return f"RelationValue({self.schema}: {shown})"
