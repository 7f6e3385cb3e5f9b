"""Degree-m matrix (cofactor) rings.

The paper maintains the COVAR matrix — the batch of ``SUM(1)``, ``SUM(X)``
and ``SUM(X*Y)`` aggregates over all attributes X, Y of interest — as one
*compound* payload ``(c, s, Q)``: a scalar count, an m-vector of linear
aggregates, and an m x m symmetric matrix of quadratic aggregates. The ring
operations (Section 2) are::

    a +R b = (ca + cb,  sa + sb,  Qa + Qb)
    a *R b = (ca*cb,  cb*sa + ca*sb,  cb*Qa + ca*Qb + sa sb^T + sb sa^T)

This module provides two interchangeable implementations:

- :class:`NumericCofactorRing` — entries are floats, backed by numpy; the
  fast path for all-continuous attributes;
- :class:`GeneralCofactorRing` — entries come from an arbitrary scalar
  :class:`~repro.rings.base.Ring`; instantiated with the
  :class:`~repro.rings.relational.RelationRing` it becomes the paper's
  generalized ring with relational values, which uniformly handles
  categorical attributes (one-hot group-bys) and the mutual-information
  counts. Instantiated with :class:`~repro.rings.scalar.FloatRing` it is a
  slow but independent re-implementation of the numeric ring, which the
  test-suite uses for cross-validation.

Both store only what is needed: a numeric payload keeps the vector and the
full symmetric matrix of just the features in its *support* — the layout
slots that can be non-zero in it, which for a view's payload are the
features lifted in that view's subtree — in contiguous arrays; the general
ring keeps sparse upper-triangle maps because lifted values start with a
single non-zero slot.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.errors import RingError
from repro.rings.base import Ring

__all__ = [
    "CofactorLayout",
    "NumericCofactor",
    "NumericCofactorBlock",
    "NumericCofactorRing",
    "aligned",
    "GeneralCofactor",
    "GeneralCofactorRing",
]


class CofactorLayout:
    """Assignment of attribute names to cofactor vector/matrix indices.

    The rings themselves are positional; the layout is the bridge between
    attribute names used by queries and slot indices used by payloads.
    """

    __slots__ = ("attributes", "_index")

    def __init__(self, attributes: Tuple[str, ...]):
        if len(set(attributes)) != len(attributes):
            raise RingError(f"duplicate attribute in cofactor layout: {attributes!r}")
        self.attributes = tuple(attributes)
        self._index = {attr: i for i, attr in enumerate(self.attributes)}

    @property
    def degree(self) -> int:
        return len(self.attributes)

    def index(self, attr: str) -> int:
        try:
            return self._index[attr]
        except KeyError:
            raise RingError(f"attribute {attr!r} not in cofactor layout") from None

    def __contains__(self, attr: str) -> bool:
        return attr in self._index

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CofactorLayout({', '.join(self.attributes)})"


# ----------------------------------------------------------------------
# Numeric (numpy) implementation
# ----------------------------------------------------------------------

#: Sorted layout indices that a payload's ``s`` and ``Q`` span.
Support = Tuple[int, ...]

_EMPTY_S = np.zeros(0)
_EMPTY_Q = np.zeros((0, 0))


def _slots(support: Support, union: Support):
    """Where ``support``'s indices sit inside the wider ``union``: a slice
    when they are adjacent there (basic indexing, no gather), else an
    index array."""
    at = [union.index(i) for i in support]
    if at and at[-1] - at[0] + 1 == len(at):
        return slice(at[0], at[-1] + 1)
    return np.asarray(at, dtype=np.intp)


def _cells(rows, cols):
    """Index of the ``rows x cols`` sub-matrix of the trailing two axes."""
    if isinstance(rows, np.ndarray) and isinstance(cols, np.ndarray):
        rows = rows[:, None]
    return (Ellipsis, rows, cols)


def _across(c, axes: int):
    """``c`` — a float, or a block's ``c[n]`` — shaped to multiply arrays
    with ``axes`` axes per row."""
    return c.reshape(c.shape + (1,) * axes) if isinstance(c, np.ndarray) else c


def _widen(x, union: Support):
    """Payload or block ``x`` over the wider support ``union`` (zeros in
    the slots it did not have); ``x`` itself when it already spans it."""
    if x.support == union:
        return x
    at = _slots(x.support, union)
    s = np.zeros(x.s.shape[:-1] + (len(union),))
    s[..., at] = x.s
    q = np.zeros(s.shape + (len(union),))
    q[_cells(at, at)] = x.q
    return type(x)(x.c, s, q, union)


def aligned(a, b):
    """Two payloads (or two blocks) over the union of their supports."""
    if a.support == b.support:
        return a, b
    union = tuple(sorted(set(a.support) | set(b.support)))
    return _widen(a, union), _widen(b, union)


class NumericCofactor:
    """Payload of the numeric degree-m ring: ``(c, s, Q)`` over floats.

    ``s`` and ``Q`` hold only the ``k = len(support)`` layout slots in
    ``support`` (sorted layout indices); every other aggregate is zero
    by construction and not stored. A view's payloads therefore span
    exactly the features lifted in its subtree — a bare count below the
    first feature, all ``m`` at the root. Arrays given without a support
    span the first ``len(s)`` slots.
    """

    __slots__ = ("c", "s", "q", "support")

    def __init__(self, c, s: np.ndarray, q: np.ndarray, support: Optional[Support] = None):
        self.c = c
        self.s = s
        self.q = q
        self.support = tuple(range(len(s))) if support is None else support

    def __setstate__(self, state) -> None:
        # Payloads pickled before supports existed carry dense arrays and
        # no ``support`` slot: they span the whole layout.
        slots = state[1]
        self.__init__(slots["c"], slots["s"], slots["q"], slots.get("support"))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s, q = self.s.tolist(), self.q.tolist()
        return f"NumericCofactor(c={self.c}, s={s}, q={q}, support={self.support})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, NumericCofactor):
            return NotImplemented
        a, b = aligned(self, other)
        return a.c == b.c and np.array_equal(a.s, b.s) and np.array_equal(a.q, b.q)


class NumericCofactorBlock:
    """Column block of n numeric cofactor payloads over one ``support``:
    ``c[n], s[n,k], q[n,k,k]``.

    The bulk kernels below operate on these contiguous arrays, so one
    numpy call covers a whole delta batch where the per-element path pays
    an allocation and dispatch per tuple. Row ``i`` viewed through
    :meth:`NumericCofactorRing.block_payloads` aliases the block arrays;
    rows are disjoint, so mutating one scattered payload in place never
    affects another.
    """

    __slots__ = ("c", "s", "q", "support")

    def __init__(self, c: np.ndarray, s: np.ndarray, q: np.ndarray, support: Support):
        self.c = c
        self.s = s
        self.q = q
        self.support = support

    def __len__(self) -> int:
        return len(self.c)


class NumericCofactorRing(Ring):
    """Degree-m matrix ring over floats, numpy-backed.

    ``m`` is the number of attributes in the compound aggregate. A
    payload stores ``1 + k + k*k`` scalars for the ``k <= m`` features in
    its support, and supports propagate through the algebra: ``lift(i)``
    spans ``{i}``, integers span nothing, sums keep their operands'
    support and products span the union. ``add``/``mul``/``neg``/
    ``scale_float`` are written shape-agnostically (``...`` indexing), so
    the same arithmetic serves a payload and a block of n payloads.
    """

    has_bulk_kernels = True
    has_float_scaling = True

    def __init__(self, layout: CofactorLayout):
        self.layout = layout
        self.degree = layout.degree
        self.name = f"Cofactor<{self.degree}>"
        self._supports: Dict[Support, Support] = {}
        #: (support_a, support_b) -> (union, disjoint?, where a's and b's
        #: slots sit in the union, and the four blocks of the union's Q).
        self._plans: Dict[Tuple[Support, Support], tuple] = {}
        self._full = self.support(range(self.degree))
        self._lifted = [self.support((i,)) for i in range(self.degree)]

    def support(self, indices) -> Support:
        """The one shared tuple for a set of layout indices."""
        support = tuple(sorted(indices))
        return self._supports.setdefault(support, support)

    def _plan(self, support_a: Support, support_b: Support) -> tuple:
        plan = self._plans.get((support_a, support_b))
        if plan is None:
            union = self.support(set(support_a) | set(support_b))
            a, b = _slots(support_a, union), _slots(support_b, union)
            plan = self._plans[support_a, support_b] = (
                union, len(support_a) + len(support_b) == len(union), a, b,
                _cells(a, a), _cells(b, b), _cells(a, b), _cells(b, a),
            )
        return plan

    def dense(self, a: NumericCofactor) -> NumericCofactor:
        """``a`` over the whole layout: ``s`` of length m, ``Q`` of m x m."""
        return _widen(a, self._full)

    def project(self, a: NumericCofactor, support: Support) -> NumericCofactor:
        """``a`` over exactly ``support``; :class:`RingError` when it holds
        a non-zero aggregate outside it."""
        if a.support == support:
            return a
        wide = _widen(a, self.support(set(a.support) | set(support)))
        keep = _slots(support, wide.support)
        kept = NumericCofactor(
            wide.c, wide.s[keep].copy(), wide.q[_cells(keep, keep)].copy(), support
        )
        if kept != wide:
            raise RingError(
                f"payload over {a.support} has non-zero aggregates outside {support}"
            )
        return kept

    def zero(self) -> NumericCofactor:
        return self.from_int(0)

    def one(self) -> NumericCofactor:
        return self.from_int(1)

    def from_int(self, n: int) -> NumericCofactor:
        return NumericCofactor(float(n), _EMPTY_S, _EMPTY_Q, ())

    def add(self, a, b):
        if a.support != b.support:
            a, b = aligned(a, b)
        return type(a)(a.c + b.c, a.s + b.s, a.q + b.q, a.support)

    def add_inplace(self, a: NumericCofactor, b: NumericCofactor) -> NumericCofactor:
        if a.support != b.support:
            return self.add(a, b)
        a.c += b.c
        a.s += b.s
        a.q += b.q
        return a

    def copy(self, a: NumericCofactor) -> NumericCofactor:
        return NumericCofactor(a.c, a.s.copy(), a.q.copy(), a.support)

    def mul(self, a, b):
        if not a.support or not b.support:
            if a.support:
                a, b = b, a
            return self.scale_float(b, a.c)
        union, disjoint, ia, ib, aa, bb, ab, ba = self._plan(a.support, b.support)
        ac, bc = _across(a.c, 1), _across(b.c, 1)
        acq, bcq = _across(a.c, 2), _across(b.c, 2)
        if disjoint:
            # The four blocks tile the output exactly, so each is
            # computed at its own size and written once.
            cross = a.s[..., :, None] * b.s[..., None, :]
            s = np.empty(a.s.shape[:-1] + (len(union),))
            s[..., ia] = bc * a.s
            s[..., ib] = ac * b.s
            q = np.empty(s.shape + (len(union),))
            q[aa] = bcq * a.q
            q[bb] = acq * b.q
            q[ab] = cross
            q[ba] = cross.swapaxes(-1, -2)
        else:
            a, b = _widen(a, union), _widen(b, union)
            cross = a.s[..., :, None] * b.s[..., None, :]
            s = bc * a.s + ac * b.s
            q = bcq * a.q + acq * b.q + cross + cross.swapaxes(-1, -2)
        return type(a)(a.c * b.c, s, q, union)

    def neg(self, a):
        return type(a)(-a.c, -a.s, -a.q, a.support)

    def scale_float(self, a, factor):
        """``a`` times ``factor``: a float, or one per row of a block."""
        return type(a)(
            a.c * factor, a.s * _across(factor, 1), a.q * _across(factor, 2), a.support
        )

    scale = scale_float  # an integer factor is the same arithmetic

    def close(self, a: NumericCofactor, b: NumericCofactor, tol: float = 1e-8) -> bool:
        """Tolerant comparison for payloads with accumulated float error."""
        a, b = aligned(a, b)
        return (
            abs(a.c - b.c) <= tol * max(1.0, abs(a.c), abs(b.c))
            and np.allclose(a.s, b.s, rtol=tol, atol=tol)
            and np.allclose(a.q, b.q, rtol=tol, atol=tol)
        )

    def is_zero(self, a: NumericCofactor) -> bool:
        return a.c == 0.0 and not a.s.any() and not a.q.any()

    def lift(self, index: int, x: float) -> NumericCofactor:
        """The attribute function g for a continuous attribute at ``index``:
        ``g(x) = (1, e_index * x, E_(index,index) * x^2)`` over ``{index}``."""
        return NumericCofactor(1.0, np.array([x]), np.array([[x * x]]), self._lifted[index])

    # ------------------------------------------------------------------
    # Bulk kernels (contiguous column blocks; see NumericCofactorBlock)
    # ------------------------------------------------------------------

    add_many = add
    mul_many = mul
    neg_many = neg
    scale_float_many = scale_float

    def make_block(self, payloads) -> NumericCofactorBlock:
        payloads = list(payloads)
        if not payloads:
            return self.zero_block(0)
        supports = [payload.support for payload in payloads]
        support = supports[0]
        if supports.count(support) != len(supports):
            support = self.support(set().union(*supports))
            payloads = [_widen(payload, support) for payload in payloads]
        # One C-level pass per component beats per-row slice assignment
        # roughly 3x; the list comprehensions only collect references.
        c = np.array([payload.c for payload in payloads], dtype=np.float64)
        s = np.array([payload.s for payload in payloads], dtype=np.float64)
        q = np.array([payload.q for payload in payloads], dtype=np.float64)
        return NumericCofactorBlock(c, s, q, support)

    def zero_block(self, n: int) -> NumericCofactorBlock:
        return self.from_int_many(np.zeros(n))

    def block_payloads(self, block: NumericCofactorBlock):
        # tolist()/list() split the block into rows in one C pass each;
        # map() then drives the constructor from C.
        rows = block.c.tolist(), list(block.s), list(block.q)
        return map(NumericCofactor, *rows, repeat(block.support))

    def take(self, block: NumericCofactorBlock, indices) -> NumericCofactorBlock:
        idx = np.asarray(indices, dtype=np.intp)
        return NumericCofactorBlock(block.c[idx], block.s[idx], block.q[idx], block.support)

    def scale_many(self, block: NumericCofactorBlock, counts) -> NumericCofactorBlock:
        return self.scale_float(block, np.asarray(counts, dtype=np.float64))

    def from_int_many(self, counts) -> NumericCofactorBlock:
        c = np.asarray(counts, dtype=np.float64)
        n = len(c)
        return NumericCofactorBlock(c, np.zeros((n, 0)), np.zeros((n, 0, 0)), ())

    def lift_many(self, index: int, values) -> NumericCofactorBlock:
        x = np.array(values, dtype=np.float64)  # fresh: the block owns it
        s, q = x.reshape(-1, 1), (x * x).reshape(-1, 1, 1)
        return NumericCofactorBlock(np.ones(len(x)), s, q, self._lifted[index])

    def is_zero_many(self, block: NumericCofactorBlock) -> np.ndarray:
        zero = block.c == 0.0
        if zero.any():
            # Only a row whose count is zero can be the ring zero.
            rows = np.flatnonzero(zero)
            zero[rows] = (block.s[rows] == 0.0).all(axis=1) & (
                block.q[rows] == 0.0
            ).all(axis=(1, 2))
        return zero

    def sum_segments(
        self, block: NumericCofactorBlock, segment_ids, count: int
    ) -> NumericCofactorBlock:
        k = len(block.support)
        c = np.zeros(count)
        s = np.zeros((count, k))
        q = np.zeros((count, k, k))
        ids = np.asarray(segment_ids, dtype=np.intp)
        if len(ids):
            rows = block.c, block.s, block.q
            if (ids[1:] < ids[:-1]).any():
                # Stable, so each segment sums in row order. Ids that fit
                # 16 bits sort by radix: the same permutation, sooner.
                order = np.argsort(
                    ids.astype(np.uint16) if count <= 1 << 16 else ids, kind="stable"
                )
                ids = ids[order]
                rows = block.c[order], block.s[order], block.q[order]
            starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
            present = ids[starts]
            c[present] = np.add.reduceat(rows[0], starts)
            s[present] = np.add.reduceat(rows[1], starts, axis=0)
            q[present] = np.add.reduceat(rows[2], starts, axis=0)
        return NumericCofactorBlock(c, s, q, block.support)

    # ------------------------------------------------------------------
    # Row kernels: a view's slot store (repro.data.store) keeps all its
    # payloads as the rows of one growing block. ``at`` is an array of
    # distinct row indices (with a block) or one index (with a payload).
    # ------------------------------------------------------------------

    def alloc_block(self, n: int, support: Support = ()) -> NumericCofactorBlock:
        """Block of ``n`` ring zeros over ``support``."""
        k = len(support)
        return NumericCofactorBlock(
            np.zeros(n), np.zeros((n, k)), np.zeros((n, k, k)), self.support(support)
        )

    def _fit(self, x, support: Support):
        if x.support != support:
            if not set(x.support) <= set(support):
                raise RingError(f"payload over {x.support} does not fit rows over {support}")
            x = _widen(x, support)
        return x

    def add_at(self, block: NumericCofactorBlock, at, delta):
        """``block[at] += delta`` in place; returns the summed rows."""
        delta = self._fit(delta, block.support)
        c, s, q = block.c[at] + delta.c, block.s[at] + delta.s, block.q[at] + delta.q
        block.c[at], block.s[at], block.q[at] = c, s, q
        return type(delta)(c, s, q, block.support)

    def add_row(self, block: NumericCofactorBlock, i: int, a: NumericCofactor) -> bool:
        """``block[i] += a`` through row views; whether the row is now zero."""
        if a.support != block.support:
            a = self._fit(a, block.support)
        c = block.c[i] = block.c[i] + a.c
        s, q = block.s[i], block.q[i]
        s += a.s
        q += a.q
        return c == 0.0 and not s.any() and not q.any()

    def set_rows(self, block: NumericCofactorBlock, at, rows) -> None:
        """``block[at] = rows`` (values are copied in)."""
        rows = self._fit(rows, block.support)
        block.c[at], block.s[at], block.q[at] = rows.c, rows.s, rows.q

    def row(self, block: NumericCofactorBlock, i: int) -> NumericCofactor:
        """Row ``i`` as a payload whose ``s``/``Q`` alias the block."""
        return NumericCofactor(block.c.item(i), block.s[i], block.q[i], block.support)

    def nonzero_cells(self, block: NumericCofactorBlock) -> int:
        return int(np.count_nonzero(block.s) + np.count_nonzero(block.q))


# ----------------------------------------------------------------------
# Generalized implementation over an arbitrary scalar ring
# ----------------------------------------------------------------------


class GeneralCofactor:
    """Payload of the generalized degree-m ring.

    ``c`` is a scalar-ring value, ``s`` a sparse map ``index -> value`` and
    ``q`` a sparse upper-triangle map ``(i, j) -> value`` with ``i <= j``
    (the paper's Figure 1 likewise omits the symmetric lower triangle).
    """

    __slots__ = ("c", "s", "q")

    def __init__(self, c: Any, s: Dict[int, Any], q: Dict[Tuple[int, int], Any]):
        self.c = c
        self.s = s
        self.q = q

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GeneralCofactor(c={self.c!r}, s={self.s!r}, q={self.q!r})"


class GeneralCofactorRing(Ring):
    """Degree-m cofactor ring whose entries come from any scalar ring.

    With :class:`~repro.rings.relational.RelationRing` as the scalar ring
    this is the paper's composition "degree-m matrix ring with relational
    values": continuous attributes store ``{() -> x}`` scalars, categorical
    attributes store ``{x -> 1}`` indicator relations, and the interaction
    entries come out as group-by aggregates (e.g. ``SUM(B) GROUP BY C``).
    """

    def __init__(self, scalar: Ring, layout: CofactorLayout):
        self.scalar = scalar
        self.layout = layout
        self.degree = layout.degree
        self.name = f"Cofactor<{self.degree}, {scalar.name}>"

    # -- helpers -------------------------------------------------------

    def _merge(self, into: Dict, source: Dict) -> None:
        """Accumulate ``source`` into ``into`` entry-wise (pure scalar adds)."""
        scalar = self.scalar
        for key, value in source.items():
            existing = into.get(key)
            total = value if existing is None else scalar.add(existing, value)
            if scalar.is_zero(total):
                into.pop(key, None)
            else:
                into[key] = total

    def _scaled(self, entries: Dict, factor: Any) -> Dict:
        """Entry-wise scalar multiplication by ``factor``, dropping zeros."""
        scalar = self.scalar
        if scalar.is_zero(factor):
            return {}
        result = {}
        for key, value in entries.items():
            product = scalar.mul(value, factor)
            if not scalar.is_zero(product):
                result[key] = product
        return result

    # -- ring interface --------------------------------------------------

    def zero(self) -> GeneralCofactor:
        return GeneralCofactor(self.scalar.zero(), {}, {})

    def one(self) -> GeneralCofactor:
        return GeneralCofactor(self.scalar.one(), {}, {})

    def add(self, a: GeneralCofactor, b: GeneralCofactor) -> GeneralCofactor:
        s = dict(a.s)
        self._merge(s, b.s)
        q = dict(a.q)
        self._merge(q, b.q)
        return GeneralCofactor(self.scalar.add(a.c, b.c), s, q)

    def add_inplace(self, a: GeneralCofactor, b: GeneralCofactor) -> GeneralCofactor:
        a.c = self.scalar.add(a.c, b.c)
        self._merge(a.s, b.s)
        self._merge(a.q, b.q)
        return a

    def copy(self, a: GeneralCofactor) -> GeneralCofactor:
        return GeneralCofactor(a.c, dict(a.s), dict(a.q))

    def mul(self, a: GeneralCofactor, b: GeneralCofactor) -> GeneralCofactor:
        scalar = self.scalar
        c = scalar.mul(a.c, b.c)
        s = self._scaled(a.s, b.c)
        self._merge(s, self._scaled(b.s, a.c))
        q = self._scaled(a.q, b.c)
        self._merge(q, self._scaled(b.q, a.c))
        # The symmetric cross term sa sb^T + sb sa^T, folded onto the upper
        # triangle: entry (i, j) with i < j receives sa_i*sb_j and sa_j*sb_i;
        # the diagonal receives 2 * sa_i*sb_i.
        for i, sa_i in a.s.items():
            for j, sb_j in b.s.items():
                term = scalar.mul(sa_i, sb_j)
                if scalar.is_zero(term):
                    continue
                if i == j:
                    term = scalar.add(term, term)
                    key = (i, i)
                else:
                    key = (i, j) if i < j else (j, i)
                existing = q.get(key)
                total = term if existing is None else scalar.add(existing, term)
                if scalar.is_zero(total):
                    q.pop(key, None)
                else:
                    q[key] = total
        return GeneralCofactor(c, s, q)

    def neg(self, a: GeneralCofactor) -> GeneralCofactor:
        scalar = self.scalar
        return GeneralCofactor(
            scalar.neg(a.c),
            {key: scalar.neg(value) for key, value in a.s.items()},
            {key: scalar.neg(value) for key, value in a.q.items()},
        )

    def scale(self, a: GeneralCofactor, n: int) -> GeneralCofactor:
        if n == 0:
            return self.zero()
        scalar = self.scalar
        return GeneralCofactor(
            scalar.scale(a.c, n),
            {key: scalar.scale(value, n) for key, value in a.s.items()},
            {key: scalar.scale(value, n) for key, value in a.q.items()},
        )

    def from_int(self, n: int) -> GeneralCofactor:
        return GeneralCofactor(self.scalar.from_int(n), {}, {})

    @property
    def has_float_scaling(self) -> bool:
        return self.scalar.has_float_scaling

    def scale_float(self, a: GeneralCofactor, factor: float) -> GeneralCofactor:
        # Delegates entry-wise; a scalar ring without float scaling
        # (e.g. the relational ring) raises its own descriptive error.
        scalar = self.scalar
        return GeneralCofactor(
            scalar.scale_float(a.c, factor),
            {key: scalar.scale_float(value, factor) for key, value in a.s.items()},
            {key: scalar.scale_float(value, factor) for key, value in a.q.items()},
        )

    def eq(self, a: GeneralCofactor, b: GeneralCofactor) -> bool:
        scalar = self.scalar
        if not scalar.eq(a.c, b.c):
            return False
        for left, right in ((a.s, b.s), (a.q, b.q)):
            keys = set(left) | set(right)
            for key in keys:
                lval = left.get(key)
                rval = right.get(key)
                if lval is None:
                    if not scalar.is_zero(rval):
                        return False
                elif rval is None:
                    if not scalar.is_zero(lval):
                        return False
                elif not scalar.eq(lval, rval):
                    return False
        return True

    def is_zero(self, a: GeneralCofactor) -> bool:
        if not self.scalar.is_zero(a.c):
            return False
        return all(self.scalar.is_zero(v) for v in a.s.values()) and all(
            self.scalar.is_zero(v) for v in a.q.values()
        )

    def close(self, a: GeneralCofactor, b: GeneralCofactor, tol: float = 1e-8) -> bool:
        """Tolerant comparison via the scalar ring's ``close`` (if any)."""
        scalar = self.scalar
        scalar_close = getattr(scalar, "close", None)
        if scalar_close is None:
            return self.eq(a, b)
        zero = scalar.zero()
        if not scalar_close(a.c, b.c, tol):
            return False
        for left, right in ((a.s, b.s), (a.q, b.q)):
            for key in set(left) | set(right):
                lval = left.get(key, zero)
                rval = right.get(key, zero)
                if not scalar_close(lval, rval, tol):
                    return False
        return True

    def lift(self, index: int, s_value: Any, q_value: Any) -> GeneralCofactor:
        """Attribute function g at slot ``index`` with pre-embedded entries.

        ``s_value``/``q_value`` are scalar-ring values: for a continuous
        attribute ``({() -> x}, {() -> x^2})``; for a categorical one
        ``({x -> 1}, {x -> 1})`` (see :mod:`repro.rings.lifting`).
        """
        return GeneralCofactor(self.scalar.one(), {index: s_value}, {(index, index): q_value})

    # -- accessors -------------------------------------------------------

    def entry(self, a: GeneralCofactor, i: int, j: int) -> Any:
        """Symmetric read of the quadratic entry (i, j)."""
        key = (i, j) if i <= j else (j, i)
        value = a.q.get(key)
        return self.scalar.zero() if value is None else value

    def linear(self, a: GeneralCofactor, i: int) -> Any:
        """Read of the linear entry i."""
        value = a.s.get(i)
        return self.scalar.zero() if value is None else value
