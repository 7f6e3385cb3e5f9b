"""The cofactor ring over relations, kept as sparse arrays.

Section 2 of the paper generalizes the COVAR payload ``(c, s, Q)`` to
categorical attributes by letting ``s`` and ``Q`` hold *relations* keyed
by category values. In one-hot space such a relation is a sparse vector
or matrix, and this module stores it that way: one payload is

- ``c`` — the float count ``SUM(1)``;
- ``codes`` — a sorted ``int64`` array, one code per non-zero aggregate
  cell, packing ``(aggregate tag, category code i, category code j)``;
- ``vals`` — the matching non-zero ``float64`` annotations.

Tag ``i < m`` is the linear aggregate ``s_i``; one further tag per pair
``i <= j`` is the quadratic aggregate ``Q_ij``. A categorical feature's
category code comes from its :class:`Vocabulary`, a binned feature's is
its bin index, and a continuous feature's 0-ary key is code 0 — so
mixed continuous/categorical COVAR and the all-categorical MI payload
are the same encoding. ``Q_ii`` of a categorical feature is keyed by
one category (two indicator vectors of one feature join on it: equal
categories meet, different ones vanish); its second code is 0.

Code layout (63 bits): ``tag << 48 | code_i << 24 | code_j`` —
:data:`CATEGORY_LIMIT` categories per feature and :data:`TAG_LIMIT`
aggregates per layout (``m <= 254``); exceeding either raises
:class:`~repro.errors.RingError` naming the feature, never wraps.

The ring has the full bulk-kernel contract of
:class:`~repro.rings.cofactor.NumericCofactorRing`. A delta block is the
payloads in CSR form (:class:`SparseCofactorBlock`); a view's slot store
holds :class:`SparseCofactorRows` — per slot a count and a run of cells
in one ``codes``/``vals`` arena — so a gather or a scatter of any rows is
one numpy call per array. ``mul_many`` leaves its product unsorted, so a
maintenance step sorts cells by ``(row, code)`` once.

**Who may alias what.** Arrays inside payloads and blocks are never
written after they are built, so they share them freely. The arena is
rewritten in place, so ``row`` and ``take`` copy what they read, and no
payload of a store's read API, an index probe or a snapshot aliases it.

**Where codes may not travel.** Vocabularies are per process (shard
workers intern independently), so nothing that leaves a ring carries
codes: a pickled payload or block holds :meth:`SparseCofactorRing.portable`
entries — aggregate tags and category *values* — and re-interns on
load (:meth:`SparseCofactorRing.intern`); :meth:`SparseCofactorRing.decode`
gives the reference ring's relations, which is what checkpoints written
before this representation hold and :meth:`SparseCofactorRing.project`
accepts. Within one process vocabularies are shared by attribute name
and append-only, so payloads of two engine instances compare with
:meth:`SparseCofactorRing.eq`.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Tuple

import numpy as np

from repro.errors import RingError
from repro.rings.base import Ring
from repro.rings.cofactor import CofactorLayout, GeneralCofactor
from repro.rings.lifting import Feature
from repro.rings.relational import RelationValue

__all__ = [
    "CATEGORY_LIMIT",
    "TAG_LIMIT",
    "MAX_DEGREE",
    "Vocabulary",
    "vocabulary",
    "SparseCofactor",
    "SparseCofactorBlock",
    "SparseCofactorRows",
    "SparseCofactorRing",
]

_CATEGORY_BITS = 24
_TAG_SHIFT = 2 * _CATEGORY_BITS
#: Category codes per feature, and aggregate tags per layout, a code holds.
CATEGORY_LIMIT = 1 << _CATEGORY_BITS
TAG_LIMIT = 1 << (63 - _TAG_SHIFT)
#: Largest layout whose ``m + m (m + 1) / 2`` tags fit.
MAX_DEGREE = 254
_MASK = CATEGORY_LIMIT - 1

_NO_CODES = np.empty(0, dtype=np.int64)
_NO_VALS = np.empty(0, dtype=np.float64)


# ----------------------------------------------------------------------
# Category interning
# ----------------------------------------------------------------------


class Vocabulary:
    """Append-only ``category value <-> code`` table of one attribute.

    Values are matched the way every dict in the engine matches keys
    (``1``, ``1.0`` and ``True`` are one category; the first one seen is
    what decodes).
    """

    __slots__ = ("name", "codes", "values")

    #: Values interned by every vocabulary together: rings cache what
    #: depends on vocabulary sizes and recompute it when this moves.
    interned = 0

    def __init__(self, name: str):
        self.name = name
        self.codes: Dict[Any, int] = {}
        self.values: List[Any] = []

    def code(self, value: Any) -> int:
        """The code of ``value``, interning it on first sight."""
        try:
            code = self.codes.get(value)
        except TypeError:
            raise RingError(
                f"feature {self.name!r}: category value {value!r} is unhashable"
            ) from None
        return self._intern(value) if code is None else code

    def _intern(self, value: Any) -> int:
        if value != value:
            raise RingError(f"feature {self.name!r}: NaN is not a category")
        with _INTERN_LOCK:
            code = self.codes.get(value)
            if code is None:
                code = len(self.values)
                if code >= CATEGORY_LIMIT:
                    raise RingError(
                        f"feature {self.name!r} has more than {CATEGORY_LIMIT} "
                        "categories; they do not fit a cofactor code"
                    )
                self.values.append(value)
                self.codes[value] = code
                Vocabulary.interned += 1
        return code

    def encode(self, values) -> np.ndarray:
        """Codes of a whole column (an ndarray or a list of values)."""
        if isinstance(values, np.ndarray):
            values = values.tolist()
        try:
            codes = list(map(self.codes.get, values))
        except TypeError:
            codes = [None]
        if None in codes:  # a new, unhashable or NaN value: the careful path
            codes = list(map(self.code, values))
        return np.array(codes, dtype=np.int64)


_INTERN_LOCK = threading.Lock()
_VOCABULARIES: Dict[str, Vocabulary] = {}


def vocabulary(name: str) -> Vocabulary:
    """The process-wide vocabulary of the attribute called ``name``."""
    found = _VOCABULARIES.get(name)
    if found is None:
        found = _VOCABULARIES.setdefault(name, Vocabulary(name))
    return found


# ----------------------------------------------------------------------
# Payloads and blocks
# ----------------------------------------------------------------------


class SparseCofactor:
    """One payload ``(c, codes, vals)``; see the module docstring."""

    __slots__ = ("c", "codes", "vals", "ring")

    def __init__(self, c: float, codes: np.ndarray, vals: np.ndarray, ring: "SparseCofactorRing"):
        self.c = c
        self.codes = codes
        self.vals = vals
        self.ring = ring

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseCofactor):
            return NotImplemented
        return bool(
            self.c == other.c
            and np.array_equal(self.codes, other.codes)
            and np.array_equal(self.vals, other.vals)
        )

    __hash__ = None

    def __reduce__(self):
        ring = self.ring
        return ring.intern, (self.c, *ring.portable(self.codes), self.vals)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        general = self.ring.decode(self)
        return f"SparseCofactor(c={self.c}, s={general.s!r}, q={general.q!r})"


class SparseCofactorBlock:
    """``n`` payloads in CSR form: row ``r`` owns the entries
    ``indptr[r] : indptr[r + 1]`` of ``codes``/``vals``, sorted by code.

    A product of ``mul_many`` holds its cells unsorted instead: ``rows``
    gives each cell's row and ``indptr`` is None. The ring sorts it in
    place on its first row-wise read (``sum_segments`` sorts anyway).
    """

    __slots__ = ("c", "indptr", "codes", "vals", "ring", "rows")

    def __init__(self, c, indptr, codes, vals, ring: "SparseCofactorRing", rows=None):
        self.c = c
        self.indptr = indptr
        self.codes = codes
        self.vals = vals
        self.ring = ring
        self.rows = rows

    def __len__(self) -> int:
        return len(self.c)

    def __reduce__(self):
        return self.ring.make_block, (list(self.ring.block_payloads(self)),)


class SparseCofactorRows:
    """The rows of one slot store: per slot a count ``c[slot]`` and the
    cells ``start[slot] : start[slot] + length[slot]`` of one
    ``codes``/``vals`` arena. Cells below ``top`` are taken, ``live`` of
    them by rows; ``burst`` is the most cells one write brought, forgotten
    by an eighth per write (see :meth:`SparseCofactorRing.set_rows`)."""

    __slots__ = ("c", "start", "length", "codes", "vals", "top", "live", "burst", "ring")

    def __init__(self, n: int, ring):
        self.c = np.zeros(n)
        self.start, self.length = np.zeros((2, n), dtype=np.intp)
        self.codes, self.vals = _NO_CODES, _NO_VALS
        self.top = self.live = self.burst = 0
        self.ring = ring

    def __len__(self) -> int:
        return len(self.c)

    def __reduce__(self):
        return self.ring._rows_of, (self.ring.take(self, np.arange(len(self))),)


def _cells(block: SparseCofactorBlock):
    """``(row, code, value)`` arrays of a block's cells, sorted or not."""
    rows = block.rows
    if rows is None:
        indptr = block.indptr
        rows = np.arange(len(indptr) - 1, dtype=np.intp).repeat(indptr[1:] - indptr[:-1])
    return rows, block.codes, block.vals


def _indptr(rows: np.ndarray, n: int) -> np.ndarray:
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


def _canonical(codes: np.ndarray, vals: np.ndarray):
    """One payload's entries sorted by code, equal codes summed in the
    order given, exact zeros dropped."""
    if len(codes) > 1:
        order = np.argsort(codes, kind="stable")
        codes, vals = codes[order], vals[order]
        fresh = np.empty(len(codes), dtype=bool)
        fresh[0] = True
        np.not_equal(codes[1:], codes[:-1], out=fresh[1:])
        if not fresh.all():
            vals = np.bincount(np.cumsum(fresh) - 1, weights=vals)
            codes = codes[fresh]
    live = vals != 0.0
    if not live.all():
        codes, vals = codes[live], vals[live]
    return codes, vals


# ----------------------------------------------------------------------
# The ring
# ----------------------------------------------------------------------

_CONTINUOUS, _BINNED, _INTERNED = range(3)


class SparseCofactorRing(Ring):
    """Degree-m cofactor ring with relational values, array-backed.

    Built from the plan's :class:`~repro.rings.lifting.Feature` tuple:
    the features fix the layout, which aggregates are keyed by category
    and how :meth:`lift` turns an attribute value into a category code.
    Algebraically it *is* the cofactor ring over relation values
    (``tests/rings/reference_cofactor.py`` holds it to that reference ring
    operation by operation); :meth:`decode` / :meth:`encode` convert
    between the array form and :class:`GeneralCofactor` over
    :class:`~repro.rings.relational.RelationValue` entries.
    """

    has_bulk_kernels = True

    def __init__(self, features: Iterable[Feature]):
        self.features = tuple(features)
        self.layout = CofactorLayout(tuple(f.name for f in self.features))
        m = self.degree = self.layout.degree
        self.name = f"SparseCofactor<{m}>"
        if m > MAX_DEGREE:
            raise RingError(
                f"feature {self.features[MAX_DEGREE].name!r} does not fit: a "
                f"layout of {m} features needs {m + m * (m + 1) // 2} aggregate "
                f"tags, a cofactor code holds {TAG_LIMIT} ({MAX_DEGREE} features)"
            )
        for feature in self.features:
            if feature.binning is not None and feature.binning.count > CATEGORY_LIMIT:
                raise RingError(
                    f"feature {feature.name!r}: {feature.binning.count} bins do "
                    f"not fit a cofactor code ({CATEGORY_LIMIT} categories)"
                )
        self._kinds = [
            _BINNED if f.binning is not None
            else _INTERNED if f.is_categorical
            else _CONTINUOUS
            for f in self.features
        ]
        self._vocabularies = [
            vocabulary(f.name) if kind == _INTERNED else None
            for f, kind in zip(self.features, self._kinds)
        ]
        #: tag -> the feature its first / second category code belongs to
        #: (``tag_right`` is -1 where there is no second code: ``s_i``, ``Q_ii``).
        left, right = list(range(m)), [-1] * m
        #: (i, j) -> tag of ``Q_ij``, symmetric.
        self.pair_tag = np.zeros((m, m), dtype=np.int64)
        for i in range(m):
            for j in range(i, m):
                self.pair_tag[i, j] = self.pair_tag[j, i] = len(left)
                left.append(i)
                right.append(j if j > i else -1)
        self.tag_left = np.array(left, dtype=np.int64)
        self.tag_right = np.array(right, dtype=np.int64)
        #: Per feature, the codes of ``s_i`` and ``Q_ii`` at category 0.
        self._lift_codes = np.array(
            [[self.pack(i, 0), self.pack(int(self.pair_tag[i, i]), 0)] for i in range(m)],
            dtype=np.int64,
        ).reshape(m, 2)
        #: Category codes of each feature that is not interned: its bins,
        #: or the one 0-ary key of a continuous feature.
        self._plain_sizes = [
            f.binning.count if f.binning is not None else 1 for f in self.features
        ]
        #: Bits the tag, and such a feature's category code, need.
        self._tag_bits = (len(left) - 1).bit_length()
        self._bin_bits = [(size - 1).bit_length() for size in self._plain_sizes]
        #: Per tag: which of an entry's two category codes key the
        #: aggregate's relation (a continuous feature keys nothing), and the
        #: attribute names they belong to.
        self._tag_sides: List[Tuple[int, ...]] = []
        self._tag_schema: List[Tuple[str, ...]] = []
        for i, j in zip(left, right):
            sides = [(i, 0)] if j < 0 else [(i, 0), (j, 1)]
            keyed = [(f, side) for f, side in sides if self._kinds[f] != _CONTINUOUS]
            self._tag_sides.append(tuple(side for _, side in keyed))
            self._tag_schema.append(tuple(self.layout.attributes[f] for f, _ in keyed))
        #: ``Vocabulary.interned`` when the value table and the packing
        #: width were last computed (-1: never).
        self._table_at = self._width_at = -1
        #: Codes below this are linear (``s``) entries: a payload's prefix.
        self._linear_end = m << _TAG_SHIFT

    def __reduce__(self):
        return SparseCofactorRing, (self.features,)

    # -- construction helpers ---------------------------------------------

    def _payload(self, c, codes, vals) -> SparseCofactor:
        return SparseCofactor(c, codes, vals, self)

    def _block(self, c, indptr, codes, vals, rows=None) -> SparseCofactorBlock:
        return SparseCofactorBlock(c, indptr, codes, vals, self, rows)

    @staticmethod
    def unpack(codes: np.ndarray):
        """``(tag, category code i, category code j)`` of packed codes."""
        return codes >> _TAG_SHIFT, (codes >> _CATEGORY_BITS) & _MASK, codes & _MASK

    @staticmethod
    def pack(tag, code_i, code_j=0):
        return (tag << _TAG_SHIFT) | (code_i << _CATEGORY_BITS) | code_j

    def categories(self, index: int, codes: np.ndarray) -> List[Any]:
        """Category values behind feature ``index``'s category codes."""
        offsets, values = self._value_table()
        return values[offsets[index] + codes].tolist()

    def _canonical_rows(self, rows: np.ndarray, codes: np.ndarray, vals: np.ndarray, n: int):
        """:func:`_canonical` per row: entries tagged with their row come
        back as the ``(indptr, codes, vals)`` of an ``n``-row CSR block.

        Sorting by ``(row, code)`` is the cost of every kernel that
        merges entries. The key is ``row << (48 + tag bits) | code`` when
        the row fits above a code — the codes are then read back off the
        sorted key — else the row over the code fields squeezed (they
        are mostly air: a vocabulary rarely needs its 24 bits), else the
        row over the codes' ranks — one stable sort, near-linear over
        the few sorted runs the kernels concatenate.
        """
        shift = _TAG_SHIFT + self._tag_bits
        carried = None  # the codes, when the key does not hold them
        if n.bit_length() + shift <= 63:
            key = (rows << shift) | codes
        else:
            carried = codes
            width = self._packing_width()
            shift = self._tag_bits + 2 * width
            if n.bit_length() + shift <= 63:
                key = (rows << self._tag_bits) | (codes >> _TAG_SHIFT)
                key = (key << width) | ((codes >> _CATEGORY_BITS) & _MASK)
                key = (key << width) | (codes & _MASK)
            else:  # neither fits: rank the codes (one more sort)
                ranks = np.unique(codes, return_inverse=True)[1].reshape(-1)
                shift = int(ranks.max(initial=0)).bit_length()
                key = (rows << shift) | ranks
        if len(key) > 1:
            order = key.argsort(kind="stable")
            key, vals = key[order], vals[order]
            if carried is not None:
                carried = carried[order]
            fresh = np.empty(len(key), dtype=bool)
            fresh[0] = True
            np.not_equal(key[1:], key[:-1], out=fresh[1:])
            if not fresh.all():
                # bincount adds left to right: within one cell, arrival order.
                vals = np.bincount(fresh.cumsum() - 1, weights=vals)
                key = key[fresh]
                if carried is not None:
                    carried = carried[fresh]
        live = vals != 0.0
        if not live.all():
            key, vals = key[live], vals[live]
            if carried is not None:
                carried = carried[live]
        indptr = key.searchsorted(np.arange(n + 1, dtype=np.int64) << shift)
        codes = key & ((1 << shift) - 1) if carried is None else carried
        return indptr, codes, vals

    def _packing_width(self) -> int:
        """Bits the widest category code of this ring's features needs,
        recomputed only when a vocabulary has grown (the sort order of
        :meth:`_canonical_rows` does not depend on it)."""
        interned = Vocabulary.interned
        if self._width_at != interned:
            self._width = max(
                (len(v.values) - 1).bit_length() if v is not None else b
                for v, b in zip(self._vocabularies, self._bin_bits)
            )
            self._width_at = interned
        return self._width

    # -- ring interface -----------------------------------------------------

    def zero(self) -> SparseCofactor:
        return self._payload(0.0, _NO_CODES, _NO_VALS)

    def one(self) -> SparseCofactor:
        return self._payload(1.0, _NO_CODES, _NO_VALS)

    def from_int(self, n: int) -> SparseCofactor:
        return self._payload(float(n), _NO_CODES, _NO_VALS)

    def add(self, a: SparseCofactor, b: SparseCofactor) -> SparseCofactor:
        if not len(b.codes):
            return self._payload(a.c + b.c, a.codes, a.vals)
        if not len(a.codes):
            return self._payload(a.c + b.c, b.codes, b.vals)
        codes, vals = _canonical(
            np.concatenate((a.codes, b.codes)), np.concatenate((a.vals, b.vals))
        )
        return self._payload(a.c + b.c, codes, vals)

    def mul(self, a: SparseCofactor, b: SparseCofactor) -> SparseCofactor:
        if not len(a.codes):
            return self.scale(b, a.c)
        if not len(b.codes):
            return self.scale(a, b.c)
        codes, vals = [a.codes, b.codes], [a.vals * b.c, b.vals * a.c]
        na = int(np.searchsorted(a.codes, self._linear_end))
        nb = int(np.searchsorted(b.codes, self._linear_end))
        if na and nb:
            ia = np.repeat(np.arange(na), nb)
            ib = np.tile(np.arange(nb), na)
            cross_codes, cross_vals, _ = self._cross(
                a.codes[ia], a.vals[ia], b.codes[ib], b.vals[ib]
            )
            codes.append(cross_codes)
            vals.append(cross_vals)
        codes, vals = _canonical(np.concatenate(codes), np.concatenate(vals))
        return self._payload(a.c * b.c, codes, vals)

    def _cross(self, codes_a, vals_a, codes_b, vals_b):
        """Entries of ``sa sb^T + sb sa^T`` folded onto the upper triangle,
        for aligned arrays of linear entries: ``(codes, vals, kept)``.

        Entry pairs of two different features land in ``Q_ij`` keyed by
        both categories; pairs of one feature join on the category —
        equal ones meet (twice: the diagonal of the symmetric sum),
        different ones vanish (``kept`` marks the survivors).
        """
        feature_a, feature_b = codes_a >> _TAG_SHIFT, codes_b >> _TAG_SHIFT
        code_a = (codes_a >> _CATEGORY_BITS) & _MASK
        code_b = (codes_b >> _CATEGORY_BITS) & _MASK
        swap = feature_a > feature_b
        code_i = np.where(swap, code_b, code_a)
        code_j = np.where(swap, code_a, code_b)
        vals = vals_a * vals_b
        kept = None
        same = feature_a == feature_b
        if same.any():
            vals = np.where(same, vals + vals, vals)
            code_j = np.where(same, 0, code_j)
            kept = ~same | (code_a == code_b)
        codes = self.pack(self.pair_tag[feature_a, feature_b], code_i, code_j)
        if kept is not None and not kept.all():
            return codes[kept], vals[kept], kept
        return codes, vals, None

    def neg(self, a: SparseCofactor) -> SparseCofactor:
        return self._payload(-a.c, a.codes, -a.vals)

    def scale(self, a: SparseCofactor, n) -> SparseCofactor:
        if n == 1:
            return a
        if n == 0 or not len(a.codes):
            return self._payload(a.c * n, _NO_CODES, _NO_VALS)
        vals = a.vals * float(n)
        live = vals != 0.0
        if not live.all():  # underflow
            return self._payload(a.c * n, a.codes[live], vals[live])
        return self._payload(a.c * n, a.codes, vals)

    def eq(self, a: SparseCofactor, b: SparseCofactor) -> bool:
        return a == b

    def is_zero(self, a: SparseCofactor) -> bool:
        return a.c == 0.0 and not len(a.codes)

    def close(self, a: SparseCofactor, b: SparseCofactor, tol: float = 1e-8) -> bool:
        """Tolerant comparison for payloads with accumulated float error."""
        codes = np.union1d(a.codes, b.codes)
        wide = np.zeros((2, len(codes)))
        wide[0, np.searchsorted(codes, a.codes)] = a.vals
        wide[1, np.searchsorted(codes, b.codes)] = b.vals
        scale = np.maximum(1.0, np.abs(wide).max(axis=0, initial=0.0))
        return bool(
            abs(a.c - b.c) <= tol * max(1.0, abs(a.c), abs(b.c))
            and (np.abs(wide[0] - wide[1]) <= tol * scale).all()
        )

    def lift(self, index: int, value: Any) -> SparseCofactor:
        """The attribute function g of feature ``index``: ``(1, x, x^2)`` for
        a continuous value, the indicator ``(1, {v -> 1}, {v -> 1})`` for a
        category (a binned value's category is its bin)."""
        kind = self._kinds[index]
        if kind == _CONTINUOUS:
            x = float(value)
            codes, vals = self._lift_codes[index], np.array([x, x * x])
            live = vals != 0.0
            if not live.all():
                codes, vals = codes[live], vals[live]
            return self._payload(1.0, codes, vals)
        if kind == _BINNED:
            category = self.features[index].binning.bin(float(value))
        else:
            category = self._vocabularies[index].code(value)
        codes = self._lift_codes[index] + (category << _CATEGORY_BITS)
        return self._payload(1.0, codes, np.ones(2))

    def project(self, a, support: Tuple[int, ...]) -> SparseCofactor:
        """``a`` as a payload of this ring spanning at most ``support``.

        Accepts the reference form (:class:`GeneralCofactor` over
        relations — what snapshots written before this representation
        hold); :class:`RingError` when an aggregate of a feature outside
        ``support`` is non-zero.
        """
        if isinstance(a, GeneralCofactor):
            a = self.encode(a)
        tags = np.unique(a.codes >> _TAG_SHIFT)
        used = set(self.tag_left[tags].tolist()) | set(self.tag_right[tags].tolist())
        outside = used - set(support) - {-1}
        if outside:
            raise RingError(
                f"payload has non-zero aggregates of features {sorted(outside)} "
                f"outside {tuple(support)}"
            )
        return a

    # -- the reference form -------------------------------------------------

    def portable(self, codes: np.ndarray):
        """Codes without the per-process part: ``(tags, first, second)``,
        the two category codes replaced by category *values* (a bin's
        value is its index, a continuous key's is 0)."""
        tag, code_i, code_j = self.unpack(codes)
        offsets, values = self._value_table()
        return (
            tag.astype(np.int16),
            values[offsets[self.tag_left[tag]] + code_i].tolist(),
            values[offsets[self.tag_right[tag]] + code_j].tolist(),
        )

    def _value_table(self):
        """Every feature's ``code -> category value`` table back to back
        (feature -1, a linear entry's absent second key, comes last),
        rebuilt when a vocabulary has grown."""
        interned = Vocabulary.interned
        if self._table_at != interned:
            tables = [
                v.values if v is not None else range(size)
                for v, size in zip(self._vocabularies, self._plain_sizes)
            ] + [range(1)]
            offsets = np.cumsum([0] + [len(table) for table in tables])
            values = np.empty(offsets[-1], dtype=object)
            for lo, table in zip(offsets.tolist(), tables):
                values[lo : lo + len(table)] = list(table)
            self._table = (offsets[:-1], values)
            self._table_at = interned
        return self._table

    def intern(self, c: float, tags, first, second, vals) -> SparseCofactor:
        """The payload with :meth:`portable` entries ``(tags, first,
        second)``: category values are interned in *this* process."""
        tag = np.asarray(tags, dtype=np.int64)
        if len(tag) and not 0 <= tag.min() <= tag.max() < len(self.tag_left):
            raise RingError(f"aggregate tag outside {self.name}'s layout")
        codes = self.pack(
            tag,
            self._codes_of(self.tag_left[tag], first),
            self._codes_of(self.tag_right[tag], second),
        )
        codes, vals = _canonical(codes, np.asarray(vals, dtype=np.float64))
        return self._payload(float(c), codes, vals)

    def _codes_of(self, features: np.ndarray, categories: List[Any]) -> np.ndarray:
        """Category codes of ``categories[k]`` under feature ``features[k]``."""
        codes = np.zeros(len(categories), dtype=np.int64)
        for f in np.unique(features).tolist():
            at = np.flatnonzero(features == f)
            mine = [categories[k] for k in at.tolist()]
            if f >= 0 and self._vocabularies[f] is not None:
                codes[at] = self._vocabularies[f].encode(mine)
                continue
            # A bin index or the 0-ary key is its own code (f < 0: a linear
            # entry's absent second key, always 0).
            limit = self._plain_sizes[f] if f >= 0 else 1
            if not all(isinstance(x, (int, np.integer)) and 0 <= x < limit for x in mine):
                raise RingError(
                    f"{self.name}: category outside 0..{limit - 1} for feature {f}"
                )
            codes[at] = mine
        return codes

    def decode(self, a: SparseCofactor) -> GeneralCofactor:
        """``a`` spelt out as a :class:`GeneralCofactor` of
        :class:`RelationValue` entries: relations keyed by category
        values, free of codes."""
        relations: Dict[int, Dict[Tuple, float]] = {}
        for tag, *pair, value in zip(*self.portable(a.codes), a.vals.tolist()):
            key = tuple(pair[side] for side in self._tag_sides[tag])
            relations.setdefault(int(tag), {})[key] = value
        general = GeneralCofactor(
            RelationValue.scalar(a.c) if a.c else RelationValue(), {}, {}
        )
        for tag, data in relations.items():
            # RelationValue puts schema and keys into its sorted-name order.
            relation = RelationValue(self._tag_schema[tag], data)
            i, j = int(self.tag_left[tag]), int(self.tag_right[tag])
            if tag < self.degree:
                general.s[i] = relation
            else:
                general.q[i, max(i, j)] = relation
        return general

    def encode(self, general: GeneralCofactor) -> SparseCofactor:
        """Inverse of :meth:`decode`."""
        tags: List[int] = []
        pairs: List[List[Any]] = []
        vals: List[float] = []
        entries = [(i, value) for i, value in general.s.items()]
        entries += [(int(self.pair_tag[ij]), value) for ij, value in general.q.items()]
        for tag, relation in entries:
            if not relation.data:
                continue
            schema, sides = self._tag_schema[tag], self._tag_sides[tag]
            if tuple(sorted(schema)) != relation.schema:
                raise RingError(
                    f"aggregate over {relation.schema!r} where the layout has {schema!r}"
                )
            at = [relation.schema.index(name) for name in schema]
            for key, annotation in relation.data.items():
                pair = [0, 0]
                for side, position in zip(sides, at):
                    pair[side] = key[position]
                tags.append(tag)
                pairs.append(pair)
                vals.append(annotation)
        first, second = ([pair[side] for pair in pairs] for side in (0, 1))
        return self.intern(general.c.annotation(()), tags, first, second, vals)

    def linear(self, a: SparseCofactor, i: int) -> RelationValue:
        """The linear aggregate ``s_i`` as a relation over its categories."""
        return self.decode(a).s.get(i, RelationValue())

    def entry(self, a: SparseCofactor, i: int, j: int) -> RelationValue:
        """Symmetric read of the quadratic aggregate ``Q_ij`` as a relation."""
        return self.decode(a).q.get((min(i, j), max(i, j)), RelationValue())

    # -- bulk kernels (CSR blocks) -----------------------------------------

    def make_block(self, payloads) -> SparseCofactorBlock:
        payloads = list(payloads)
        n = len(payloads)
        c = np.fromiter((p.c for p in payloads), dtype=np.float64, count=n)
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.fromiter((len(p.codes) for p in payloads), np.intp, n), out=indptr[1:])
        if not indptr[-1]:
            return self._block(c, indptr, _NO_CODES, _NO_VALS)
        return self._block(
            c,
            indptr,
            np.concatenate([p.codes for p in payloads]),
            np.concatenate([p.vals for p in payloads]),
        )

    def zero_block(self, n: int) -> SparseCofactorBlock:
        return self.from_int_many(np.zeros(n))

    def from_int_many(self, counts) -> SparseCofactorBlock:
        c = np.array(counts, dtype=np.float64)
        return self._block(c, np.zeros(len(c) + 1, dtype=np.intp), _NO_CODES, _NO_VALS)

    def block_payloads(self, block):
        if isinstance(block, SparseCofactorRows):
            block = self.take(block, np.arange(len(block)))
        cuts = self._settle(block).indptr[1:-1]
        codes, vals = np.split(block.codes, cuts), np.split(block.vals, cuts)
        return map(self._payload, block.c.tolist(), codes, vals)

    def _settle(self, block: SparseCofactorBlock) -> SparseCofactorBlock:
        """``block`` with its cells sorted into CSR form, in place."""
        if block.rows is not None:
            block.indptr, block.codes, block.vals = self._canonical_rows(
                block.rows, block.codes, block.vals, len(block.c)
            )
            block.rows = None
        return block

    def take(self, block, indices) -> SparseCofactorBlock:
        idx = np.asarray(indices, dtype=np.intp)
        if isinstance(block, SparseCofactorRows):
            starts, lengths = block.start[idx], block.length[idx]
        else:
            indptr = self._settle(block).indptr
            starts = indptr[idx]
            lengths = indptr[idx + 1] - starts
        indptr = np.zeros(len(idx) + 1, dtype=np.intp)
        lengths.cumsum(out=indptr[1:])
        total = indptr[-1]
        if not total:
            return self._block(block.c[idx], indptr, _NO_CODES, _NO_VALS)
        at = (starts - indptr[:-1]).repeat(lengths) + np.arange(total)
        return self._block(block.c[idx], indptr, block.codes[at], block.vals[at])

    def add_many(self, a: SparseCofactorBlock, b: SparseCofactorBlock) -> SparseCofactorBlock:
        rows_a, codes_a, vals_a = _cells(a)
        rows_b, codes_b, vals_b = _cells(b)
        indptr, codes, vals = self._canonical_rows(
            np.concatenate((rows_a, rows_b)),
            np.concatenate((codes_a, codes_b)),
            np.concatenate((vals_a, vals_b)),
            len(a.c),
        )
        return self._block(a.c + b.c, indptr, codes, vals)

    def mul_many(self, a: SparseCofactorBlock, b: SparseCofactorBlock) -> SparseCofactorBlock:
        """The products, as unsorted cells (see :class:`SparseCofactorBlock`)."""
        if not len(b.codes):
            return self.scale_many(a, b.c)
        if not len(a.codes):
            return self.scale_many(b, a.c)
        n = len(a.c)
        rows_a, codes_a, vals_a = _cells(a)
        rows_b, codes_b, vals_b = _cells(b)
        rows = [rows_a, rows_b]
        codes = [codes_a, codes_b]
        vals = [vals_a * b.c[rows_a], vals_b * a.c[rows_b]]
        # Pair up the linear entries of each row.
        linear_a, count_a = self._linear_cells(a, rows_a, n)
        linear_b, count_b = self._linear_cells(b, rows_b, n)
        pairs = count_a * count_b
        total = int(pairs.sum())
        if total:
            row = np.arange(n, dtype=np.intp).repeat(pairs)
            position = np.arange(total) - (pairs.cumsum() - pairs).repeat(pairs)
            width = count_b[row]
            ia = linear_a[(count_a.cumsum() - count_a)[row] + position // width]
            ib = linear_b[(count_b.cumsum() - count_b)[row] + position % width]
            cross_codes, cross_vals, kept = self._cross(
                codes_a[ia], vals_a[ia], codes_b[ib], vals_b[ib]
            )
            rows.append(row if kept is None else row[kept])
            codes.append(cross_codes)
            vals.append(cross_vals)
        rows, codes, vals = map(np.concatenate, (rows, codes, vals))
        return self._block(a.c * b.c, None, codes, vals, rows)

    def _linear_cells(self, block: SparseCofactorBlock, rows: np.ndarray, n: int):
        """Positions of ``block``'s linear cells grouped by row (a sorted
        row's prefix already), and each row's count."""
        at = (block.codes < self._linear_end).nonzero()[0]
        owner = rows[at]
        if block.rows is not None:
            order = owner.argsort(kind="stable")
            at, owner = at[order], owner[order]
        return at, np.bincount(owner, minlength=n)

    def neg_many(self, a: SparseCofactorBlock) -> SparseCofactorBlock:
        return self._block(-a.c, a.indptr, a.codes, -a.vals, a.rows)

    def scale_many(self, block: SparseCofactorBlock, counts) -> SparseCofactorBlock:
        factors = np.asarray(counts, dtype=np.float64)
        rows, codes, vals = _cells(block)
        vals = vals * factors[rows]
        if block.rows is not None:  # unsorted: zeros drop when it is sorted
            return self._block(block.c * factors, None, codes, vals, rows)
        live = vals != 0.0
        if live.all():
            return self._block(block.c * factors, block.indptr, codes, vals)
        return self._block(
            block.c * factors, _indptr(rows[live], len(factors)), codes[live], vals[live]
        )

    def lift_many(self, index: int, values) -> SparseCofactorBlock:
        kind = self._kinds[index]
        if kind == _CONTINUOUS:
            x = np.asarray(values, dtype=np.float64)
            category = np.zeros(len(x), dtype=np.int64)
            vals = np.repeat(x, 2)
            vals[1::2] *= x
        else:
            if kind == _BINNED:
                category = self.features[index].binning.bin_many(values)
            else:
                category = self._vocabularies[index].encode(values)
            vals = np.ones(2 * len(category))
        n = len(category)
        codes = np.repeat(category << _CATEGORY_BITS, 2)
        codes[0::2] += self._lift_codes[index, 0]
        codes[1::2] += self._lift_codes[index, 1]
        live = vals != 0.0
        if live.all():
            indptr = np.arange(0, 2 * n + 1, 2, dtype=np.intp)
        else:
            indptr = _indptr(np.repeat(np.arange(n, dtype=np.intp), 2)[live], n)
            codes, vals = codes[live], vals[live]
        return self._block(np.ones(n), indptr, codes, vals)

    def is_zero_many(self, block: SparseCofactorBlock) -> np.ndarray:
        indptr = self._settle(block).indptr
        return (block.c == 0.0) & (indptr[1:] == indptr[:-1])

    def sum_segments(self, block: SparseCofactorBlock, segment_ids, count: int) -> SparseCofactorBlock:
        ids = np.asarray(segment_ids, dtype=np.intp)
        rows, codes, vals = _cells(block)
        indptr, codes, vals = self._canonical_rows(ids[rows], codes, vals, count)
        c = np.bincount(ids, weights=block.c, minlength=count)
        return self._block(c, indptr, codes, vals)

    # -- row kernels (slot-store rows; see SparseCofactorRows) --------------

    def alloc_block(self, n: int, support=()) -> SparseCofactorRows:
        """``n`` ring zeros as store rows (rows are ragged: no support)."""
        return SparseCofactorRows(n, self)

    def _rows_of(self, block: SparseCofactorBlock) -> SparseCofactorRows:
        rows = self.alloc_block(len(block))
        self.set_rows(rows, np.arange(len(block)), block)
        return rows

    def add_at(self, rows: SparseCofactorRows, at, delta: SparseCofactorBlock):
        """``rows[at] += delta``; returns the summed rows as a block."""
        summed = self.add_many(self.take(rows, at), delta)
        self.set_rows(rows, at, summed)
        return summed

    def add_row(self, rows: SparseCofactorRows, i: int, a: SparseCofactor) -> bool:
        """``rows[i] += a``; whether the row is now the ring zero."""
        total = self.add(self.row(rows, i), a)
        self.set_rows(rows, [i], total)
        return self.is_zero(total)

    def set_rows(self, rows: SparseCofactorRows, at, values) -> None:
        """``rows[at] = values`` (distinct slots; a block, or one payload).

        A row that fits its cells is written over them, a longer one at
        the arena's ``top`` (where the row ending there just resizes).
        When ``top`` would pass the end, or the arena exceeds the live
        cells plus a quarter plus ``burst``, the other rows are packed
        into a fresh arena of the live cells plus a quarter.
        """
        at = np.asarray(at, dtype=np.intp)
        if isinstance(values, SparseCofactor):
            values = self.make_block([values] * len(at))
        indptr = self._settle(values).indptr
        lengths = indptr[1:] - indptr[:-1]
        total = int(indptr[-1])
        old = rows.length[at]
        live = rows.live + total - int(old.sum())
        start = rows.start[at]
        top = rows.top
        last = (start + old == top) & (old > 0)
        top += int((lengths - old)[last].sum())
        moved = (lengths > old) & ~last
        if moved.any():
            start[moved] = top + lengths[moved].cumsum() - lengths[moved]
            top += int(lengths[moved].sum())
        size = len(rows.codes)
        burst = max(rows.burst - (rows.burst >> 3), total)
        if top > size or size > live + live // 4 + burst:
            self._pack(rows, at, live)
            start = rows.top + indptr[:-1]
            top = rows.top + total
            rows.codes[rows.top : top] = values.codes
            rows.vals[rows.top : top] = values.vals
            burst = total
        elif total:
            cell = (start - indptr[:-1]).repeat(lengths) + np.arange(total)
            rows.codes[cell] = values.codes
            rows.vals[cell] = values.vals
        rows.c[at] = values.c
        rows.start[at] = start
        rows.length[at] = lengths
        rows.top, rows.live, rows.burst = top, live, burst

    @staticmethod
    def _pack(rows: SparseCofactorRows, at: np.ndarray, live: int) -> None:
        """Gather the rows not at ``at`` into fresh arenas of ``live`` cells
        plus a quarter, one at a time (the old one goes before the next)."""
        length = rows.length.copy()
        length[at] = 0
        keep = np.flatnonzero(length)
        lengths = length[keep]
        start = lengths.cumsum() - lengths
        rows.top = top = int(lengths.sum())
        cell = (rows.start[keep] - start).repeat(lengths)
        cell += np.arange(top)
        codes = np.empty(live + live // 4, dtype=np.int64)
        rows.codes.take(cell, out=codes[:top], mode="clip")
        rows.codes = codes
        vals = np.empty(live + live // 4, dtype=np.float64)
        rows.vals.take(cell, out=vals[:top], mode="clip")
        rows.vals = vals
        rows.start[keep] = start

    def row(self, rows: SparseCofactorRows, i: int) -> SparseCofactor:
        """Row ``i`` as a payload of its own (a copy: rows are rewritten
        in place)."""
        lo = rows.start.item(i)
        hi = lo + rows.length.item(i)
        return self._payload(rows.c.item(i), rows.codes[lo:hi].copy(), rows.vals[lo:hi].copy())

    def nonzero_cells(self, block) -> int:
        if isinstance(block, SparseCofactorRows):
            return block.live
        return len(self._settle(block).vals)
