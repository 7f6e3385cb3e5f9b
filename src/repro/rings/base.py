"""Commutative ring abstraction used for view payloads.

F-IVM parameterizes the whole maintenance machinery by a commutative ring
``(R, +, *, 0, 1)``: view payloads are ring values, joins multiply payloads,
marginalization adds them, and deletes are handled through additive inverses
(Section 2 of the paper). A :class:`Ring` object bundles the operations and
treats the payload values themselves as opaque — plain ``int`` for the Z
ring, ``float`` for the numeric ring, richer objects for the cofactor rings.

Keeping operations on a ring *object* (rather than requiring payloads to be
instances of some value class) lets the hot loops of the engine work on
unboxed Python ints in the common counting case.

Semirings without additive inverses (:class:`~repro.rings.boolean.BoolRing`,
:class:`~repro.rings.minplus.MinPlusRing`) implement the same interface but
raise :class:`~repro.errors.RingError` from :meth:`Ring.neg`; they support
insert-only maintenance.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterable, Sequence

import numpy as np

from repro.errors import RingError

__all__ = ["Ring", "check_ring_axioms"]


class Ring(ABC):
    """Interface of a commutative ring over opaque payload values.

    Subclasses must implement :meth:`zero`, :meth:`one`, :meth:`add`,
    :meth:`mul` and :meth:`neg`. The remaining operations have generic
    default implementations that subclasses may override for speed.

    Values returned by :meth:`zero` and :meth:`one` must be safe to share:
    either immutable, or fresh objects on every call.
    """

    #: Human-readable name used in reprs, plans and M3 output.
    name: str = "ring"

    #: Whether :meth:`neg` is supported (False for the bool/min-plus semirings).
    has_negation: bool = True

    #: True when the ``*_many`` bulk kernels below operate on contiguous
    #: array blocks instead of the generic per-element loop fallback. The
    #: columnar maintenance path only engages for such rings; every other
    #: ring keeps working through the loop fallbacks (used by the tests
    #: and by callers that want one code path regardless of ring).
    has_bulk_kernels: bool = False

    #: True when payloads are plain Python numbers whose ``+``/``*`` agree
    #: with :meth:`add`/:meth:`mul` and whose truthiness agrees with
    #: :meth:`is_zero` (``bool(x) == (not is_zero(x))``). The relation
    #: operations use this to run tight accumulator loops that skip ring
    #: dispatch entirely (see :mod:`repro.data.relation`).
    is_scalar: bool = False

    #: True when :meth:`scale_float` is implemented — payloads form a
    #: module over the reals, not just over Z. Exponential decay
    #: (:class:`~repro.rings.decay.DecayRing`) requires this.
    has_float_scaling: bool = False

    @abstractmethod
    def zero(self) -> Any:
        """Return the additive identity."""

    @abstractmethod
    def one(self) -> Any:
        """Return the multiplicative identity."""

    @abstractmethod
    def add(self, a: Any, b: Any) -> Any:
        """Return ``a + b``. Must not mutate either argument."""

    @abstractmethod
    def mul(self, a: Any, b: Any) -> Any:
        """Return ``a * b``. Must not mutate either argument."""

    @abstractmethod
    def neg(self, a: Any) -> Any:
        """Return the additive inverse ``-a``.

        Semirings raise :class:`~repro.errors.RingError`.
        """

    # ------------------------------------------------------------------
    # Derived operations (override for performance where it matters).
    # ------------------------------------------------------------------

    def sub(self, a: Any, b: Any) -> Any:
        """Return ``a - b``."""
        return self.add(a, self.neg(b))

    def add_inplace(self, a: Any, b: Any) -> Any:
        """Accumulate ``b`` into ``a`` and return the result.

        May mutate ``a`` (the caller must own it); the default delegates to
        the pure :meth:`add`. Engines use this in marginalization loops.
        """
        return self.add(a, b)

    def eq(self, a: Any, b: Any) -> bool:
        """Return whether two payloads are equal as ring values."""
        return a == b

    def is_zero(self, a: Any) -> bool:
        """Return whether ``a`` equals the additive identity.

        Engines prune zero payloads from views so that deletes physically
        remove tuples.
        """
        return self.eq(a, self.zero())

    def from_int(self, n: int) -> Any:
        """Image of the integer ``n`` under the canonical map ``Z -> R``.

        Used to turn tuple multiplicities into ring values. The default
        computes ``n * 1`` through :meth:`scale`.
        """
        return self.scale(self.one(), n)

    def scale(self, a: Any, n: int) -> Any:
        """Return ``a`` added to itself ``n`` times (``n`` may be negative).

        This is the action of ``Z`` on the ring; base-relation multiplicities
        enter payload space through it. The default uses binary doubling.
        """
        if n == 0:
            return self.zero()
        if n < 0:
            return self.neg(self.scale(a, -n))
        result = self.zero()
        addend = a
        while n:
            if n & 1:
                result = self.add(result, addend)
            n >>= 1
            if n:
                addend = self.add(addend, addend)
        return result

    def sum(self, values: Iterable[Any]) -> Any:
        """Sum an iterable of payloads (returns :meth:`zero` when empty)."""
        total = self.zero()
        for value in values:
            total = self.add_inplace(total, value)
        return total

    def prod(self, values: Iterable[Any]) -> Any:
        """Multiply an iterable of payloads (returns :meth:`one` when empty)."""
        total = self.one()
        for value in values:
            total = self.mul(total, value)
        return total

    def copy(self, a: Any) -> Any:
        """Return a value the caller may mutate via :meth:`add_inplace`.

        Rings with immutable payloads (ints, floats) return ``a`` itself.
        """
        return a

    def scale_float(self, a: Any, factor: float) -> Any:
        """Return ``a`` scaled by an arbitrary real ``factor``.

        Only rings whose payloads embed the reals support this
        (``has_float_scaling``); it is the primitive exponential decay is
        built on. Exact rings (Z, bool, min-plus) raise — decaying exact
        counts has no well-defined meaning there.
        """
        raise RingError(
            f"ring {self.name!r} cannot scale payloads by a float — "
            "exponential decay needs a float-weighted ring (sum/covar)"
        )

    def scale_float_many(self, block: Any, factor: float) -> Any:
        """Block form of :meth:`scale_float` (one factor for all elements)."""
        return self.make_block(
            self.scale_float(payload, factor)
            for payload in self.block_payloads(block)
        )

    # ------------------------------------------------------------------
    # Bulk kernels over payload *blocks*.
    #
    # A block holds n payloads in whatever layout the ring chooses: the
    # generic fallbacks below use a plain Python list, scalar rings use a
    # 1-d numpy array, the numeric cofactor ring uses contiguous
    # ``(c[n], s[n, k], q[n, k, k])`` column arrays over the block's
    # k-feature support, and the sparse cofactor ring CSR arrays of
    # packed aggregate codes. Blocks are opaque to
    # callers — always go through these methods. All kernels are pure
    # (fresh output blocks); :meth:`block_payloads` is the only bridge
    # back to ordinary per-key payload values.
    # ------------------------------------------------------------------

    def make_block(self, payloads: Iterable[Any]) -> Any:
        """Pack an iterable of payloads into a block."""
        return list(payloads)

    def zero_block(self, n: int) -> Any:
        """Block of ``n`` additive identities."""
        return [self.zero() for _ in range(n)]

    def block_size(self, block: Any) -> int:
        """Number of payloads in ``block``."""
        return len(block)

    def block_payloads(self, block: Any) -> Iterable[Any]:
        """Iterate the block as ordinary payload values (scatter bridge)."""
        return iter(block)

    def take(self, block: Any, indices: Any) -> Any:
        """Gather ``block[i]`` for each i in ``indices`` into a new block."""
        return [block[i] for i in indices]

    def add_many(self, a: Any, b: Any) -> Any:
        """Element-wise :meth:`add` of two equal-length blocks."""
        return [self.add(x, y) for x, y in zip(a, b)]

    def mul_many(self, a: Any, b: Any) -> Any:
        """Element-wise :meth:`mul` of two equal-length blocks."""
        return [self.mul(x, y) for x, y in zip(a, b)]

    def neg_many(self, a: Any) -> Any:
        """Element-wise :meth:`neg` of a block."""
        return [self.neg(x) for x in a]

    def scale_many(self, block: Any, counts: Sequence[int]) -> Any:
        """Element-wise :meth:`scale` by per-element integer counts."""
        return [self.scale(x, int(n)) for x, n in zip(block, counts)]

    def from_int_many(self, counts: Sequence[int]) -> Any:
        """Block of :meth:`from_int` images of per-element counts."""
        return [self.from_int(int(n)) for n in counts]

    def lift_many(self, index: Any, *columns: Sequence[Any]) -> Any:
        """Element-wise ``lift(index, columns[0][i], ...)`` as a block.

        Only defined for rings exposing a ``lift`` attribute function
        (the cofactor rings); others raise :class:`RingError`.
        """
        lift = getattr(self, "lift", None)
        if lift is None:
            raise RingError(f"ring {self.name!r} has no lift; lift_many undefined")
        return self.make_block(lift(index, *values) for values in zip(*columns))

    def is_zero_many(self, block: Any) -> np.ndarray:
        """Boolean mask of elements equal to the additive identity."""
        size = self.block_size(block)
        return np.fromiter(
            (self.is_zero(x) for x in self.block_payloads(block)),
            dtype=bool,
            count=size,
        )

    def sum_segments(self, block: Any, segment_ids: Any, count: int) -> Any:
        """Group-sum: output element g is the sum of rows with id g.

        ``segment_ids`` assigns each block element to one of ``count``
        groups; groups with no member sum to :meth:`zero`. This is the
        bulk form of the marginalization group-by.
        """
        totals = [None] * count
        for payload, gid in zip(self.block_payloads(block), segment_ids):
            existing = totals[gid]
            if existing is None:
                totals[gid] = self.copy(payload)
            else:
                totals[gid] = self.add_inplace(existing, payload)
        return self.make_block(
            self.zero() if total is None else total for total in totals
        )

    def nonzero_cells(self, block: Any) -> int:
        """Non-zero vector/matrix cells a block holds beyond the one count
        per payload (0 for rings whose payload is a single scalar) — the
        ``payload_weight`` of ``FIVMEngine.memory_report``."""
        return 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


def check_ring_axioms(ring: Ring, a: Any, b: Any, c: Any) -> None:
    """Assert the commutative-ring axioms on a sample of three values.

    Used by the hypothesis test-suite: raises :class:`RingError` naming the
    violated axiom. For semirings (``has_negation=False``) the inverse axiom
    is skipped.
    """
    eq = ring.eq
    zero, one = ring.zero(), ring.one()
    checks = [
        ("add associativity", ring.add(ring.add(a, b), c), ring.add(a, ring.add(b, c))),
        ("add commutativity", ring.add(a, b), ring.add(b, a)),
        ("add identity", ring.add(a, zero), a),
        ("mul associativity", ring.mul(ring.mul(a, b), c), ring.mul(a, ring.mul(b, c))),
        ("mul commutativity", ring.mul(a, b), ring.mul(b, a)),
        ("mul identity", ring.mul(a, one), a),
        ("mul zero annihilates", ring.mul(a, zero), zero),
        (
            "distributivity",
            ring.mul(a, ring.add(b, c)),
            ring.add(ring.mul(a, b), ring.mul(a, c)),
        ),
    ]
    if ring.has_negation:
        checks.append(("additive inverse", ring.add(a, ring.neg(a)), zero))
    for axiom, left, right in checks:
        if not eq(left, right):
            raise RingError(
                f"{ring.name}: axiom {axiom!r} violated: {left!r} != {right!r}"
            )
