"""Exponential decay as a ring wrapper: recency-weighted aggregates.

Windowed maintenance (:mod:`repro.data.windows`) forgets events sharply;
:class:`DecayRing` forgets them smoothly. Every base-relation event
carries the weight ``λ^(T - t)`` where ``t`` is the decay tick at which
it arrived and ``T`` the current tick, so COVAR/regression/sum payloads
track the recent stream; joined tuples multiply the weights of their
contributing events (weights ride the ring's multilinearity like any
other payload factor).

The trick that keeps maintenance *incremental* — no stored payload is
ever touched when the clock ticks — is to run the clock backwards on the
way in: an event arriving at tick ``t`` is scaled by the **boost**
``λ^(-t)`` at the only points where integer multiplicities enter payload
space (:meth:`scale`, :meth:`from_int` and their bulk forms). Every
stored payload then holds its value *as of tick 0*, and a single lazy
multiplication by ``λ^(T·k)`` at read time (``k`` = number of base
relations contributing to the view — each summand carries exactly ``k``
boosted leaf factors) yields the correctly decayed value. That read-time
rebase is :meth:`settle_factor`; the engine applies it per view, resets
the clock, and does so automatically whenever the boost would overflow
(``rescale-on-overflow``), so the scheme is numerically stable over
unbounded streams.

Because the boost rides the multiplicity entry points shared by the
row and columnar modes of the compiled maintenance program, both
produce bit-identical decayed state.
The wrapper delegates everything else — the full bulk-kernel contract
and the slot stores' row kernels, each method spelt out — to the base
ring, so it rides the compiled program at full speed. It requires
``has_float_scaling`` on the base ring (sum/covar payloads); exact
rings (Z, bool, min-plus) raise a descriptive error, as decayed exact
counts are not meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import RingError
from repro.rings.base import Ring
from repro.rings.cofactor import NumericCofactor, aligned

__all__ = ["DecaySpec", "DecayRing", "payload_drift", "result_drift"]


@dataclass(frozen=True)
class DecaySpec:
    """Decay schedule: multiply history by ``rate`` every ``every`` events.

    Parsed from the spec string ``"RATE/EVERY"`` (e.g. ``"0.99/1000"``:
    one decay tick of λ=0.99 per 1000 stream events) used by
    :class:`~repro.config.EngineConfig` and ``--engine-decay``.
    """

    rate: float
    every: int

    def __post_init__(self):
        if not isinstance(self.rate, float) or not 0.0 < self.rate < 1.0:
            raise RingError(
                f"decay rate must be a float in (0, 1), got {self.rate!r}"
            )
        if not isinstance(self.every, int) or self.every < 1:
            raise RingError(
                f"decay interval must be a positive int, got {self.every!r}"
            )

    @classmethod
    def parse(cls, spec: str) -> "DecaySpec":
        """Parse ``"RATE/EVERY"`` (``"RATE"`` alone means every event)."""
        if not isinstance(spec, str) or not spec:
            raise RingError(
                f"bad decay spec {spec!r}: expected 'RATE/EVERY' (e.g. '0.99/1000')"
            )
        rate_s, _, every_s = spec.partition("/")
        try:
            rate = float(rate_s)
            every = int(every_s) if every_s else 1
        except ValueError:
            raise RingError(
                f"bad decay spec {spec!r}: expected 'RATE/EVERY' (e.g. '0.99/1000')"
            ) from None
        return cls(rate, every)

    def describe(self) -> str:
        return f"{self.rate}/{self.every}"


class DecayRing(Ring):
    """Wrap a base ring so multiplicities enter pre-boosted by ``λ^(-T)``.

    Mutable by design: :meth:`advance` moves the shared decay clock that
    every subsequent lift observes. State (``ticks``/``boost``) lives on
    the ring because the ring is the one object every maintenance path
    already shares.

    ``is_scalar`` is forced ``False`` even over scalar bases: the scalar
    fast paths use native ``+``/``*`` and would bypass the boost.
    """

    #: Settle before the boost exceeds this (well inside float range).
    DEFAULT_BOOST_LIMIT = 1e100

    def __init__(self, base: Ring, rate: float, boost_limit: float = DEFAULT_BOOST_LIMIT):
        if not 0.0 < rate < 1.0:
            raise RingError(f"decay rate must be in (0, 1), got {rate!r}")
        if not base.has_float_scaling:
            raise RingError(
                f"ring {base.name!r} cannot scale payloads by a float — "
                "exponential decay needs a float-weighted ring (sum/covar)"
            )
        self.base = base
        self.rate = float(rate)
        self.boost_limit = float(boost_limit)
        self.ticks = 0
        self.boost = 1.0
        self.name = f"Decay<{base.name}, rate={rate}>"

    # -- clock ---------------------------------------------------------

    def advance(self, ticks: int = 1) -> None:
        """Move the decay clock forward; past events lose ``rate`` per tick."""
        if ticks < 0:
            raise RingError("decay clock cannot run backwards")
        self.ticks += ticks
        self.boost = self.rate ** (-self.ticks)

    @property
    def needs_rescale(self) -> bool:
        """Whether the boost overflowed the limit and a settle is due."""
        return self.boost > self.boost_limit

    def settle_factor(self, leaf_count: int) -> float:
        """``λ^(ticks · k)`` — the read-time rebase for a ``k``-leaf view."""
        return self.rate ** (self.ticks * leaf_count)

    def reset(self) -> None:
        """Rebase the clock to 0 after the caller settled every view."""
        self.ticks = 0
        self.boost = 1.0

    # -- boosted multiplicity entry points -----------------------------

    def scale(self, a: Any, n: int) -> Any:
        scaled = self.base.scale(a, n)
        if self.boost != 1.0:
            scaled = self.base.scale_float(scaled, self.boost)
        return scaled

    def from_int(self, n: int) -> Any:
        value = self.base.from_int(n)
        if self.boost != 1.0:
            value = self.base.scale_float(value, self.boost)
        return value

    def scale_many(self, block: Any, counts) -> Any:
        scaled = self.base.scale_many(block, counts)
        if self.boost != 1.0:
            scaled = self.base.scale_float_many(scaled, self.boost)
        return scaled

    def from_int_many(self, counts) -> Any:
        block = self.base.from_int_many(counts)
        if self.boost != 1.0:
            block = self.base.scale_float_many(block, self.boost)
        return block

    # -- pure delegation -----------------------------------------------

    @property
    def has_negation(self) -> bool:
        return self.base.has_negation

    @property
    def has_bulk_kernels(self) -> bool:
        return self.base.has_bulk_kernels

    is_scalar = False
    has_float_scaling = True

    def zero(self):
        return self.base.zero()

    def one(self):
        return self.base.one()

    def add(self, a, b):
        return self.base.add(a, b)

    def mul(self, a, b):
        return self.base.mul(a, b)

    def neg(self, a):
        return self.base.neg(a)

    def sub(self, a, b):
        return self.base.sub(a, b)

    def add_inplace(self, a, b):
        return self.base.add_inplace(a, b)

    def eq(self, a, b):
        return self.base.eq(a, b)

    def is_zero(self, a):
        return self.base.is_zero(a)

    def copy(self, a):
        return self.base.copy(a)

    def sum(self, values):
        return self.base.sum(values)

    def prod(self, values):
        return self.base.prod(values)

    def scale_float(self, a, factor):
        return self.base.scale_float(a, factor)

    def scale_float_many(self, block, factor):
        return self.base.scale_float_many(block, factor)

    def make_block(self, payloads):
        return self.base.make_block(payloads)

    def zero_block(self, n):
        return self.base.zero_block(n)

    def block_size(self, block):
        return self.base.block_size(block)

    def block_payloads(self, block):
        return self.base.block_payloads(block)

    def take(self, block, indices):
        return self.base.take(block, indices)

    def add_many(self, a, b):
        return self.base.add_many(a, b)

    def mul_many(self, a, b):
        return self.base.mul_many(a, b)

    def neg_many(self, a):
        return self.base.neg_many(a)

    def lift_many(self, index, *columns):
        return self.base.lift_many(index, *columns)

    def is_zero_many(self, block):
        return self.base.is_zero_many(block)

    def sum_segments(self, block, segment_ids, count):
        return self.base.sum_segments(block, segment_ids, count)

    def nonzero_cells(self, block):
        return self.base.nonzero_cells(block)

    # Row kernels of slot-store views (the maintenance program's row mode
    # and every store mutation) and the cofactor extras. Spelled out, so
    # that a kernel that must be boosted is never reached through
    # ``__getattr__`` by accident: tests/rings/test_decay.py fails when
    # a base ring grows a public method this class does not define.

    def alloc_block(self, n, *support):
        return self.base.alloc_block(n, *support)

    def add_at(self, block, at, delta):
        return self.base.add_at(block, at, delta)

    def add_row(self, block, i, a):
        return self.base.add_row(block, i, a)

    def set_rows(self, block, at, rows):
        return self.base.set_rows(block, at, rows)

    def row(self, block, i):
        return self.base.row(block, i)

    def lift(self, index, x):
        return self.base.lift(index, x)

    def close(self, a, b, *tol):
        return self.base.close(a, b, *tol)

    def dense(self, a):
        return self.base.dense(a)

    def project(self, a, support):
        return self.base.project(a, support)

    def support(self, indices):
        return self.base.support(indices)

    def linear(self, a, i):
        return self.base.linear(a, i)

    def entry(self, a, i, j):
        return self.base.entry(a, i, j)

    def __getattr__(self, attr):
        # Data attributes of the base ring (layout, degree, ...) pass
        # through, so model extraction sees the base interface.
        return getattr(self.base, attr)


# ----------------------------------------------------------------------
# Drift measurement
# ----------------------------------------------------------------------


def payload_drift(a: Any, b: Any) -> float:
    """Largest absolute component difference between two payloads.

    Understands floats/ints and :class:`NumericCofactor`; anything else
    degrades to a 0/1 equality indicator. Used to quantify how far a
    decayed aggregate sits from a sharp-window (or full-history)
    reference.
    """
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(float(a) - float(b))
    if isinstance(a, NumericCofactor) and isinstance(b, NumericCofactor):
        a, b = aligned(a, b)
        drift = abs(a.c - b.c)
        if a.s.size or b.s.size:
            drift = max(drift, float(np.abs(a.s - b.s).max(initial=0.0)))
            drift = max(drift, float(np.abs(a.q - b.q).max(initial=0.0)))
        return drift
    return 0.0 if a == b else 1.0


def result_drift(decayed, reference) -> float:
    """Max :func:`payload_drift` across the keys of two result relations.

    Keys present on one side only compare against the other's absence as
    a full payload (drift of the lone payload against zero is unknown, so
    they count via a 0/1 indicator times the lone payload's self-drift
    upper bound — in practice: drift 1.0 signal).
    """
    drift = 0.0
    a, b = decayed.data, reference.data
    for key in set(a) | set(b):
        pa, pb = a.get(key), b.get(key)
        if pa is None or pb is None:
            drift = max(drift, 1.0)
        else:
            drift = max(drift, payload_drift(pa, pb))
    return drift
