"""Exponential decay: the schedule and drift measurements.

Windowed maintenance (:mod:`repro.data.windows`) forgets events sharply;
decay forgets them smoothly. Every base-relation event carries the
weight ``λ^(T - t)`` where ``t`` is the decay tick at which it arrived
and ``T`` the current tick, so COVAR/regression/sum payloads track the
recent stream; joined tuples multiply the weights of their contributing
events (weights ride the ring's multilinearity like any other payload
factor).

Decay is not a ring: it is a per-event weight, and it enters where
multiplicities become payloads — the leaf lift of each compiled
maintenance program (:class:`~repro.engine.compile.FusedPath`), which
multiplies the scaled payloads by the engine's **boost** ``λ^(-T)``.
Stored payloads then hold their value *as of tick 0*, and one lazy
multiplication by ``λ^(T·k)`` per view at read time (``k`` = leaf
relations under the view — each summand carries exactly ``k`` boosted
leaf factors) yields the decayed value. The clock, the read-time settle
and the rescale-on-overflow live on
:class:`~repro.engine.fivm.FIVMEngine`. Decay needs a ring with
``has_float_scaling`` (sum/covar payloads); exact rings (Z, bool,
min-plus) are refused descriptively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import RingError
from repro.rings.cofactor import NumericCofactor, aligned

__all__ = ["DecaySpec", "payload_drift", "result_drift"]


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
