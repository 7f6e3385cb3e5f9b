"""Deterministic fault injection for the sharded engine and checkpoints.

Robustness claims are only testable if failures are reproducible. This
module gives the test suite (and ``benchmarks/bench_recovery.py``) a
process-global :class:`FaultInjector` whose :class:`FaultSpec` entries
fire at exact, counted call sites threaded through the engine:

========================  ====================================================
site                      where it fires
========================  ====================================================
``worker.apply``          in a shard worker, before applying one routed delta
``worker.observe``        in a shard worker, before noting a batch's relations
``worker.advance``        in a shard worker, before a decay tick
``worker.reply``          in a shard worker, before a synchronous reply
``coordinator.send``      on the coordinator, before routing one sub-delta
``coordinator.gather``    on the coordinator, before fanning out a gather op
``checkpoint.write``      in ``write_checkpoint``, before the atomic rename
``checkpoint.finish``     in ``write_checkpoint``, after the atomic rename
========================  ====================================================

Spec kinds:

- ``"kill"`` — die at the site: a worker process ``os._exit``\\ s, an
  in-process (serial backend) worker raises :class:`InjectedWorkerDeath`
  and its channel goes dead, a coordinator-side site SIGKILLs the target
  shard's worker process or drops the in-process one.
- ``"raise"`` — raise :class:`InjectedFault` (a parked worker failure or
  a coordinator-visible error, depending on the site).
- ``"delay"`` — sleep ``seconds`` at the site (heartbeat-timeout tests).
- ``"crash"`` / ``"truncate"`` — returned to the checkpoint sites, which
  orphan the ``*.tmp`` file / truncate the finished file to
  ``bytes_kept`` bytes.

The injector is installed into a module global, so forked shard workers
inherit it; specs carry an ``incarnation`` filter (default 0: only the
*original* workers) so a respawned worker does not immediately re-trigger
the fault that killed its predecessor. Every hook is a no-op when no
injector is installed — the production path pays one global read.
"""

from __future__ import annotations

import os
import random
import signal
import time
from typing import Callable, List, Optional, Tuple

__all__ = [
    "FaultSpec",
    "FaultInjector",
    "InjectedFault",
    "InjectedWorkerDeath",
    "install_injector",
    "clear_injector",
    "current_injector",
    "fire",
]


class InjectedFault(Exception):
    """An error raised on purpose by a :class:`FaultSpec` of kind 'raise'."""


class InjectedWorkerDeath(InjectedFault):
    """The serial backend's stand-in for a worker process dying."""


class FaultSpec:
    """One deterministic fault: fire ``kind`` at the ``at``-th matching call.

    ``site`` names the hook point (or ``"*"``); ``op`` narrows to one
    worker/gather op; ``shard`` narrows to one shard (``None``: any);
    ``incarnation`` is which worker generation may trigger it (0 = the
    original fork, ``"*"`` = any — beware crash loops). ``once`` specs
    disarm after firing.
    """

    __slots__ = (
        "kind", "site", "op", "shard", "at", "seconds", "bytes_kept",
        "once", "incarnation", "hits", "spent",
    )

    def __init__(
        self, kind, site="*", op="*", shard=None, at=1, seconds=0.05,
        bytes_kept=8, once=True, incarnation=0,
    ):
        self.kind = kind
        self.site = site
        self.op = op
        self.shard = shard
        self.at = int(at)
        self.seconds = float(seconds)
        self.bytes_kept = int(bytes_kept)
        self.once = bool(once)
        self.incarnation = incarnation
        self.hits = 0
        self.spent = False

    def matches(self, site, op, shard, incarnation) -> bool:
        if self.spent:
            return False
        if self.site != "*" and self.site != site:
            return False
        if self.op != "*" and op != "*" and self.op != op:
            return False
        if self.shard is not None and shard is not None and self.shard != shard:
            return False
        if self.incarnation != "*" and incarnation != self.incarnation:
            return False
        return True


class FaultInjector:
    """Holds armed :class:`FaultSpec` entries and fires them at hooks.

    ``fired`` records ``(site, op, shard, kind)`` tuples in the process
    that observed the fault (forked workers record into their own copy,
    so coordinator-side assertions should use recovery statistics).
    """

    def __init__(self, specs: Tuple[FaultSpec, ...] = ()):
        self.specs: List[FaultSpec] = list(specs)
        self.fired: List[Tuple[str, str, Optional[int], str]] = []

    @classmethod
    def seeded_kills(
        cls, seed: int, site: str, max_at: int, shards: int, count: int = 1
    ) -> "FaultInjector":
        """Deterministic kill-at-step-K specs drawn from ``seed``."""
        rng = random.Random(seed)
        specs = [
            FaultSpec(
                "kill",
                site=site,
                shard=rng.randrange(shards),
                at=rng.randint(1, max_at),
            )
            for _ in range(count)
        ]
        return cls(tuple(specs))

    def add(self, spec: FaultSpec) -> None:
        self.specs.append(spec)

    def fire(
        self,
        site: str,
        op: str = "*",
        shard: Optional[int] = None,
        incarnation: int = 0,
        kill: Optional[Callable[[], None]] = None,
    ) -> Optional[FaultSpec]:
        """Run the first matching spec's action; site-specific kinds
        (``crash``/``truncate``) are returned to the caller."""
        for spec in self.specs:
            if not spec.matches(site, op, shard, incarnation):
                continue
            spec.hits += 1
            if spec.hits < spec.at:
                continue
            if spec.once:
                spec.spent = True
            else:
                spec.hits = 0
            self.fired.append((site, op, shard, spec.kind))
            if spec.kind == "kill":
                if kill is not None:
                    kill()
                    return spec
                raise InjectedWorkerDeath(
                    f"injected worker death at {site} (op {op!r}, "
                    f"shard {shard})"
                )
            if spec.kind == "raise":
                raise InjectedFault(
                    f"injected fault at {site} (op {op!r}, shard {shard})"
                )
            if spec.kind == "delay":
                time.sleep(spec.seconds)
                return spec
            return spec
        return None


#: The process-global injector; forked workers inherit it.
_INJECTOR: Optional[FaultInjector] = None


def install_injector(injector: FaultInjector) -> FaultInjector:
    """Install ``injector`` globally (replacing any previous one)."""
    global _INJECTOR
    _INJECTOR = injector
    return injector


def clear_injector() -> None:
    global _INJECTOR
    _INJECTOR = None


def current_injector() -> Optional[FaultInjector]:
    return _INJECTOR


def fire(
    site: str,
    op: str = "*",
    shard: Optional[int] = None,
    incarnation: int = 0,
    kill: Optional[Callable[[], None]] = None,
) -> Optional[FaultSpec]:
    """Hook entry point: near-free when no injector is installed."""
    injector = _INJECTOR
    if injector is None:
        return None
    return injector.fire(
        site, op=op, shard=shard, incarnation=incarnation, kill=kill
    )


def exit_worker() -> None:
    """Die the way a crashed worker process dies (no cleanup, no excuses)."""
    os._exit(17)


def kill_process(pid: int) -> Callable[[], None]:
    """A ``kill`` callback SIGKILLing ``pid`` (coordinator-side sites)."""

    def _kill() -> None:
        os.kill(pid, signal.SIGKILL)

    return _kill
