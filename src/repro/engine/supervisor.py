"""Worker supervision: bounded replay logs and recovery budgets.

The sharded engine historically fail-stopped: one dead worker closed the
whole backend. With ``EngineConfig(supervise=True)`` the coordinator
instead *heals*: it keeps

- a **baseline** — the engine's last exported global state (captured at
  ``initialize``, refreshed by every ``export_state`` /
  ``checkpoint_sink`` write, and rebased automatically when the log
  outgrows ``replay_log_limit``), and
- a **replay log** — every routed delta and decay tick applied since the
  baseline, recorded *pre-split* on the coordinator (one shallow dict
  copy per batch; re-splitting through the deterministic
  :class:`~repro.data.sharding.ShardRouter` at recovery time reproduces
  exactly the sub-deltas the dead shard should have seen).

Recovery = re-partition the baseline to the dead shard's slice (the same
re-partitioned restore checkpoints use, exact by multilinearity), respawn
the worker seeded with that slice, replay the log filtered to the shard,
and resume. The recovered engine's root view is bit-identical to an
uninterrupted run — the invariant the fault-injection suite asserts.

:class:`WorkerSupervisor` also carries the recovery *budget*: a bounded
number of consecutive recovery rounds (exponential backoff between them)
before the engine gives up with :class:`~repro.errors.SupervisionError`
— fail-stop remains the backstop behind self-healing.
"""

from __future__ import annotations

import pickle
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SupervisionError

__all__ = ["ReplayLog", "WorkerSupervisor"]


class ReplayLog:
    """Ordered post-baseline work: ``("delta", name, data)`` / ``("advance", n)``.

    ``updates`` counts logged delta *entries* (distinct keys), the unit
    ``replay_log_limit`` bounds. Entries hold shallow dict copies —
    engines treat deltas as read-only, so sharing payload values is safe,
    and the copy keeps the log immune to caller-side reuse of the dict.
    """

    __slots__ = ("limit", "entries", "updates")

    def __init__(self, limit: int):
        self.limit = int(limit)
        self.entries: List[Tuple] = []
        self.updates = 0

    def record_delta(self, relation_name: str, data: Dict) -> None:
        self.entries.append(("delta", relation_name, dict(data)))
        self.updates += len(data)

    def record_advance(self, ticks: int) -> None:
        self.entries.append(("advance", int(ticks)))

    def over_limit(self) -> bool:
        return self.updates > self.limit

    def clear(self) -> None:
        self.entries = []
        self.updates = 0

    def __len__(self) -> int:
        return len(self.entries)


class WorkerSupervisor:
    """Per-engine recovery state: baseline, log, budget, statistics."""

    #: Consecutive failed recovery rounds tolerated before giving up.
    MAX_CONSECUTIVE_RECOVERIES = 5
    #: Backoff before the n-th consecutive recovery round (seconds).
    BACKOFF_BASE = 0.05
    BACKOFF_CAP = 2.0

    def __init__(self, replay_log_limit: int, heartbeat_timeout: float):
        self.replay_log_limit = int(replay_log_limit)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.log = ReplayLog(self.replay_log_limit)
        self._baseline_blob: Optional[bytes] = None
        self.recovering = False
        self.failures = 0
        self.recoveries = 0
        self.consecutive = 0
        self.last_error: Optional[str] = None
        self.last_recovery_s: Optional[float] = None
        self.total_recovery_s = 0.0

    # -- baseline -------------------------------------------------------

    def accept_baseline(self, views: Dict[str, Dict]) -> None:
        """Adopt ``views`` (the exported global view map) as the new
        baseline and truncate the log — everything logged so far is
        covered by the baseline now. Stored pickled, so recoveries never
        alias live engine state."""
        self._baseline_blob = pickle.dumps(
            views, protocol=pickle.HIGHEST_PROTOCOL
        )
        self.log.clear()

    def baseline_views(self) -> Dict[str, Dict]:
        if self._baseline_blob is None:
            raise SupervisionError(
                "no baseline captured; cannot rebuild a failed shard"
            )
        return pickle.loads(self._baseline_blob)

    # -- log ------------------------------------------------------------

    def record_delta(self, relation_name: str, data: Dict) -> None:
        self.log.record_delta(relation_name, data)

    def record_advance(self, ticks: int) -> None:
        self.log.record_advance(ticks)

    def needs_rebase(self) -> bool:
        return self.log.over_limit()

    # -- budget ---------------------------------------------------------

    def begin_recovery(self, shards: List[int], error: Optional[str]) -> None:
        """Open one recovery round; raises when the budget is exhausted."""
        self.failures += len(shards)
        self.last_error = error
        if self.consecutive >= self.MAX_CONSECUTIVE_RECOVERIES:
            raise SupervisionError(
                f"giving up after {self.consecutive} consecutive recovery "
                f"rounds (shards {shards}, last error: {error}); "
                "the engine is closed"
            )
        if self.consecutive:
            time.sleep(
                min(
                    self.BACKOFF_BASE * (2 ** (self.consecutive - 1)),
                    self.BACKOFF_CAP,
                )
            )
        self.consecutive += 1
        self.recovering = True

    def end_recovery(self, seconds: float, success: bool) -> None:
        self.recovering = False
        if success:
            self.recoveries += 1
            self.consecutive = 0
            self.last_recovery_s = float(seconds)
            self.total_recovery_s += float(seconds)

    # -- observability --------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return {
            "recovering": self.recovering,
            "failures": self.failures,
            "recoveries": self.recoveries,
            "last_error": self.last_error,
            "last_recovery_s": self.last_recovery_s,
            "total_recovery_s": self.total_recovery_s,
            "replay_log_entries": len(self.log),
            "replay_log_updates": self.log.updates,
            "replay_log_limit": self.replay_log_limit,
        }
