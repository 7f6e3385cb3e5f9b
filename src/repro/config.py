"""One frozen description of how to build a maintenance engine.

:class:`EngineConfig` says *where* maintenance runs (shards, backend,
supervision) and over *which* history (window, decay). What the query
decides is not in it: the engine picks the compiled program's columnar
or row mode from the payload ring and the delta's size (see
:class:`~repro.engine.fivm.FIVMEngine`), and a sharded engine derives its
shard key from the view tree
(:func:`~repro.viewtree.builder.build_shard_plan`), so there is no
access-path or shard-key switch to set.

- :func:`create_engine` builds the right engine (sharded coordinator or
  plain F-IVM) from a config;
- :func:`add_engine_cli_args` / :func:`engine_config_from_args` derive
  the CLI's ``--engine-*`` flag namespace from the config fields, so
  ``repro checkpoint`` and ``repro serve`` share one source of truth;
- ``export_state`` / checkpoint headers record ``EngineConfig.to_dict``
  for provenance, so a snapshot knows how its engine was built.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Mapping, Optional

from repro.errors import DataError, EngineError, RingError

__all__ = [
    "EngineConfig",
    "create_engine",
    "add_engine_cli_args",
    "engine_config_from_args",
]

#: Values accepted by the ``backend`` field (before resolution).
BACKEND_CHOICES = ("auto", "serial", "process")


@dataclass(frozen=True)
class EngineConfig:
    """Every tunable of engine construction, in one immutable value.

    A config with ``shards == 1`` describes a plain
    :class:`~repro.engine.fivm.FIVMEngine`; ``shards > 1`` describes a
    :class:`~repro.engine.sharded.ShardedEngine` coordinator whose
    per-shard engines inherit ``decay``. Validation happens at
    construction, so a config that exists is a config that builds.
    """

    #: Number of hash partitions (1 = unsharded F-IVM).
    shards: int = 1
    #: Shard execution backend: ``auto`` | ``serial`` | ``process``.
    backend: str = "auto"
    #: Windowed maintenance: ``"tumbling:SIZE"`` or ``"sliding:SIZE/SLIDE"``
    #: (event-time units). The stream layer compiles the window to delayed
    #: retractions (:class:`~repro.data.windows.WindowedStream`); snapshots
    #: carry the window bounds as provenance. ``None`` = full history.
    window: Optional[str] = None
    #: Exponential decay: ``"RATE/EVERY"`` (e.g. ``"0.99/1000"``: multiply
    #: history by 0.99 per 1000 events). The engine boosts each delta's
    #: leaf payloads by its decay clock and settles the views at read
    #: time (:mod:`repro.rings.decay`); the ring, and so the view form,
    #: stays the query's. Requires a float-weighted ring (sum/covar).
    #: Mutually exclusive with ``window``.
    decay: Optional[str] = None
    #: Self-healing shards: keep a coordinator-side replay log and
    #: respawn dead/hung workers from the last baseline instead of
    #: fail-stopping (see :mod:`repro.engine.supervisor`). Forces a
    #: :class:`~repro.engine.sharded.ShardedEngine` even at 1 shard.
    supervise: bool = False
    #: Supervision: replay-log bound in logged delta entries; exceeding
    #: it rebases the baseline (one ``export_state`` gather) and
    #: truncates the log.
    replay_log_limit: int = 20000
    #: Supervision: seconds a worker may stay silent on a synchronous
    #: reply before it is declared hung and respawned.
    heartbeat_timeout: float = 30.0

    def __post_init__(self):
        if not isinstance(self.shards, int) or isinstance(self.shards, bool):
            try:
                object.__setattr__(self, "shards", int(self.shards))
            except (TypeError, ValueError):
                raise EngineError(
                    f"shards must be an int, got {self.shards!r}"
                ) from None
        if self.shards < 1:
            raise EngineError("shards must be at least 1")
        if self.backend not in BACKEND_CHOICES:
            raise EngineError(
                f"unknown shard backend {self.backend!r}; expected one of "
                f"{BACKEND_CHOICES}"
            )
        object.__setattr__(self, "supervise", bool(self.supervise))
        try:
            object.__setattr__(
                self, "replay_log_limit", int(self.replay_log_limit)
            )
        except (TypeError, ValueError):
            raise EngineError(
                f"replay_log_limit must be an int, got "
                f"{self.replay_log_limit!r}"
            ) from None
        if self.replay_log_limit < 1:
            raise EngineError("replay_log_limit must be at least 1")
        try:
            object.__setattr__(
                self, "heartbeat_timeout", float(self.heartbeat_timeout)
            )
        except (TypeError, ValueError):
            raise EngineError(
                f"heartbeat_timeout must be a number, got "
                f"{self.heartbeat_timeout!r}"
            ) from None
        if self.heartbeat_timeout <= 0:
            raise EngineError("heartbeat_timeout must be positive")
        if self.window is not None:
            from repro.data.windows import WindowSpec

            try:
                spec = WindowSpec.parse(self.window)
            except DataError as exc:
                raise EngineError(str(exc)) from None
            object.__setattr__(self, "window", spec.describe())
        if self.decay is not None:
            from repro.rings.decay import DecaySpec

            try:
                decay_spec = DecaySpec.parse(self.decay)
            except RingError as exc:
                raise EngineError(str(exc)) from None
            object.__setattr__(self, "decay", decay_spec.describe())
        if self.window is not None and self.decay is not None:
            raise EngineError(
                "window and decay are mutually exclusive: a window retracts "
                "events sharply while decay reweights them smoothly, and a "
                "retraction lifted at a later decay tick would no longer "
                "cancel its insert"
            )

    # ------------------------------------------------------------------

    def replace(self, **changes) -> "EngineConfig":
        """A new config with ``changes`` applied (re-validated)."""
        return replace(self, **changes)

    def window_spec(self):
        """The parsed :class:`~repro.data.windows.WindowSpec` (or ``None``)."""
        if self.window is None:
            return None
        from repro.data.windows import WindowSpec

        return WindowSpec.parse(self.window)

    def decay_spec(self):
        """The parsed :class:`~repro.rings.decay.DecaySpec` (or ``None``)."""
        if self.decay is None:
            return None
        from repro.rings.decay import DecaySpec

        return DecaySpec.parse(self.decay)

    def to_dict(self) -> Dict[str, Any]:
        """Primitive-only dict form (checkpoint headers, provenance)."""
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EngineConfig":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise EngineError(
                f"unknown EngineConfig field(s) {unknown}; known: "
                f"{sorted(known)}"
            )
        return cls(**dict(data))

    def describe(self) -> str:
        """Compact one-line summary (CLI banners, logs)."""
        parts = [f"shards={self.shards}"]
        if self.shards > 1:
            parts.append(f"backend={self.backend}")
        if self.window is not None:
            parts.append(f"window={self.window}")
        if self.decay is not None:
            parts.append(f"decay={self.decay}")
        if self.supervise:
            parts.append("supervise=on")
        return " ".join(parts)


# ----------------------------------------------------------------------
# Factory
# ----------------------------------------------------------------------


def create_engine(query, config: Optional[EngineConfig] = None, order=None):
    """Build the engine a config describes.

    ``shards > 1`` builds a :class:`~repro.engine.sharded.ShardedEngine`
    (the coordinator resolves the backend); otherwise a plain
    :class:`~repro.engine.fivm.FIVMEngine`. The returned engine still
    needs ``initialize()`` (or ``import_state()``).
    """
    if config is None:
        config = EngineConfig()
    elif not isinstance(config, EngineConfig):
        raise EngineError(
            f"config must be an EngineConfig, got {type(config).__name__}"
        )
    # Imported lazily: the engine modules import this one at module level.
    # Supervision lives in the sharded coordinator (it is what respawns
    # workers), so a supervised config builds one even at a single shard.
    if config.shards > 1 or config.supervise:
        from repro.engine.sharded import ShardedEngine

        return ShardedEngine(query, order=order, config=config)
    from repro.engine.fivm import FIVMEngine

    return FIVMEngine(query, order=order, config=config)


# ----------------------------------------------------------------------
# CLI derivation: one --engine-* namespace for every subcommand
# ----------------------------------------------------------------------


def add_engine_cli_args(parser: argparse.ArgumentParser, shards_default: int = 1) -> None:
    """Register the shared ``--engine-*`` flag namespace on a subparser.

    Every flag maps to one :class:`EngineConfig` field.
    """
    group = parser.add_argument_group(
        "engine options", "shared --engine-* namespace (see repro.EngineConfig)"
    )
    group.add_argument(
        "--engine-shards",
        dest="engine_shards", type=int, default=shards_default, metavar="N",
        help=(
            "hash partitions: 1 = plain F-IVM, >1 = ShardedEngine "
            f"(default {shards_default})"
        ),
    )
    group.add_argument(
        "--engine-backend",
        dest="engine_backend", choices=BACKEND_CHOICES, default="auto",
        help="shard execution backend (auto: fork processes when available)",
    )
    group.add_argument(
        "--engine-window",
        dest="engine_window", default=None, metavar="SPEC",
        help=(
            "windowed maintenance over event time: 'tumbling:SIZE' or "
            "'sliding:SIZE/SLIDE' (default: full history)"
        ),
    )
    group.add_argument(
        "--engine-decay",
        dest="engine_decay", default=None, metavar="RATE/EVERY",
        help=(
            "exponential decay: multiply history by RATE every EVERY "
            "events (e.g. 0.99/1000; float-weighted rings only)"
        ),
    )
    group.add_argument(
        "--engine-supervise",
        dest="engine_supervise", action=argparse.BooleanOptionalAction,
        default=False,
        help=(
            "self-healing shards: respawn dead/hung workers from the last "
            "baseline + replay log instead of fail-stopping"
        ),
    )
    group.add_argument(
        "--engine-replay-log-limit",
        dest="engine_replay_log_limit", type=int, default=20000, metavar="N",
        help=(
            "supervision replay-log bound in logged delta entries "
            "(exceeding it rebases the baseline; default 20000)"
        ),
    )
    group.add_argument(
        "--engine-heartbeat-timeout",
        dest="engine_heartbeat_timeout", type=float, default=30.0,
        metavar="SECONDS",
        help=(
            "seconds a worker may stay silent before it is declared hung "
            "and respawned (default 30)"
        ),
    )


def engine_config_from_args(args: argparse.Namespace) -> EngineConfig:
    """Build the :class:`EngineConfig` an ``--engine-*`` namespace encodes."""
    return EngineConfig(
        shards=int(getattr(args, "engine_shards", 1)),
        backend=getattr(args, "engine_backend", "auto"),
        window=getattr(args, "engine_window", None),
        decay=getattr(args, "engine_decay", None),
        supervise=bool(getattr(args, "engine_supervise", False)),
        replay_log_limit=int(getattr(args, "engine_replay_log_limit", 20000)),
        heartbeat_timeout=float(
            getattr(args, "engine_heartbeat_timeout", 30.0)
        ),
    )
