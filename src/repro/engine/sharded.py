"""Sharded multi-core ingestion: one F-IVM engine per shard worker.

The paper's C++ system sustains high update rates with compiled triggers;
a pure-Python reproduction is bounded by the interpreter on one core.
:class:`ShardedEngine` recovers throughput by horizontal partitioning:
the coordinator hash-routes every delta on the shard attributes a
:class:`~repro.viewtree.builder.ShardPlan` derives from the view tree,
each shard runs a full :class:`~repro.engine.fivm.FIVMEngine` over its
slice of the database, and the query result is the ring-sum of the
per-shard root views (multilinearity of the join makes that exact — see
:mod:`repro.data.sharding`).

There is one worker, one wire form and one coordinator loop:

- :class:`ShardWorker` owns a shard's engine and answers one message set
  (``apply`` / ``observe`` / ``advance`` fire-and-forget; ``result`` / ``export`` /
  ``stats`` / ``memory`` / ``ping`` synchronous; ``stop``). A delta
  travels as ``("apply", relation, columns, counts)`` — the columnar
  form of :meth:`~repro.data.columnar.ColumnarDelta.transport`.
- Two backends drive that same worker. ``"process"`` forks one worker
  per shard and talks to it over a duplex ``multiprocessing.Pipe``, so
  the coordinator routes batch *n+1* while workers maintain batch *n*.
  ``"serial"`` calls the worker in-process through a loopback channel:
  no parallelism, identical semantics — the only path on platforms
  without ``fork``, and the determinism tests' double of the very code
  the processes run. Fork start is required for ``process`` because
  payload plans hold lifting closures that cannot cross a spawn boundary
  — workers inherit the query object instead of unpickling it.
- ``result()`` / ``shard_stats()`` / ``memory_report()`` /
  ``export_state()`` are synchronous fan-out/fan-in gathers; the
  per-shard parts are folded on the coordinator in one fixed pairwise
  structure (:func:`pairwise_fold`), so both backends produce
  bit-identical results for any ring, floating point included.

Checkpoints are shard-count portable: ``export_state`` merges per-shard
view snapshots into the global normal form a plain
:class:`~repro.engine.fivm.FIVMEngine` would export (ring-additivity of
the per-shard views makes the merge exact), and ``import_state``
re-partitions that normal form through the :class:`ShardRouter`, so a
snapshot written at N shards restores at any M — including M=1, a plain
F-IVM engine, and across the serial/process backend switch.
"""

from __future__ import annotations

import collections
import multiprocessing
import os
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import EngineConfig
from repro.data.columnar import ColumnarDelta
from repro.data.database import Database
from repro.data.relation import Relation
from repro.data.sharding import ShardRouter, shard_hash
from repro.engine.base import EngineStatistics, MaintenanceEngine
from repro.engine.evaluation import evaluate_view
from repro.engine.fivm import FIVMEngine
from repro.engine.supervisor import WorkerSupervisor
from repro.errors import EngineError, SupervisionError
from repro.query.query import Query
from repro.testing import faults as _faults
from repro.query.variable_order import VariableOrder
from repro.viewtree.builder import ShardPlan, build_shard_plan, build_view_tree

__all__ = [
    "ShardedEngine",
    "ShardBackend",
    "ShardWorker",
    "available_backends",
    "resolve_backend",
    "pairwise_fold",
]

BACKENDS = ("serial", "process")


def available_backends() -> Tuple[str, ...]:
    """Backends usable on this platform (``process`` needs ``fork``)."""
    if "fork" in multiprocessing.get_all_start_methods():
        return BACKENDS
    return ("serial",)


def resolve_backend(backend: str, shards: int) -> str:
    """Resolve ``"auto"`` and validate an explicit choice."""
    if backend == "auto":
        if shards > 1 and "process" in available_backends():
            return "process"
        return "serial"
    if backend not in BACKENDS:
        raise EngineError(
            f"unknown shard backend {backend!r}; expected one of "
            f"{('auto',) + BACKENDS}"
        )
    if backend == "process" and "process" not in available_backends():
        raise EngineError(
            "the process backend needs the fork start method "
            "(unavailable on this platform); use backend='serial'"
        )
    return backend


# ----------------------------------------------------------------------
# Pairwise merging — one fold structure for both backends
# ----------------------------------------------------------------------


def pairwise_fold(parts: List[Any], combine: Callable[[Any, Any], Any]) -> Any:
    """Fold ``parts`` pairwise: adjacent pairs combine, odd tails pass up.

    The reduction order depends on the shard count only — never on
    which backend produced the parts or the order replies arrived in —
    which is what makes serial and process results bit-identical for
    floating-point rings. ``combine`` may mutate and return its left
    argument; callers own the leaf copies.
    """
    if not parts:
        return None
    while len(parts) > 1:
        folded = []
        for i in range(0, len(parts) - 1, 2):
            folded.append(combine(parts[i], parts[i + 1]))
        if len(parts) % 2:
            folded.append(parts[-1])
        parts = folded
    return parts[0]


def _merge_root_pair(left: Dict, right: Dict, key, ring) -> Dict:
    """Ring-add two root-view dicts (mutates and returns ``left``)."""
    mine = Relation(key, ring)
    mine.data = left
    theirs = Relation(key, ring)
    theirs.data = right
    mine.add_inplace(theirs)
    return mine.data


def _merge_root_states(parts: List[Dict], key, ring) -> Dict:
    """Pairwise ring-sum of per-shard root-view dicts (leaf copies)."""
    return pairwise_fold(
        [dict(part) for part in parts],
        lambda a, b: _merge_root_pair(a, b, key, ring),
    ) or {}


def _merge_views_pair(left, right, keys, ring, broadcast_views) -> Dict:
    """Merge two per-shard ``{view name -> data}`` maps view by view.

    Views over broadcast relations only are identical replicas — the
    lower shard's copy is kept instead of summed (summing would
    double-count). Mutates and returns ``left``.
    """
    for name, data in left.items():
        if name in broadcast_views:
            continue
        left[name] = _merge_root_pair(data, right[name], keys[name], ring)
    return left


def _merge_view_states(parts, keys, ring, broadcast_views) -> Dict[str, Dict]:
    """Pairwise merge of per-shard view-snapshot maps (leaf copies)."""
    return pairwise_fold(
        [{name: dict(data) for name, data in part.items()} for part in parts],
        lambda a, b: _merge_views_pair(a, b, keys, ring, broadcast_views),
    ) or {}


# ----------------------------------------------------------------------
# The shard worker — one op dispatch, whichever backend drives it
# ----------------------------------------------------------------------


class ShardWorker:
    """One shard: its engine, its parked failure, its op dispatch.

    :meth:`handle` takes one coordinator message and returns the reply
    to send back, or ``None`` for the fire-and-forget ops. Every
    synchronous reply is ``("ok", payload)`` or ``("error", message)``.
    ``apply``, ``observe`` and ``advance`` never reply, so a failure in
    one is *parked*: later applies are dropped (not half-applied on top
    of a broken state) and every synchronous op answers with the parked
    error until the coordinator replaces the worker.

    The deterministic fault sites ``worker.apply`` / ``worker.observe`` /
    ``worker.advance`` / ``worker.reply`` fire here and nowhere else, so a fault spec means
    the same thing on both backends. ``kill`` is how a ``"kill"`` spec
    dies: a forked worker passes :func:`~repro.testing.faults.exit_worker`;
    in-process it is ``None`` and the spec raises
    :class:`~repro.testing.faults.InjectedWorkerDeath`, which
    :meth:`handle` lets through for the loopback channel to act on.
    """

    def __init__(self, engine, shard=-1, incarnation=0, kill=None):
        self.engine = engine
        self.schemas = {
            name: engine.query.schema_of(name).attributes
            for name in engine.query.relation_names
        }
        self.shard = shard
        self.incarnation = incarnation
        self.kill = kill
        self.failure: Optional[str] = None
        self.stopped = False

    @classmethod
    def boot(cls, factory, database, state, **identity):
        """Build the engine, seeded from ``state`` (checkpoint restore /
        recovery) when given, else from ``database``. Returns
        ``(worker, ready reply)``; the worker is ``None`` when the seed
        did not load and the reply says why."""
        try:
            engine = factory()
            if state is not None:
                engine.import_state(state)
            else:
                engine.initialize(database)
            return cls(engine, **identity), ("ok", "ready")
        except Exception as exc:
            return None, ("error", f"shard initialization failed: {exc!r}")

    def handle(self, message) -> Optional[Tuple[str, Any]]:
        op = message[0]
        if op == "stop":
            self.stopped = True
            return None
        replies = op not in ("apply", "advance", "observe")
        engine = self.engine
        try:
            if self.failure is None and _faults.current_injector() is not None:
                # No-ops without an injector: a "kill" spec dies the way
                # a crashed worker dies, a "raise" spec is parked below.
                site = "worker.reply" if replies else f"worker.{op}"
                _faults.fire(
                    site, op=op, shard=self.shard,
                    incarnation=self.incarnation, kill=self.kill,
                )
            if self.failure is not None:
                return ("error", self.failure) if replies else None
            if op == "apply":
                # Rebuild the dict delta once here; the columnar form
                # stays attached, so the engine's fused path reuses it
                # without re-deriving.
                relation_name, columns, counts = message[1:]
                delta = ColumnarDelta(
                    self.schemas[relation_name], counts, columns=columns,
                    name=relation_name,
                ).to_relation()
                engine.apply(relation_name, delta)
            elif op == "observe":
                # The relations of a coalesced batch, ahead of their
                # slices: F-IVM then keeps the views any of them probes.
                engine._before_many(message[1])
            elif op == "advance":
                # Channels are FIFO, so the tick lands after every delta
                # routed before it — all shards advance their decay
                # clocks in lockstep.
                engine.advance_decay(message[1])
            elif op == "result":
                return "ok", engine.result().data
            elif op == "ping":
                return "ok", "pong"
            elif op == "stats":
                return "ok", engine.stats.snapshot()
            elif op == "memory":
                return "ok", engine.memory_report()
            elif op == "export":
                return "ok", engine.export_state()
            else:
                return "error", f"unknown op {op!r}"
        except _faults.InjectedWorkerDeath:
            raise
        except Exception as exc:
            self.failure = f"shard worker failed on {op!r}: {exc!r}"
            if replies:
                return "error", self.failure
        return None


class _Loopback:
    """The serial backend's channel: a pipe-shaped call into a worker.

    ``send`` runs :meth:`ShardWorker.handle` inline and queues its reply
    for ``recv``. A worker that is gone — never booted, stopped, closed,
    or killed by an injected fault — behaves like the far end of a dead
    process's pipe: sends raise ``BrokenPipeError``, receives ``EOFError``.
    """

    def __init__(self, worker: Optional[ShardWorker], ready):
        self.worker = worker
        self.replies = collections.deque([ready])

    def send(self, message) -> None:
        worker = self.worker
        if worker is None:
            raise BrokenPipeError("in-process shard worker is gone")
        try:
            reply = worker.handle(message)
        except _faults.InjectedWorkerDeath:
            # Died mid-message, like a process would: the send itself
            # went through, the reply never comes.
            self.worker = None
            return
        if worker.stopped:
            self.worker = None
        if reply is not None:
            self.replies.append(reply)

    def poll(self, timeout: float = 0.0) -> bool:
        return bool(self.replies)

    def recv(self):
        if not self.replies:
            raise EOFError
        return self.replies.popleft()

    def close(self) -> None:
        self.worker = None


def _worker_main(conn, inherited, factory, database, state, shard, incarnation):
    """A forked worker: boot the engine, then serve the coordinator's pipe.

    ``inherited`` holds the coordinator-side pipe ends this fork copied;
    they are closed immediately so that a dying coordinator delivers EOF
    to every worker (a worker holding a duplicate of its own upstream
    end would otherwise block on ``recv`` forever).
    """
    for other in inherited:
        try:
            other.close()
        except OSError:  # pragma: no cover - already closed
            pass
    worker, ready = ShardWorker.boot(
        factory, database, state,
        shard=shard, incarnation=incarnation, kill=_faults.exit_worker,
    )
    conn.send(ready)
    while worker is not None and not worker.stopped:
        try:
            message = conn.recv()
        except EOFError:
            break
        reply = worker.handle(message)
        if reply is not None:
            conn.send(reply)
    conn.close()


# ----------------------------------------------------------------------
# Backends — how the coordinator reaches its workers
# ----------------------------------------------------------------------


class ShardBackend:
    """A set of shard workers behind one channel each.

    Shards are seeded either from per-shard ``databases`` (initialize)
    or from per-shard ``states`` (checkpoint restore) — exactly one of
    the two. The protocol is strictly one reply per synchronous request,
    so a gather *always* drains every fanned-out reply — even when a
    shard reports an error — or the next gather would read the stale
    replies of the previous op and silently return results for the
    wrong request.

    Nothing here raises for a shard's failure: sends and gathers *mark*
    the shard (``failures``, plus ``dead_shards`` when the worker is gone
    or hung and its channel cannot be realigned) and carry on with the
    others. What happens to marked shards — heal
    or fail-stop — is the coordinator's call
    (:meth:`ShardedEngine._settle`). A closed backend refuses every
    operation with the same descriptive :class:`EngineError` instead of
    dying on its emptied channel list.

    Subclasses supply what differs between in-process and forked
    workers: :meth:`_spawn`, :meth:`_retire`, :meth:`_alive`,
    :meth:`_reap` and :meth:`kill_callable`.
    """

    name = "abstract"

    def __init__(
        self,
        factory: Callable[[], MaintenanceEngine],
        databases: Optional[List[Database]] = None,
        states: Optional[List[dict]] = None,
        heartbeat_timeout: Optional[float] = None,
    ):
        if (databases is None) == (states is None):
            raise EngineError(
                "shard backend needs either databases or states, not both"
            )
        self.closed = False
        #: ``None`` blocks on replies; a number polls, so that a worker
        #: that died without closing its pipe end, or hangs longer than
        #: this, is reported instead of blocking the coordinator forever.
        self.heartbeat_timeout = heartbeat_timeout
        #: shard -> why it is marked failed.
        self.failures: Dict[int, str] = {}
        self.dead_shards: set = set()
        self._factory = factory
        if states is None:
            seeds = [(database, None) for database in databases]
        else:
            seeds = [(None, state) for state in states]
        self.connections: List[Any] = [None] * len(seeds)
        self.incarnations = [0] * len(seeds)
        try:
            for shard, (database, state) in enumerate(seeds):
                self._spawn(shard, database, state)
            for shard in range(len(seeds)):
                self._expect_ready(shard)
        except Exception:
            self.close()
            raise

    # -- what differs per backend ----------------------------------------

    def _spawn(self, shard: int, database, state) -> None:
        """Start ``shard``'s worker and store its channel."""
        raise NotImplementedError

    def _retire(self, shard: int) -> None:
        """Make sure ``shard``'s current worker is gone, channel closed."""
        raise NotImplementedError

    def _alive(self, shard: int) -> bool:
        raise NotImplementedError

    def _reap(self) -> None:
        """Wait for stopped workers to exit (nothing to do in-process)."""

    def kill_callable(self, shard: int) -> Callable[[], None]:
        """A callback that kills ``shard``'s worker, for the
        coordinator-side fault injection sites."""
        raise NotImplementedError

    # -- failure bookkeeping ---------------------------------------------

    def _require_open(self) -> None:
        if self.closed:
            raise EngineError(
                "shard backend is closed; initialize() (or import_state()) "
                "the engine again before using it"
            )

    def mark_failed(self, shard: int, message: str, dead: bool = False) -> None:
        self.failures[shard] = message
        if dead:
            self.dead_shards.add(shard)

    def clear_failed(self, shard: int) -> None:
        self.dead_shards.discard(shard)
        self.failures.pop(shard, None)

    def failure_summary(self) -> str:
        return "; ".join(self.failures[shard] for shard in sorted(self.failures))

    # -- the wire ----------------------------------------------------------

    def post(self, shard: int, message: Tuple, site: str) -> bool:
        """Send one message to one shard; ``False`` if it did not go out.

        ``site`` is the coordinator-side fault site fired first
        (``coordinator.send`` for applies and ticks, ``coordinator.gather``
        for synchronous requests). A shard the message could not reach is
        marked failed — it has missed work, or will not answer.
        """
        self._require_open()
        try:
            if _faults.current_injector() is not None:
                _faults.fire(
                    site, op=message[0], shard=shard,
                    incarnation=self.incarnations[shard],
                    kill=self.kill_callable(shard),
                )
            self.connections[shard].send(message)
            return True
        except _faults.InjectedFault as exc:
            self.mark_failed(shard, f"shard {shard}: {exc}")
        except (BrokenPipeError, OSError) as exc:
            self.mark_failed(
                shard, f"shard {shard} worker is gone: {exc!r}", dead=True
            )
        return False

    def gather(self, op: str, shards: Optional[Sequence[int]] = None) -> List[Any]:
        """Fan ``op`` out to ``shards`` (default: all), then fan every
        reply back in; returns payloads by shard index (``None`` where a
        shard was not asked or failed).

        Error replies (a parked apply failure, an op that raised) do not
        stop the fan-in: the remaining replies are drained first so the
        channels stay request/reply aligned. The backend stays usable
        after a drained error; a worker that died or hung mid-gather is
        marked dead.
        """
        self._require_open()
        if shards is None:
            shards = range(len(self.connections))
        sent = [
            shard for shard in shards
            if self.post(shard, (op,), "coordinator.gather")
        ]
        results: List[Any] = [None] * len(self.connections)
        for shard in sent:
            try:
                status, payload = self._receive(shard)
            except EngineError as exc:
                self.mark_failed(shard, str(exc), dead=True)
                continue
            if status == "ok":
                results[shard] = payload
            else:
                self.mark_failed(shard, f"shard {shard}: {payload}")
        return results

    def _receive(self, shard: int) -> Tuple[str, Any]:
        """One raw ``(status, payload)`` reply; EOF means the worker died."""
        conn = self.connections[shard]
        timeout = self.heartbeat_timeout
        try:
            if timeout is None:
                return conn.recv()
            deadline = time.monotonic() + timeout
            while not conn.poll(0.02):
                if not self._alive(shard):
                    # Take a reply that raced the worker's exit.
                    if conn.poll(0):
                        break
                    raise EOFError
                if time.monotonic() > deadline:
                    raise EngineError(
                        f"shard {shard} worker unresponsive: no reply "
                        f"within the heartbeat timeout ({timeout:g}s)"
                    )
            return conn.recv()
        except (EOFError, OSError):
            # A SIGKILLed worker surfaces as EOFError or a reset/broken
            # pipe (OSError) depending on how much it had buffered.
            raise EngineError(
                f"shard {shard} worker died without replying"
            ) from None

    def _expect_ready(self, shard: int) -> None:
        status, payload = self._receive(shard)
        if status != "ok":
            raise EngineError(f"shard {shard}: {payload}")

    def respawn(self, shard: int, state: dict) -> None:
        """Replace ``shard``'s worker with a fresh one seeded from
        ``state`` (a re-partitioned baseline slice). The old worker may
        be hung rather than dead; either way nothing of it survives."""
        self._require_open()
        self._retire(shard)
        self.incarnations[shard] += 1
        self._spawn(shard, None, state)
        self._expect_ready(shard)
        # The fresh worker is healthy until proven otherwise; replay
        # failures re-mark it.
        self.clear_failed(shard)

    def close(self) -> None:
        channels = [conn for conn in self.connections if conn is not None]
        for conn in channels:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        self._reap()
        for conn in channels:
            conn.close()
        self.connections = []
        self.closed = True


class _SerialBackend(ShardBackend):
    """Every shard worker lives in the coordinator process, reached
    through a :class:`_Loopback`. A worker that raises an injected death
    plays the role of a crashed process: its channel goes dead and
    :meth:`respawn` rebuilds it from a state slice — the exact recovery
    path the process backend exercises, minus the fork."""

    name = "serial"

    def _spawn(self, shard, database, state) -> None:
        worker, ready = ShardWorker.boot(
            self._factory, database, state,
            shard=shard, incarnation=self.incarnations[shard],
        )
        self.connections[shard] = _Loopback(worker, ready)

    def _retire(self, shard: int) -> None:
        self.connections[shard].close()

    def _alive(self, shard: int) -> bool:
        return self.connections[shard].worker is not None

    def kill_callable(self, shard: int) -> Callable[[], None]:
        return self.connections[shard].close


class _ProcessBackend(ShardBackend):
    """One forked worker process per shard, one duplex pipe each."""

    name = "process"

    def __init__(self, *args, **kwargs):
        self._context = multiprocessing.get_context("fork")
        #: shard -> its current worker process.
        self.processes: Dict[int, Any] = {}
        super().__init__(*args, **kwargs)

    def _spawn(self, shard, database, state) -> None:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        inherited = [
            conn for index, conn in enumerate(self.connections)
            if index != shard and conn is not None
        ]
        process = self._context.Process(
            target=_worker_main,
            args=(
                child_conn, (*inherited, parent_conn), self._factory,
                database, state, shard, self.incarnations[shard],
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.connections[shard] = parent_conn
        self.processes[shard] = process

    def _retire(self, shard: int) -> None:
        process = self.processes[shard]
        if process.is_alive():
            process.kill()
        process.join(timeout=5.0)
        try:
            self.connections[shard].close()
        except OSError:  # pragma: no cover - already closed
            pass

    def _alive(self, shard: int) -> bool:
        return self.processes[shard].is_alive()

    def _reap(self) -> None:
        for process in self.processes.values():
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=1.0)
        self.processes = {}

    def kill_callable(self, shard: int) -> Callable[[], None]:
        return _faults.kill_process(self.processes[shard].pid)


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------


class ShardedEngine(MaintenanceEngine):
    """Coordinator over ``shards`` F-IVM engines, each owning a slice.

    Parameters
    ----------
    query, order:
        As for :class:`~repro.engine.fivm.FIVMEngine`; every shard builds
        the same tree over its partition.
    config:
        An :class:`~repro.config.EngineConfig` carrying every tunable —
        shard count, backend, shard attributes, supervision and decay.
        ``None`` means ``EngineConfig(shards=2)``, the engine's
        historical default.

    The coordinator's own ``stats`` count what was routed (batches,
    updates, tuples); per-shard maintenance counters are aggregated on
    demand by :meth:`shard_stats` / :meth:`aggregate_stats`. Use as a
    context manager (or call :meth:`close`) to stop worker processes.
    """

    strategy = "fivm-sharded"

    def __init__(
        self,
        query: Query,
        order: Optional[VariableOrder] = None,
        config: Optional[EngineConfig] = None,
    ):
        super().__init__(query)
        if config is None:
            config = EngineConfig(shards=2)
        elif not isinstance(config, EngineConfig):
            raise EngineError(
                f"ShardedEngine: config must be an EngineConfig, "
                f"got {type(config).__name__}"
            )
        self.config = config
        self.shards = config.shards
        self.order = order
        self.tree = build_view_tree(query, order=order)
        self.shard_plan: ShardPlan = build_shard_plan(
            self.tree, attrs=config.shard_attrs
        )
        schemas = {
            name: query.schema_of(name).attributes
            for name in query.relation_names
        }
        self.router = ShardRouter(schemas, self.shard_plan.attrs, self.shards)
        if set(self.router.routed) != set(self.shard_plan.routed):
            # Both derive "contains all shard attrs" independently; if the
            # criteria ever diverge, fail loudly rather than route deltas
            # differently from what the plan (and describe()) reports.
            raise EngineError(
                f"shard plan routed {self.shard_plan.routed!r} but the "
                f"router derived {self.router.routed!r}"
            )
        self.backend_name = resolve_backend(config.backend, self.shards)
        #: Views whose subtree touches broadcast relations only — exact
        #: replicas on every shard, copied (not summed) by every merge.
        view_relations = self._view_relations()
        broadcast = set(self.router.broadcast)
        self._broadcast_only_views = tuple(sorted(
            name for name in self.tree.views
            if view_relations[name] <= broadcast
        ))
        self._backend = None
        self._was_closed = False
        #: Self-healing state (None when ``config.supervise`` is off):
        #: baseline snapshot + replay log + recovery budget. See
        #: :mod:`repro.engine.supervisor`.
        self.supervisor: Optional[WorkerSupervisor] = (
            WorkerSupervisor(config.replay_log_limit, config.heartbeat_timeout)
            if config.supervise else None
        )

    # ------------------------------------------------------------------

    def _engine_factory(self) -> Callable[[], FIVMEngine]:
        # Capture plain locals (not self): the closure crosses the fork
        # boundary into every worker process.
        query, order = self.query, self.order
        # Every shard runs the same decay clock; the coordinator
        # broadcasts ticks so they stay in lockstep.
        shard_config = EngineConfig(decay=self.config.decay)

        def factory() -> FIVMEngine:
            return FIVMEngine(query, order=order, config=shard_config)

        return factory

    @property
    def transport_name(self) -> str:
        """What carries a routed delta: a label derived from the backend
        (reports key on it), not a choice."""
        return "pipe" if self.backend_name == "process" else "none"

    def _make_backend(self, **seeds) -> None:
        backend = (
            _ProcessBackend if self.backend_name == "process"
            else _SerialBackend
        )
        # Only a supervised engine can do anything about a hung worker,
        # so only it polls for replies against the heartbeat.
        supervised = self.supervisor is not None
        self._backend = backend(
            self._engine_factory(),
            heartbeat_timeout=(
                self.config.heartbeat_timeout if supervised else None
            ),
            **seeds,
        )
        self._was_closed = False

    def initialize(self, database: Database) -> None:
        self.close()
        self._make_backend(databases=self.router.partition_database(database))
        self.stats = EngineStatistics()
        self._initialized = True
        self._refresh_view_sizes()
        if self.supervisor is not None:
            # Capture the recovery baseline: the same global normal form
            # checkpoints export (the export_state override feeds it to
            # the supervisor, and every later export refreshes it).
            self.export_state()

    def apply(self, relation_name: str, delta: Relation) -> None:
        """Route one delta to its shards (fire-and-forget).

        A supervised engine first records the batch into the replay log
        *pre-split* (one shallow dict copy). A shard that fails mid-batch
        is rebuilt from baseline + log, which re-delivers this very batch
        through the same deterministic router split, so the recovered
        shard sees exactly the sub-deltas it missed and the root view
        stays bit-identical.
        """
        self._require_initialized()
        self._check_delta(relation_name, delta)
        if not delta.data:
            return
        supervisor = self.supervisor
        if supervisor is not None:
            if supervisor.needs_rebase():
                # The log outgrew its bound: refresh the baseline (one
                # export gather, which truncates the log as a side effect).
                self.export_state()
            supervisor.record_delta(relation_name, delta.data)
        self.stats.record_batch(delta)
        self._route(relation_name, delta)
        self._settle()

    def _before_many(self, relation_names) -> None:
        # Every shard hears the whole batch's relations before its first
        # slice, as an unsharded engine's apply_many would.
        if relation_names:
            self._require_initialized()
            self._observe(relation_names)
            self._settle()

    def _observe(self, relation_names, only: Optional[int] = None) -> None:
        """Tell the shards (``only`` that one, in a replay) which
        relations the deltas that follow update (fire-and-forget)."""
        message = ("observe", tuple(relation_names))
        for shard in range(self.shards) if only is None else (only,):
            self._backend.post(shard, message, "coordinator.send")

    def _route(
        self, relation_name: str, delta: Relation, only: Optional[int] = None
    ) -> None:
        """Split ``delta`` and send each shard its slice (``only`` that
        shard's, when recovery replays the log to one worker).

        Routing reads the shard-attribute *columns* and the wire carries
        columns too — homogeneous lists that pickle without a tuple
        object per key — so no per-shard key-tuple dict is built on the
        coordinator.
        """
        backend = self._backend
        for shard, sub in self.router.split_columnar(
            relation_name, delta.columnar()
        ):
            if only is None or shard == only:
                _schema, columns, counts = sub.transport()
                backend.post(
                    shard, ("apply", relation_name, columns, counts),
                    "coordinator.send",
                )

    def result(self) -> Relation:
        """Ring-additive merge of the per-shard root views.

        Shard keys never collide for views keyed below the shard
        attributes, and where they do collide (e.g. the empty root key of
        a full aggregate) the ring's addition combines them — the same
        operation maintenance itself uses, so the merged result is
        exactly the unsharded engine's. The fold structure is
        :func:`pairwise_fold`, so the bits match across backends.
        """
        self._require_initialized()
        root = self.tree.root
        ring = self.tree.plan.ring
        merged = Relation(root.key, ring, name=root.name)
        merged.data = _merge_root_states(
            self._gather("result"), root.key, ring
        )
        return merged

    # ------------------------------------------------------------------
    # Serving: merge-on-publish
    # ------------------------------------------------------------------

    def publish(
        self,
        event_offset: Optional[int] = None,
        window: Optional[Tuple[int, int]] = None,
    ):
        """Publish the ring-additive merge of the per-shard root views.

        Merge-on-publish: the gather in :meth:`result` is the
        synchronization barrier that waits for all in-flight
        fire-and-forget applies, so the published snapshot covers every
        delta routed before this call — the same consistency the
        unsharded engine gets for free.

        Failure paths carry the PR-4 hardening into serving: a closed
        engine raises the descriptive closed error, and a worker that
        died or failed mid-merge surfaces as an :class:`EngineError`
        naming the shard, wrapped with publish context instead of a bare
        pipe error — no torn snapshot is ever swapped in (the store only
        updates after a successful merge).
        """
        self._require_initialized()
        try:
            return super().publish(event_offset=event_offset, window=window)
        except SupervisionError:
            raise
        except EngineError as exc:
            raise EngineError(f"publish failed: {exc}") from None

    # ------------------------------------------------------------------
    # Decay (exponential forgetting)
    # ------------------------------------------------------------------

    def _decay_interval(self) -> int:
        spec = self.config.decay_spec()
        return spec.every if spec is not None else 0

    def advance_decay(self, ticks: int = 1) -> None:
        """Broadcast a decay tick to every shard (lockstep clocks).

        Fire-and-forget like applies: the next synchronous gather
        (``result``/``publish``/``export_state``) is the barrier that
        guarantees every shard observed the tick. Supervised engines log
        the tick (replayed in stream order during recovery, so a rebuilt
        shard's decay clock lands on the same value).
        """
        if self.config.decay is None:
            super().advance_decay(ticks)
        self._require_initialized()
        if self.supervisor is not None:
            self.supervisor.record_advance(ticks)
        self.stats.decay_ticks += ticks
        backend = self._backend
        for shard in range(self.shards):
            backend.post(shard, ("advance", ticks), "coordinator.send")
        self._settle()

    # ------------------------------------------------------------------

    def shard_stats(self) -> List[Dict[str, int]]:
        """Per-shard maintenance counter snapshots, in shard order."""
        self._require_initialized()
        return self._gather("stats")

    def aggregate_stats(self) -> Dict[str, int]:
        """Summed per-shard counters (``view:*`` entries sum entry counts).

        Also refreshes the coordinator's ``stats.view_sizes`` so memory
        accounting reflects the shards' current materializations.
        """
        totals: Dict[str, int] = {}
        for snapshot in self.shard_stats():
            for key, value in snapshot.items():
                if key.startswith("decay_"):
                    # Shards tick in lockstep, so summing would report
                    # shards x the logical clock; the max is the truth.
                    totals[key] = max(totals.get(key, 0), int(value))
                else:
                    totals[key] = totals.get(key, 0) + int(value)
        self.stats.view_sizes = {
            key[len("view:"):]: value
            for key, value in totals.items()
            if key.startswith("view:")
        }
        return totals

    def memory_report(self) -> Dict[str, Dict[str, Any]]:
        """Per-view totals across shards (entries, payload weight, indexes);
        a view's ``support`` is the same on every shard and kept as is,
        and it counts as ``stored`` when some shard stores it (each shard
        drops views by the relations *it* has observed)."""
        self._require_initialized()
        merged: Dict[str, Dict[str, Any]] = {}
        for report in self._gather("memory"):
            for view_name, entry in report.items():
                target = merged.setdefault(view_name, {})
                for field, value in entry.items():
                    if field == "support":
                        target[field] = value
                    elif field == "stored":
                        target[field] = target.get(field, False) or value
                    else:
                        target[field] = target.get(field, 0) + int(value)
        return merged

    def total_view_tuples(self) -> int:
        return sum(
            entry.get("entries", 0) for entry in self.memory_report().values()
        )

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop shard workers (idempotent); the engine needs
        :meth:`initialize` (or :meth:`import_state`) again afterwards."""
        if self._backend is not None:
            self._backend.close()
            self._backend = None
            self._was_closed = True
        self._initialized = False

    def _require_initialized(self) -> None:
        if not self._initialized and self._was_closed:
            raise EngineError(
                "ShardedEngine is closed; call initialize() or "
                "import_state() to reopen it"
            )
        super()._require_initialized()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter shutdown order
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    #: Sharded snapshots are written in the *global* normal form — the
    #: same "views" payload a plain FIVMEngine over the whole database
    #: would export — so FIVM and sharded engines of any shard count
    #: restore each other's checkpoints.
    state_payload = "views"

    def config_provenance(self) -> Dict[str, Any]:
        """The config recorded into exports, with the backend resolved
        to what actually ran (``"auto"`` would say nothing)."""
        data = self.config.to_dict()
        data["backend"] = self.backend_name
        return data

    def _export_payload(self) -> dict:
        """Gather per-shard view snapshots and merge them ring-additively.

        Views whose subtree touches a routed relation partition (or sum)
        across shards, so their per-shard copies combine with the ring's
        addition — multilinearity of the join makes the merged view equal
        the unsharded engine's, the same argument behind :meth:`result`.
        Views over broadcast relations only are replicated identically on
        every shard, so one copy is taken instead of a sum.

        Worker failures during the gather surface with export context
        (same hardening as :meth:`publish`): the pipes are drained and
        realigned by the backend, and the error names the failed shard.
        """
        try:
            states = self._gather("export")
        except SupervisionError:
            raise
        except EngineError as exc:
            raise EngineError(f"export_state failed: {exc}") from None
        ring = self.tree.plan.ring
        keys = {name: node.key for name, node in self.tree.views.items()}
        views = _merge_view_states(
            [state["views"] for state in states],
            keys, ring, set(self._broadcast_only_views),
        )
        return {"views": views, "source_shards": self.shards}

    def _import_payload(self, state) -> None:
        """Restore a "views" snapshot, re-partitioned to this shard count.

        The snapshot's global views are split through the shard router:
        views keyed on all shard attributes hash-partition entry by entry
        (every base tuple contributing to an entry shares the entry's
        shard-attribute values, so the entry belongs to exactly one
        shard); views over broadcast relations only are replicated; the
        remaining views — aggregates *above* the shard attributes, e.g.
        the root — are recomputed per shard from their already-partitioned
        children, which is exact by definition of the view tree. A
        checkpoint written at N shards therefore restores at any M
        (including M=1 and into a plain FIVMEngine) with results
        identical to uninterrupted ingestion.
        """
        views = state["views"]
        missing = set(self.tree.views) - set(views)
        unexpected = set(views) - set(self.tree.views)
        if missing or unexpected:
            raise EngineError(
                f"snapshot does not match the view tree "
                f"(missing={sorted(missing)}, unexpected={sorted(unexpected)})"
            )
        shard_states = self._shard_states_from_views(views)
        self.close()
        self._make_backend(states=shard_states)
        if self.supervisor is not None:
            # The restored snapshot is the recovery baseline until the
            # next export refreshes it.
            self.supervisor.accept_baseline(views)

    def _shard_states_from_views(self, views: Dict[str, Dict]) -> List[dict]:
        """Per-shard importable state dicts from a global views snapshot."""
        shard_views = self._partition_views(views)
        header = {
            "format_version": self.STATE_FORMAT_VERSION,
            "payload": FIVMEngine.state_payload,
            "strategy": FIVMEngine.strategy,
            "query": self.query.name,
        }
        return [
            # Per-shard maintenance counters restart at zero; the
            # coordinator's restored stats carry the logical stream totals.
            dict(header, views=per_shard, stats={})
            for per_shard in shard_views
        ]

    def export_state(self) -> Dict[str, Any]:
        state = super().export_state()
        if self.supervisor is not None:
            # Every export is a fresh recovery baseline: the replay log
            # restarts empty, so checkpoints double as log truncation.
            self.supervisor.accept_baseline(state["views"])
        return state

    def _after_restore(self) -> None:
        self._refresh_view_sizes()

    # ------------------------------------------------------------------
    # Supervision: recovery
    # ------------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """Engine liveness plus supervisor recovery statistics."""
        report = super().health()
        if self.supervisor is not None:
            report["supervised"] = True
            report.update(self.supervisor.health())
            backend = self._backend
            if backend is not None and backend.failures:
                report["status"] = "recovering"
                report["failed_shards"] = sorted(backend.failures)
        return report

    def _gather(self, op: str) -> List[Any]:
        """The one fan-out/fan-in: ask every shard for ``op``, settle
        whatever failed, and go again if the failed shards were healed.

        Gathers are read-only, so a retry is idempotent; the recovery
        budget inside :meth:`_recover` bounds the loop.
        """
        while True:
            parts = self._backend.gather(op)
            if not self._settle():
                return parts

    def _settle(self) -> bool:
        """Deal with the shards the last send loop or gather marked
        failed — the one place that asks whether the engine is supervised.

        Supervised: heal them (baseline + replay log) and return ``True``
        so a gather retries. Unsupervised: surface every failure as one
        joined :class:`EngineError`. A parked failure leaves the backend
        usable (the worker repeats it at the next gather); a worker that
        died or hung cannot be realigned with its pipe, so the backend is
        closed first and later calls raise the closed error.
        """
        backend = self._backend
        if not backend.failures:
            return False
        if self.supervisor is not None:
            self._recover()
            return True
        message = backend.failure_summary()
        if backend.dead_shards:
            backend.close()
        else:
            backend.failures.clear()
        raise EngineError(message)

    def _recover(self) -> None:
        """Rebuild every failed shard: respawn from the re-partitioned
        baseline, replay the post-baseline log, rejoin the fleet.

        Runs under the supervisor's budget: each round of recoveries
        counts toward ``MAX_CONSECUTIVE_RECOVERIES`` (with exponential
        backoff between rounds) and a blown budget closes the engine and
        raises :class:`SupervisionError` — fail-stop stays the backstop.
        """
        supervisor = self.supervisor
        backend = self._backend
        while backend.failures:
            failed = sorted(backend.failures)
            started = time.monotonic()
            try:
                supervisor.begin_recovery(failed, backend.failure_summary())
            except SupervisionError:
                self.close()
                raise
            success = True
            try:
                shard_states = self._shard_states_from_views(
                    supervisor.baseline_views()
                )
                for shard in failed:
                    try:
                        backend.respawn(shard, state=shard_states[shard])
                        self._replay_shard(shard)
                    except EngineError as exc:
                        backend.mark_failed(
                            shard, f"recovery of shard {shard} failed: {exc}"
                        )
                        success = False
            except SupervisionError:
                supervisor.end_recovery(time.monotonic() - started, False)
                self.close()
                raise
            supervisor.end_recovery(time.monotonic() - started, success)

    def _replay_shard(self, shard: int) -> None:
        """Re-deliver the post-baseline log to a freshly respawned shard.

        Each logged delta is re-split through the deterministic router
        and only ``shard``'s slice is delivered, in the same wire form
        that carried the original. The trailing stats gather is the
        barrier that flushes the fire-and-forget replay queue and
        surfaces any failure the replay parked.
        """
        backend = self._backend
        schemas = self.router.schemas
        entries = self.supervisor.log.entries
        # The restored shard stores every view again; hearing the log's
        # relations first spares it a drop-and-rebuild mid-replay.
        logged = dict.fromkeys(entry[1] for entry in entries if entry[0] == "delta")
        if logged:
            self._observe(logged, only=shard)
        for entry in entries:
            if entry[0] == "advance":
                backend.post(shard, ("advance", entry[1]), "coordinator.send")
                continue
            _kind, name, data = entry
            delta = Relation(schemas[name], name=name)
            delta.data = data
            self._route(name, delta, only=shard)
        backend.gather("stats", (shard,))
        if shard in backend.failures:
            raise EngineError(backend.failures[shard])

    def _view_relations(self) -> Dict[str, set]:
        """``view name -> base relations in its subtree`` (bottom-up)."""
        relations: Dict[str, set] = {}
        for node in self.tree.all_views():
            covered = set()
            if node.relation is not None:
                covered.add(node.relation)
            for child in node.children:
                covered |= relations[child.name]
            relations[node.name] = covered
        return relations

    def _partition_views(self, views: Dict[str, Dict]) -> List[Dict[str, Dict]]:
        """Split global view materializations into per-shard slices."""
        ring = self.tree.plan.ring
        attrs = self.router.attrs
        broadcast_only = set(self._broadcast_only_views)
        per_shard: List[Dict[str, Dict]] = [{} for _ in range(self.shards)]
        for node in self.tree.all_views():  # children before parents
            name = node.name
            data = views[name]
            if name in broadcast_only:
                # Identical replica on every shard (and a copy per shard:
                # workers mutate their views independently afterwards).
                for shard in range(self.shards):
                    per_shard[shard][name] = dict(data)
            elif set(attrs) <= set(node.key):
                positions = tuple(node.key.index(attr) for attr in attrs)
                buckets: List[Dict] = [{} for _ in range(self.shards)]
                if self.shards == 1:
                    buckets[0] = dict(data)
                else:
                    shards = self.shards
                    for key, payload in data.items():
                        hook = tuple(key[i] for i in positions)
                        buckets[shard_hash(hook) % shards][key] = payload
                for shard in range(self.shards):
                    per_shard[shard][name] = buckets[shard]
            elif node.is_leaf:  # pragma: no cover - defensive
                # Unreachable for valid shard plans: a routed relation
                # contains every shard attribute, and shard attributes are
                # order variables, hence part of the leaf key.
                raise EngineError(
                    f"cannot re-partition snapshot: leaf view {name!r} of "
                    f"routed relation {node.relation!r} lacks shard "
                    f"attributes {attrs!r} in its key {node.key!r}"
                )
            else:
                # The shard attributes were marginalized at or below this
                # node, so per-shard values are not determined by the key.
                # Recompute from the already-partitioned children — the
                # same join+marginalize step evaluation uses, exact per
                # shard and cheap: these views sit at/above the shard
                # variable, the smallest materializations of the tree.
                for shard in range(self.shards):
                    children = {}
                    for child in node.children:
                        relation = children[child.name] = Relation(child.key, ring)
                        relation.data = per_shard[shard][child.name]
                    per_shard[shard][name] = evaluate_view(
                        self.tree, node, {}, stored=children
                    ).data
        return per_shard

    # ------------------------------------------------------------------

    def _refresh_view_sizes(self) -> None:
        try:
            self.aggregate_stats()
        except EngineError:  # pragma: no cover - defensive
            pass

    def describe(self) -> str:
        """One-line summary for benchmark tables and logs."""
        cores = os.cpu_count() or 1
        return (
            f"{self.strategy} x{self.shards} ({self.backend_name}, "
            f"hash on {'/'.join(self.shard_plan.attrs)}, "
            f"routed={len(self.shard_plan.routed)}, "
            f"broadcast={len(self.shard_plan.broadcast)}, {cores} cores)"
        )
