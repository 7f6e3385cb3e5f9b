"""Sharded multi-core ingestion: one F-IVM engine per worker process.

The paper's C++ system sustains high update rates with compiled triggers;
a pure-Python reproduction is bounded by the interpreter on one core.
:class:`ShardedEngine` recovers throughput by horizontal partitioning:
the coordinator hash-routes every delta on the shard attributes a
:class:`~repro.viewtree.builder.ShardPlan` derives from the view tree,
each shard runs a full :class:`~repro.engine.fivm.FIVMEngine` over its
slice of the database, and the query result is the ring-sum of the
per-shard root views (multilinearity of the join makes that exact — see
:mod:`repro.data.sharding`).

Two backends extend one :class:`ShardBackend` protocol:

- ``"serial"`` keeps the shard engines in-process. No parallelism, but
  identical routing/merging semantics — this is what the determinism
  tests sweep and the fallback on platforms without ``fork``.
- ``"process"`` forks one worker per shard over a duplex pipe each, with
  the *data plane* delegated to a :class:`~repro.engine.transport`
  implementation selected by :class:`~repro.config.EngineConfig`:

  * ``transport="shm"`` (the default where available) moves payload
    bytes through per-shard shared-memory rings — the pipes carry only
    control messages (op, buffer generation, block layout) — and runs
    ``result()``/``export_state()`` gathers *tree-wise*: workers merge
    pairwise across shards and the coordinator reads one final blob,
    so gather cost grows logarithmically rather than linearly in the
    shard count.
  * ``transport="pipe"`` is the historical wire: deltas pickled through
    the pipe in columnar form, gathers fanned in and merged on the
    coordinator.

  Applies are fire-and-forget either way, so the coordinator routes
  batch *n+1* while workers maintain batch *n*; ``result()`` /
  ``shard_stats()`` / ``memory_report()`` / ``export_state()`` are
  synchronous fan-out/fan-in points. Fork start is required because
  payload plans hold lifting closures that cannot cross a spawn boundary
  — workers inherit the query object instead of unpickling it.

Every merge path — the serial backend, the pipe coordinator and the shm
worker tree — folds per-shard parts in the *same* pairwise structure
(:func:`pairwise_fold`), so all transports produce bit-identical results
for any ring, floating point included.

Checkpoints are shard-count portable: ``export_state`` merges per-shard
view snapshots into the global normal form a plain
:class:`~repro.engine.fivm.FIVMEngine` would export (ring-additivity of
the per-shard views makes the merge exact), and ``import_state``
re-partitions that normal form through the :class:`ShardRouter`, so a
snapshot written at N shards restores at any M — including M=1, a plain
F-IVM engine, and across the serial/process backend switch.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.config import EngineConfig
from repro.data.columnar import ColumnarDelta
from repro.data.database import Database
from repro.data.relation import Relation
from repro.data.sharding import ShardRouter, shard_hash
from repro.engine.base import EngineStatistics, MaintenanceEngine
from repro.engine.fivm import FIVMEngine
from repro.engine.supervisor import WorkerSupervisor
from repro.engine.transport import (
    PipeTransport,
    ShardTransport,
    SharedMemoryTransport,
    _ShmOverflow,
    resolve_transport,
)
from repro.errors import EngineError, SupervisionError
from repro.query.query import Query
from repro.testing import faults as _faults
from repro.query.variable_order import VariableOrder
from repro.viewtree.builder import ShardPlan, build_shard_plan, build_view_tree

__all__ = [
    "ShardedEngine",
    "ShardBackend",
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
# Pairwise merging — one fold structure for every transport
# ----------------------------------------------------------------------


def pairwise_fold(parts: List[Any], combine: Callable[[Any, Any], Any]) -> Any:
    """Fold ``parts`` pairwise: adjacent pairs combine, odd tails pass up.

    This is exactly the reduction order of the shm worker tree (shard
    ``s+step`` merges into shard ``s`` round by round), so folding
    per-shard results with it on the coordinator — as the serial and
    pipe paths do — yields bit-identical floats to the tree merge.
    ``combine`` may mutate and return its left argument; callers own the
    leaf copies.
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
# Backends
# ----------------------------------------------------------------------


class ShardBackend:
    """What the coordinator needs from a set of shard engines.

    Both backends seed their shards either from per-shard ``databases``
    (initialize) or from per-shard ``states`` (checkpoint restore) —
    exactly one of the two — and a closed backend refuses every
    operation with the same descriptive :class:`EngineError` instead of
    dying on its emptied engine/connection lists. Subclasses implement
    ``apply``/``results``/``stats``/``memory``/``export_states``/
    ``close``.
    """

    name = "abstract"

    def __init__(self):
        self.closed = False
        #: Supervision state (set by the coordinator when
        #: ``EngineConfig.supervise`` is on). A supervised backend never
        #: tears itself down on a dead worker: it marks the shard failed
        #: and lets :meth:`ShardedEngine._recover` rebuild it in place.
        self.supervised = False
        self.heartbeat_timeout: Optional[float] = None
        self.failed_shards: set = set()
        self.failures: Dict[int, str] = {}
        self.incarnations: List[int] = []

    @staticmethod
    def _check_seeds(databases, states) -> List:
        if (databases is None) == (states is None):
            raise EngineError(
                "shard backend needs either databases or states, not both"
            )
        return databases if states is None else states

    def _require_open(self) -> None:
        if self.closed:
            raise EngineError(
                "shard backend is closed; initialize() (or import_state()) "
                "the engine again before using it"
            )

    def mark_failed(self, shard: int, message: str) -> None:
        """Park ``shard`` for recovery (supervised mode only)."""
        if self.supervised:
            self.failed_shards.add(shard)
            self.failures[shard] = message

    def clear_failed(self, shard: int) -> None:
        self.failed_shards.discard(shard)
        self.failures.pop(shard, None)

    def kill_callable(self, shard: int) -> Optional[Callable[[], None]]:
        """A callback that kills ``shard``'s worker, for coordinator-side
        fault injection sites; ``None`` when shards are in-process."""
        return None

    def respawn(self, shard: int, state: dict) -> None:
        raise EngineError(
            f"{self.name} backend cannot respawn shard {shard}"
        )  # pragma: no cover - overridden by both backends

    def _raise_gather_errors(self, errors: List[str], dead: bool) -> None:
        """Surface per-shard failures as one joined :class:`EngineError`.

        When a worker died (``dead``) the request/reply alignment cannot
        be recovered, so an *unsupervised* backend tears itself down
        first; a supervised one stays open — the dead shards were marked
        failed and the coordinator respawns them (with a fresh pipe, so
        alignment is moot) before retrying the gather.
        """
        if errors:
            if dead and not self.supervised:
                self.close()
            raise EngineError("; ".join(errors))


class _SerialBackend(ShardBackend):
    """All shard engines live in the coordinator process.

    Under supervision an engine that raises plays the role of a crashed
    worker: the shard is marked failed (the broken engine object is
    dropped) and :meth:`respawn` rebuilds it from a state slice — the
    exact recovery path the process backend exercises, minus the fork.
    The fault-injection hooks fire at the same logical sites as the
    worker-process ones, so the deterministic fault suite runs the whole
    matrix on the serial backend too.
    """

    name = "serial"

    def __init__(
        self,
        factory: Callable[[], MaintenanceEngine],
        databases: Optional[List[Database]] = None,
        states: Optional[List[dict]] = None,
        supervised: bool = False,
        heartbeat_timeout: Optional[float] = None,
    ):
        super().__init__()
        self.supervised = supervised
        self.heartbeat_timeout = heartbeat_timeout
        self._factory = factory
        seeds = self._check_seeds(databases, states)
        self.engines = [factory() for _ in seeds]
        self.incarnations = [0] * len(seeds)
        if states is None:
            for engine, database in zip(self.engines, databases):
                engine.initialize(database)
        else:
            for engine, state in zip(self.engines, states):
                engine.import_state(state)

    def _guard(self, shard: int, op: str, fn: Callable[[], Any]) -> Any:
        """Run one shard-engine op; under supervision any failure marks
        the shard dead — the serial analogue of a crashed worker."""
        if not self.supervised:
            return fn()
        if shard in self.failed_shards:
            raise EngineError(
                f"shard {shard} engine is down: "
                f"{self.failures.get(shard, 'failed')}"
            )
        try:
            return fn()
        except Exception as exc:
            message = f"shard {shard} engine failed on {op!r}: {exc!r}"
            self.mark_failed(shard, message)
            raise EngineError(message) from None

    def apply(self, shard: int, relation_name: str, delta: Relation) -> None:
        self._require_open()

        def run():
            if _faults.current_injector() is not None:
                _faults.fire(
                    "worker.apply", op="apply", shard=shard,
                    incarnation=self.incarnations[shard],
                )
            self.engines[shard].apply(relation_name, delta)

        self._guard(shard, "apply", run)

    def advance(self, ticks: int) -> None:
        self._require_open()
        if not self.supervised:
            for engine in self.engines:
                engine.advance_decay(ticks)
            return
        errors = []
        for shard in range(len(self.engines)):
            try:
                self.advance_one(shard, ticks)
            except EngineError as exc:
                errors.append(str(exc))
        if errors:
            raise EngineError("; ".join(errors))

    def advance_one(self, shard: int, ticks: int) -> None:
        self._require_open()

        def run():
            if _faults.current_injector() is not None:
                _faults.fire(
                    "worker.advance", op="advance", shard=shard,
                    incarnation=self.incarnations[shard],
                )
            self.engines[shard].advance_decay(ticks)

        self._guard(shard, "advance", run)

    def _collect(self, op: str, fn: Callable[[Any], Any]) -> List[Any]:
        """Per-shard gather; supervised failures are collected so every
        healthy shard is still polled (mirrors the process fan-in)."""
        self._require_open()
        if not self.supervised:
            return [fn(engine) for engine in self.engines]
        out: List[Any] = [None] * len(self.engines)
        errors = []
        for shard, engine in enumerate(self.engines):
            def run(engine=engine, shard=shard):
                if _faults.current_injector() is not None:
                    _faults.fire(
                        "coordinator.gather", op=op, shard=shard,
                        incarnation=self.incarnations[shard],
                    )
                return fn(engine)

            try:
                out[shard] = self._guard(shard, op, run)
            except EngineError as exc:
                errors.append(str(exc))
        if errors:
            raise EngineError("; ".join(errors))
        return out

    def results(self) -> List[Dict]:
        return self._collect("result", lambda engine: engine.result().data)

    def stats(self) -> List[Dict[str, int]]:
        return self._collect("stats", lambda engine: engine.stats.snapshot())

    def memory(self) -> List[Dict[str, Dict[str, int]]]:
        return self._collect("memory", lambda engine: engine.memory_report())

    def export_states(self) -> List[dict]:
        return self._collect("export", lambda engine: engine.export_state())

    def respawn(self, shard: int, state: dict) -> None:
        """Rebuild ``shard``'s engine from a re-partitioned state slice."""
        self._require_open()
        engine = self._factory()
        engine.import_state(state)
        self.engines[shard] = engine
        self.incarnations[shard] += 1
        # The fresh engine is healthy until proven otherwise; replay
        # failures re-mark it.
        self.clear_failed(shard)

    def gather_one(self, shard: int, op: str) -> Any:
        self._require_open()
        ops = {
            "stats": lambda engine: engine.stats.snapshot(),
            "result": lambda engine: engine.result().data,
            "ping": lambda engine: "pong",
        }
        return self._guard(
            shard, op, lambda: ops[op](self.engines[shard])
        )

    def close(self) -> None:
        self.engines = []
        self.closed = True


def _serve_tree(conn, endpoint, engine, op, seq, failure, broadcast_views):
    """One worker's side of a tree gather; returns the new parked failure.

    A parked failure (or a merge-partner failure) poisons this worker's
    write round — so partners waiting on it abort fast instead of timing
    out — and replies ``("error", ...)``. A blob that does not fit the
    up block replies ``("overflow", needed bytes)`` without parking: the
    coordinator grows the blocks and retries the whole gather.
    """
    if failure is None and endpoint is None:  # pragma: no cover - defensive
        failure = f"shard worker got tree op {op!r} without an shm endpoint"
    if failure is not None:
        try:
            endpoint.poison(seq)
        except Exception:
            pass
        conn.send(("error", failure))
        return failure
    try:
        ring = engine.tree.plan.ring
        if op == "tresult":
            key = engine.tree.root.key
            payload = dict(engine.result().data)

            def combine(mine, theirs):
                return _merge_root_pair(mine, theirs, key, ring)

        else:  # "texport"
            keys = {
                name: node.key for name, node in engine.tree.views.items()
            }
            payload = {
                name: dict(data)
                for name, data in engine._export_payload()["views"].items()
            }

            def combine(mine, theirs):
                return _merge_views_pair(
                    mine, theirs, keys, ring, broadcast_views
                )

        endpoint.tree_merge(seq, payload, combine)
        conn.send(("ok", "done"))
        return None
    except _ShmOverflow as exc:
        try:
            endpoint.poison(seq, needed=exc.needed)
        except Exception:
            pass
        conn.send(("overflow", exc.needed))
        return failure
    except Exception as exc:
        message = f"shard worker failed on {op!r}: {exc!r}"
        try:
            endpoint.poison(seq)
        except Exception:
            pass
        conn.send(("error", message))
        return message


def _shard_worker(
    conn, factory, database, state=None, endpoint=None, broadcast_views=(),
    inherited=(), shard=-1, incarnation=0,
) -> None:
    """Worker loop: build the engine, then serve the coordinator's pipe.

    The engine is seeded from ``state`` (checkpoint restore) when given,
    otherwise from ``database``. Every synchronous reply is
    ``("ok", payload)``, ``("error", message)`` or — for tree gathers —
    ``("overflow", bytes)``; applies are fire-and-forget, so an apply
    failure is parked and surfaced at the next synchronous exchange. A
    parked worker still services the transport control plane: shared-
    memory deltas are acknowledged (``mark_consumed``) so the
    coordinator's ring flow control never deadlocks on a failed shard,
    and ``remap``/``remap_up`` segment swaps are honoured.

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
    try:
        engine = factory()
        if state is not None:
            engine.import_state(state)
        else:
            engine.initialize(database)
        schemas = {
            name: engine.query.schema_of(name).attributes
            for name in engine.query.relation_names
        }
    except Exception as exc:
        conn.send(("error", f"shard initialization failed: {exc!r}"))
        conn.close()
        return
    conn.send(("ok", "ready"))
    failure: Optional[str] = None
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        op = message[0]
        if op == "stop":
            break
        if op == "remap":
            # Fire-and-forget segment swap — no reply, and honoured even
            # when a failure is parked (the coordinator already switched).
            try:
                endpoint.remap_down(message[1], message[2])
            except Exception as exc:  # pragma: no cover - defensive
                failure = failure or f"shard worker failed on 'remap': {exc!r}"
            continue
        if op == "remap_up":
            try:
                endpoint.remap_up(message[1], message[2])
            except Exception as exc:  # pragma: no cover - defensive
                failure = (
                    failure or f"shard worker failed on 'remap_up': {exc!r}"
                )
            continue
        if op == "tresult" or op == "texport":
            failure = _serve_tree(
                conn, endpoint, engine, op, message[1], failure,
                broadcast_views,
            )
            continue
        is_apply = (
            op == "apply" or op == "applyc" or op == "applyd"
            or op == "advance"
        )
        try:
            if _faults.current_injector() is not None and failure is None:
                # Deterministic fault sites (no-ops without an injector):
                # a "kill" spec dies the way a crashed process dies, a
                # "raise" spec becomes a parked failure below.
                if op == "apply" or op == "applyc" or op == "applyd":
                    _faults.fire(
                        "worker.apply", op=op, shard=shard,
                        incarnation=incarnation, kill=_faults.exit_worker,
                    )
                elif op == "advance":
                    _faults.fire(
                        "worker.advance", op=op, shard=shard,
                        incarnation=incarnation, kill=_faults.exit_worker,
                    )
                else:
                    _faults.fire(
                        "worker.reply", op=op, shard=shard,
                        incarnation=incarnation, kill=_faults.exit_worker,
                    )
            if failure is not None:
                if op == "applyd":
                    # Keep the ring flow control moving even while parked.
                    try:
                        endpoint.mark_consumed(message[2])
                    except Exception:
                        pass
                elif not is_apply:
                    conn.send(("error", failure))
            elif op == "apply":
                relation_name, data = message[1], message[2]
                delta = Relation(schemas[relation_name], name=relation_name)
                delta.data = data
                engine.apply(relation_name, delta)
            elif op == "applyc":
                # Columnar wire form: rebuild the dict delta once here;
                # the columnar form stays attached, so the worker's own
                # columnar maintenance path reuses it without re-deriving.
                relation_name, columns, counts = message[1], message[2], message[3]
                delta = ColumnarDelta(
                    schemas[relation_name], counts, columns=columns,
                    name=relation_name,
                ).to_relation()
                engine.apply(relation_name, delta)
            elif op == "applyd":
                # Shared-memory wire form: the pipe carried only the
                # generation, block layout and a checksum; the bytes are
                # in the ring. A checksum mismatch (torn write) parks the
                # worker with a descriptive failure instead of decoding
                # garbage into the views.
                relation_name, generation, layout = (
                    message[1], message[2], message[3]
                )
                nbytes = message[4] if len(message) > 4 else None
                crc = message[5] if len(message) > 5 else None
                delta = endpoint.read_delta(
                    schemas[relation_name], relation_name, generation,
                    layout, nbytes, crc,
                )
                engine.apply(relation_name, delta)
            elif op == "advance":
                # Fire-and-forget like applies: the pipe is FIFO, so the
                # tick lands after every delta routed before it — all
                # shards advance their decay clocks in lockstep.
                engine.advance_decay(message[1])
            elif op == "result":
                conn.send(("ok", engine.result().data))
            elif op == "ping":
                # Liveness probe (supervised gathers); also the recovery
                # barrier that flushes a respawned shard's replay queue.
                conn.send(("ok", "pong"))
            elif op == "stats":
                conn.send(("ok", engine.stats.snapshot()))
            elif op == "memory":
                conn.send(("ok", engine.memory_report()))
            elif op == "export":
                conn.send(("ok", engine.export_state()))
            else:
                conn.send(("error", f"unknown op {op!r}"))
        except Exception as exc:
            failure = f"shard worker failed on {op!r}: {exc!r}"
            if not is_apply:
                conn.send(("error", failure))
    if endpoint is not None:
        endpoint.close()
    conn.close()


class _ProcessBackend(ShardBackend):
    """One forked worker process per shard, one duplex pipe each.

    The pipe is the *control plane*; the injected
    :class:`~repro.engine.transport.ShardTransport` is the data plane
    (see the module docstring). The pipe protocol is strictly one reply
    per synchronous request, so gathers must *always* drain every
    fanned-out reply — even when a shard reports an error — or the next
    gather would read the stale replies of the previous op and silently
    return results for the wrong request.
    """

    name = "process"

    #: How many grow-and-retry rounds a tree gather may take before the
    #: backend gives up (each round at least doubles the up blocks).
    MAX_GATHER_ATTEMPTS = 4

    def __init__(
        self,
        factory: Callable[[], MaintenanceEngine],
        databases: Optional[List[Database]] = None,
        states: Optional[List[dict]] = None,
        transport: Optional[ShardTransport] = None,
        broadcast_views: Tuple[str, ...] = (),
        supervised: bool = False,
        heartbeat_timeout: Optional[float] = None,
    ):
        super().__init__()
        self.supervised = supervised
        self.heartbeat_timeout = heartbeat_timeout
        self._factory = factory
        self._broadcast_views = broadcast_views
        self._context = multiprocessing.get_context("fork")
        context = self._context
        self.transport = transport if transport is not None else PipeTransport()
        self.connections = []
        self.processes = []
        seeds = self._check_seeds(databases, states)
        self.incarnations = [0] * len(seeds)
        try:
            self.transport.setup(len(seeds))
            for shard, seed in enumerate(seeds):
                parent_conn, child_conn = context.Pipe(duplex=True)
                database, state = (
                    (seed, None) if states is None else (None, seed)
                )
                process = context.Process(
                    target=_shard_worker,
                    args=(
                        child_conn, factory, database, state,
                        self.transport.worker_endpoint(shard),
                        broadcast_views,
                        (*self.connections, parent_conn),
                        shard, 0,
                    ),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self.connections.append(parent_conn)
                self.processes.append(process)
            for shard, conn in enumerate(self.connections):
                status, payload = self._receive(shard, conn)
                if status != "ok":
                    raise EngineError(f"shard {shard}: {payload}")
        except Exception:
            self.close()
            raise

    # ------------------------------------------------------------------

    def apply(self, shard: int, relation_name: str, delta: Relation) -> None:
        self._require_open()
        try:
            self.connections[shard].send(("apply", relation_name, delta.data))
        except (BrokenPipeError, OSError) as exc:
            raise EngineError(f"shard {shard} worker is gone: {exc!r}") from None

    def apply_delta(self, shard: int, relation_name: str, delta) -> None:
        """Fire-and-forget apply through the transport's data plane.

        ``delta`` is a :class:`ColumnarDelta` slice — the form both the
        pipe wire and the shm rings carry.
        """
        self._require_open()
        alive = self.processes[shard].is_alive
        if self.supervised and self.heartbeat_timeout:
            # A *hung* (not dead) worker never consumes its ring slot;
            # bound the transport's wait so the supervisor can declare
            # the shard unresponsive and respawn it.
            deadline = time.monotonic() + self.heartbeat_timeout

            def alive_fn():
                return alive() and time.monotonic() < deadline
        else:
            alive_fn = alive
        try:
            self.transport.send_delta(
                self.connections[shard], shard, relation_name, delta,
                alive=alive_fn,
            )
        except (BrokenPipeError, OSError) as exc:
            raise EngineError(f"shard {shard} worker is gone: {exc!r}") from None

    def advance(self, ticks: int) -> None:
        """Fire-and-forget decay-clock broadcast to every shard.

        Rides the control pipe, which is FIFO per worker even under the
        shm transport (data-plane applies announce themselves on the same
        pipe), so every shard observes the tick at the same stream
        position.
        """
        self._require_open()
        for shard, conn in enumerate(self.connections):
            try:
                conn.send(("advance", ticks))
            except (BrokenPipeError, OSError) as exc:
                raise EngineError(
                    f"shard {shard} worker is gone: {exc!r}"
                ) from None

    def results(self) -> List[Dict]:
        # Supervised gathers fan in over the pipes even when the
        # transport offers tree merges: a worker dying mid tree-merge
        # would poison its partners, and the fan-in fold is the same
        # pairwise_fold the tree runs, so the bits match either way.
        if self.transport.tree_gather and not self.supervised:
            return [self._gather_tree("tresult")]
        return self._gather("result")

    def stats(self) -> List[Dict[str, int]]:
        return self._gather("stats")

    def memory(self) -> List[Dict[str, Dict[str, int]]]:
        return self._gather("memory")

    def export_states(self) -> List[dict]:
        if self.transport.tree_gather and not self.supervised:
            return [{"views": self._gather_tree("texport")}]
        return self._gather("export")

    def kill_callable(self, shard: int) -> Optional[Callable[[], None]]:
        process = self.processes[shard]
        if process.pid is None:  # pragma: no cover - defensive
            return None
        return _faults.kill_process(process.pid)

    def respawn(self, shard: int, state: dict) -> None:
        """Replace ``shard``'s worker with a fresh fork seeded from
        ``state`` (a re-partitioned baseline slice).

        The old process is SIGKILLed if still technically alive (it may
        be hung rather than dead), its pipe is closed, and the
        transport's per-shard segments are rebuilt so the new worker
        starts from generation zero — no ring state survives the old
        incarnation.
        """
        self._require_open()
        old_process = self.processes[shard]
        old_conn = self.connections[shard]
        if old_process.is_alive():
            old_process.kill()
        old_process.join(timeout=5.0)
        try:
            old_conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        self.transport.reset_shard(shard)
        incarnation = self.incarnations[shard] + 1
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        inherited = tuple(
            conn for index, conn in enumerate(self.connections)
            if index != shard
        ) + (parent_conn,)
        process = self._context.Process(
            target=_shard_worker,
            args=(
                child_conn, self._factory, None, state,
                self.transport.worker_endpoint(shard),
                self._broadcast_views, inherited, shard, incarnation,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.connections[shard] = parent_conn
        self.processes[shard] = process
        self.incarnations[shard] = incarnation
        status, payload = self._receive(shard, parent_conn)
        if status != "ok":
            raise EngineError(f"shard {shard}: {payload}")
        # The fresh worker is healthy until proven otherwise; replay
        # failures re-mark it.
        self.clear_failed(shard)

    def advance_one(self, shard: int, ticks: int) -> None:
        self._require_open()
        try:
            self.connections[shard].send(("advance", ticks))
        except (BrokenPipeError, OSError) as exc:
            raise EngineError(
                f"shard {shard} worker is gone: {exc!r}"
            ) from None

    def gather_one(self, shard: int, op: str) -> Any:
        """One synchronous request/reply exchange with a single shard."""
        self._require_open()
        try:
            self.connections[shard].send((op,))
        except (BrokenPipeError, OSError) as exc:
            raise EngineError(
                f"shard {shard} worker is gone: {exc!r}"
            ) from None
        status, payload = self._receive(shard, self.connections[shard])
        if status != "ok":
            raise EngineError(f"shard {shard}: {payload}")
        return payload

    def close(self) -> None:
        for conn in self.connections:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for process in self.processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=1.0)
        for conn in self.connections:
            conn.close()
        self.connections = []
        self.processes = []
        # Workers are down (or being torn down): unlink every segment.
        self.transport.close()
        self.closed = True

    # ------------------------------------------------------------------

    def _gather(self, op: str) -> List[Any]:
        """Fan ``op`` out to every shard, then fan every reply back in.

        Error replies (a parked apply failure, an op that raised) do not
        stop the fan-in: the remaining replies are drained first so the
        pipes stay request/reply aligned, then one :class:`EngineError`
        summarizing every failed shard is raised. The backend stays usable
        after a drained error; if a worker died mid-gather (EOF/broken
        pipe) the pipes cannot be realigned, so the backend tears itself
        down and subsequent ops raise the closed error.
        """
        self._require_open()
        sent: List[Tuple[int, Any]] = []
        errors: List[str] = []
        dead = False
        for shard, conn in enumerate(self.connections):
            if self.supervised and shard in self.failed_shards:
                errors.append(
                    f"shard {shard}: {self.failures.get(shard, 'failed')}"
                )
                continue
            if self.supervised and _faults.current_injector() is not None:
                try:
                    _faults.fire(
                        "coordinator.gather", op=op, shard=shard,
                        incarnation=self.incarnations[shard],
                        kill=self.kill_callable(shard),
                    )
                except _faults.InjectedFault as exc:
                    message = f"shard {shard}: {exc}"
                    errors.append(message)
                    self.mark_failed(shard, message)
                    continue
            try:
                conn.send((op,))
                sent.append((shard, conn))
            except (BrokenPipeError, OSError) as exc:
                message = f"shard {shard} worker is gone: {exc!r}"
                errors.append(message)
                self.mark_failed(shard, message)
                dead = True
        results: List[Any] = [None] * len(self.connections)
        for shard, conn in sent:
            try:
                status, payload = self._receive(shard, conn)
            except EngineError as exc:
                errors.append(str(exc))
                self.mark_failed(shard, str(exc))
                dead = True
                continue
            if status != "ok":
                message = f"shard {shard}: {payload}"
                errors.append(message)
                self.mark_failed(shard, message)
            else:
                results[shard] = payload
        self._raise_gather_errors(errors, dead)
        return results

    def _gather_tree(self, op: str) -> Dict:
        """Run one tree-wise gather; returns the final merged payload.

        The workers merge pairwise among themselves through the up
        blocks; the coordinator only fans out ``(op, seq)``, drains one
        acknowledgement per shard (keeping the pipes aligned exactly as
        :meth:`_gather` does) and reads shard 0's final blob. Overflow
        acknowledgements grow the up blocks and retry the whole gather
        under a fresh sequence number.
        """
        self._require_open()
        for _attempt in range(self.MAX_GATHER_ATTEMPTS):
            # A dead partner would stall the worker-side merge dance, so
            # check liveness before fanning out rather than after.
            for shard, process in enumerate(self.processes):
                if not process.is_alive():
                    self.close()
                    raise EngineError(
                        f"shard {shard} worker died (process exited); "
                        "shard backend closed"
                    )
            seq = self.transport.new_sequence()
            sent: List[Tuple[int, Any]] = []
            errors: List[str] = []
            dead = False
            overflow = 0
            for shard, conn in enumerate(self.connections):
                try:
                    conn.send((op, seq))
                    sent.append((shard, conn))
                except (BrokenPipeError, OSError) as exc:
                    errors.append(f"shard {shard} worker is gone: {exc!r}")
                    dead = True
            for shard, conn in sent:
                try:
                    status, payload = self._receive(shard, conn)
                except EngineError as exc:
                    errors.append(str(exc))
                    dead = True
                    continue
                if status == "overflow":
                    overflow = max(overflow, int(payload))
                elif status != "ok":
                    errors.append(f"shard {shard}: {payload}")
            self._raise_gather_errors(errors, dead)
            if overflow:
                names, up_bytes = self.transport.grow_up(overflow)
                for shard, conn in enumerate(self.connections):
                    try:
                        conn.send(("remap_up", names, up_bytes))
                    except (BrokenPipeError, OSError) as exc:
                        self._raise_gather_errors(
                            [f"shard {shard} worker is gone: {exc!r}"],
                            dead=True,
                        )
                continue
            return self.transport.read_final(seq)
        raise EngineError(  # pragma: no cover - would need pathological growth
            f"tree gather {op!r} still overflowed after "
            f"{self.MAX_GATHER_ATTEMPTS} block-growth attempts"
        )

    def _receive(self, shard: int, conn) -> Tuple[str, Any]:
        """One raw ``(status, payload)`` reply; EOF means the worker died.

        Supervised mode polls instead of blocking: a worker that died
        without closing its pipe end — or one that is alive but hung past
        ``heartbeat_timeout`` — is detected and reported instead of
        blocking the coordinator forever.
        """
        if not self.supervised:
            try:
                return conn.recv()
            except EOFError:
                raise EngineError(
                    f"shard {shard} worker died without replying"
                ) from None
        timeout = self.heartbeat_timeout or 30.0
        deadline = time.monotonic() + timeout
        while True:
            # A SIGKILLed worker surfaces as EOFError or a reset/broken
            # pipe (OSError) depending on how much it had buffered.
            try:
                if conn.poll(0.02):
                    return conn.recv()
            except (EOFError, OSError):
                raise EngineError(
                    f"shard {shard} worker died without replying"
                ) from None
            if not self.processes[shard].is_alive():
                # Drain any reply that raced the process exit.
                try:
                    if conn.poll(0):
                        return conn.recv()
                except (EOFError, OSError):
                    pass
                raise EngineError(
                    f"shard {shard} worker died without replying"
                ) from None
            if time.monotonic() > deadline:
                raise EngineError(
                    f"shard {shard} worker unresponsive: no reply within "
                    f"the heartbeat timeout ({timeout:g}s)"
                )


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
        shard count, backend, transport, shard attributes, supervision
        and decay. ``None`` means ``EngineConfig(shards=2)``, the
        engine's historical default.

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
        self.transport_name = resolve_transport(
            config.transport, self.backend_name
        )
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

    def _make_transport(self) -> ShardTransport:
        if self.transport_name == "shm":
            return SharedMemoryTransport()
        return PipeTransport()

    def _make_backend(self, **seeds) -> None:
        factory = self._engine_factory()
        supervised = self.supervisor is not None
        heartbeat = self.config.heartbeat_timeout if supervised else None
        if self.backend_name == "process":
            self._backend = _ProcessBackend(
                factory,
                transport=self._make_transport(),
                broadcast_views=self._broadcast_only_views,
                supervised=supervised,
                heartbeat_timeout=heartbeat,
                **seeds,
            )
        else:
            self._backend = _SerialBackend(
                factory, supervised=supervised,
                heartbeat_timeout=heartbeat, **seeds,
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
        self._require_initialized()
        self._check_delta(relation_name, delta)
        if not delta.data:
            return
        if self.supervisor is not None:
            self._apply_supervised(relation_name, delta)
            return
        self.stats.record_batch(delta)
        if self.backend_name == "process":
            # Route and ship in columnar form: rows hash exactly as in
            # split(), but no per-shard key-tuple dict is built and the
            # data plane carries columns (pickled pipe lists or raw
            # shared-memory blocks) instead of pickled dicts.
            for shard, sub in self.router.split_columnar(
                relation_name, delta.columnar()
            ):
                self._backend.apply_delta(shard, relation_name, sub)
            return
        for shard, sub_delta in self.router.split(relation_name, delta):
            self._backend.apply(shard, relation_name, sub_delta)

    def _apply_supervised(self, relation_name: str, delta: Relation) -> None:
        """Routed apply with failure containment.

        The batch is recorded into the replay log *pre-split* (one
        shallow dict copy), then routed exactly as the unsupervised path
        routes it. A shard that fails mid-batch is marked and skipped for
        the rest of the batch — it will be rebuilt from baseline + log,
        which re-delivers this very batch through the same deterministic
        router split, so the recovered shard sees exactly the sub-deltas
        it missed and the root view stays bit-identical.
        """
        supervisor = self.supervisor
        if supervisor.needs_rebase():
            # The log outgrew its bound: refresh the baseline (one export
            # gather, which truncates the log as a side effect).
            self.export_state()
        supervisor.record_delta(relation_name, delta.data)
        self.stats.record_batch(delta)
        backend = self._backend
        columnar = self.backend_name == "process"
        if columnar:
            routed = self.router.split_columnar(
                relation_name, delta.columnar()
            )
        else:
            routed = self.router.split(relation_name, delta)
        injector_on = _faults.current_injector() is not None
        for shard, sub in routed:
            if shard in backend.failed_shards:
                continue
            try:
                if injector_on:
                    _faults.fire(
                        "coordinator.send", op="apply", shard=shard,
                        incarnation=backend.incarnations[shard],
                        kill=backend.kill_callable(shard),
                    )
                if columnar:
                    backend.apply_delta(shard, relation_name, sub)
                else:
                    backend.apply(shard, relation_name, sub)
            except (EngineError, _faults.InjectedFault) as exc:
                backend.mark_failed(shard, str(exc))
        if backend.failed_shards:
            self._recover()

    def result(self) -> Relation:
        """Ring-additive merge of the per-shard root views.

        Shard keys never collide for views keyed below the shard
        attributes, and where they do collide (e.g. the empty root key of
        a full aggregate) the ring's addition combines them — the same
        operation maintenance itself uses, so the merged result is
        exactly the unsharded engine's. Under the shm transport the merge
        already happened tree-wise across the workers and the backend
        returns a single part; either way the fold structure is
        :func:`pairwise_fold`, so the bits match across transports.
        """
        self._require_initialized()
        root = self.tree.root
        ring = self.tree.plan.ring
        merged = Relation(root.key, ring, name=root.name)
        merged.data = _merge_root_states(
            self._gather_with_recovery(lambda: self._backend.results()),
            root.key, ring,
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
        shard's decay clock lands on the same value) and contain
        per-shard failures exactly as :meth:`_apply_supervised` does.
        """
        if self.config.decay is None:
            super().advance_decay(ticks)
        self._require_initialized()
        if self.supervisor is None:
            self._backend.advance(ticks)
            self.stats.decay_ticks += ticks
            return
        self.supervisor.record_advance(ticks)
        self.stats.decay_ticks += ticks
        backend = self._backend
        injector_on = _faults.current_injector() is not None
        for shard in range(self.shards):
            if shard in backend.failed_shards:
                continue
            try:
                if injector_on:
                    _faults.fire(
                        "coordinator.send", op="advance", shard=shard,
                        incarnation=backend.incarnations[shard],
                        kill=backend.kill_callable(shard),
                    )
                backend.advance_one(shard, ticks)
            except (EngineError, _faults.InjectedFault) as exc:
                backend.mark_failed(shard, str(exc))
        if backend.failed_shards:
            self._recover()

    # ------------------------------------------------------------------

    def shard_stats(self) -> List[Dict[str, int]]:
        """Per-shard maintenance counter snapshots, in shard order."""
        self._require_initialized()
        return self._gather_with_recovery(lambda: self._backend.stats())

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
        a view's ``support`` is the same on every shard and kept as is."""
        self._require_initialized()
        merged: Dict[str, Dict[str, Any]] = {}
        for report in self._gather_with_recovery(lambda: self._backend.memory()):
            for view_name, entry in report.items():
                target = merged.setdefault(view_name, {})
                for field, value in entry.items():
                    if field == "support":
                        target[field] = value
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
        """The config recorded into exports, with backend/transport
        resolved to what actually ran (``"auto"`` would say nothing)."""
        data = self.config.to_dict()
        data["backend"] = self.backend_name
        data["transport"] = self.transport_name
        return data

    def _export_payload(self) -> dict:
        """Gather per-shard view snapshots and merge them ring-additively.

        Views whose subtree touches a routed relation partition (or sum)
        across shards, so their per-shard copies combine with the ring's
        addition — multilinearity of the join makes the merged view equal
        the unsharded engine's, the same argument behind :meth:`result`.
        Views over broadcast relations only are replicated identically on
        every shard, so one copy is taken instead of a sum. Under the shm
        transport the workers run this merge tree-wise among themselves
        (same pairwise fold, same bits) and the backend returns the
        single merged part.

        Worker failures during the gather surface with export context
        (same hardening as :meth:`publish`): the pipes are drained and
        realigned by the backend, and the error names the failed shard.
        """
        try:
            states = self._gather_with_recovery(
                lambda: self._backend.export_states()
            )
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
            if backend is not None and backend.failed_shards:
                report["status"] = "recovering"
                report["failed_shards"] = sorted(backend.failed_shards)
        return report

    def _gather_with_recovery(self, gather: Callable[[], Any]) -> Any:
        """Run a synchronous gather, healing failed shards and retrying.

        Unsupervised engines call the gather straight through. Supervised
        ones retry after each recovery round; gathers are read-only, so a
        retry is idempotent. An error with *no* shard marked failed is a
        logic error (or a closed backend) and propagates as-is; the
        recovery budget inside :meth:`_recover` bounds the loop.
        """
        if self.supervisor is None:
            return gather()
        while True:
            try:
                return gather()
            except SupervisionError:
                raise
            except EngineError:
                backend = self._backend
                if backend is None or not backend.failed_shards:
                    raise
                self._recover()

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
        if supervisor is None or backend is None:
            return
        while backend.failed_shards:
            failed = sorted(backend.failed_shards)
            error = "; ".join(
                backend.failures.get(shard, f"shard {shard} failed")
                for shard in failed
            )
            started = time.monotonic()
            try:
                supervisor.begin_recovery(failed, error)
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
                        backend.clear_failed(shard)
                    except (EngineError, _faults.InjectedFault) as exc:
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
        and only ``shard``'s slice is delivered (dict wire form: the dict
        and columnar forms build identical engine state, so replay is
        bit-compatible with whatever transport carried the original).
        The trailing stats gather is the barrier that flushes the
        fire-and-forget replay queue and surfaces any parked failure.
        """
        backend = self._backend
        schemas = self.router.schemas
        for entry in self.supervisor.log.entries:
            if entry[0] == "advance":
                backend.advance_one(shard, entry[1])
                continue
            _kind, name, data = entry
            delta = Relation(schemas[name], name=name)
            delta.data = data
            for target, sub in self.router.split(name, delta):
                if target == shard:
                    backend.apply(shard, name, sub)
                    break
        backend.gather_one(shard, "stats")

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
                lifts = {
                    attr: self.tree.plan.lifts[attr] for attr in node.lifted
                }
                for shard in range(self.shards):
                    children = []
                    for child in node.children:
                        relation = Relation(child.key, ring)
                        relation.data = per_shard[shard][child.name]
                        children.append(relation)
                    children.sort(key=len)
                    joined = children[0]
                    for child in children[1:]:
                        joined = joined.join(child)
                    per_shard[shard][name] = joined.marginalize(
                        node.key, lifts
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
        backend = self.backend_name
        if backend == "process":
            backend = f"process/{self.transport_name}"
        return (
            f"{self.strategy} x{self.shards} ({backend}, "
            f"hash on {'/'.join(self.shard_plan.attrs)}, "
            f"routed={len(self.shard_plan.routed)}, "
            f"broadcast={len(self.shard_plan.broadcast)}, {cores} cores)"
        )
