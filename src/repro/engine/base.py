"""Engine interface and maintenance statistics.

Every engine maintains the result of one query under updates to base
relations. The contract:

- :meth:`MaintenanceEngine.initialize` evaluates the query on an initial
  database;
- :meth:`MaintenanceEngine.apply` processes one delta (a Z-relation of
  signed multiplicities) to one base relation;
- :meth:`MaintenanceEngine.result` returns the maintained result, a
  :class:`~repro.data.relation.Relation` keyed by the free variables with
  payloads in the query's ring.

Engines differ only in *how* they keep the result fresh, which is exactly
what the paper's experiments compare.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.data.batcher import UpdateBatcher
from repro.data.database import Database
from repro.data.relation import Relation
from repro.errors import EngineError
from repro.query.query import Query
from repro.serving.snapshot import EngineSnapshot, SnapshotStore

__all__ = ["EngineStatistics", "MaintenanceEngine"]


@dataclass
class EngineStatistics:
    """Counters engines update as they process deltas.

    The ``ADAPTIVE_*`` class constants calibrate the probe-vs-scan
    choice F-IVM's per-tuple path makes per maintenance step: a sibling is
    *probed* through its persistent index (O(|delta| x matches)) unless
    the running delta dwarfs the sibling — then one hash join that
    indexes the small sibling per call beats per-entry probe dispatch.
    Calibrated on the retailer stream benchmarks
    (``bench_delta_latency.py`` / ``bench_sharded_ingest.py``): probes
    win in every regime where the delta is at most about the sibling's
    size (the persistent index amortizes the build a scan join pays per
    call), so the crossover sits well above 1. The constants are
    class-level so that no parameter is threaded through every engine.
    """

    #: Scan a sibling instead of probing it when
    #: ``|delta| > ADAPTIVE_SCAN_RATIO * |sibling|``: the scan join then
    #: rebuilds a hash index over the (much smaller) sibling and streams
    #: the delta through it once. Measured on dense-match workloads the
    #: two paths break even at ratio ~2 and the scan wins 20-30% per
    #: step from ratio ~4 up (retailer V_Item step, 900-entry sibling).
    ADAPTIVE_SCAN_RATIO: ClassVar[float] = 2.0
    #: Never scan below this delta size: for small deltas the probe path
    #: always wins regardless of the ratio (guards tiny views against
    #: ratio noise and keeps the latency-critical single-tuple regime on
    #: the O(|delta|) path unconditionally).
    ADAPTIVE_SCAN_MIN_DELTA: ClassVar[int] = 512
    #: Deltas of at least this many keys take the fused columnar program
    #: (when the ring and the path's lifts allow it); smaller ones take
    #: the per-tuple path, where the fixed numpy cost per kernel call is
    #: not amortized. Set from the crossover on retailer numeric COVAR
    #: (12 features, 40k inventory rows; µs/update, min of 5 x 4000
    #: updates, ``engine.apply_many`` only, each path pinned by patching
    #: this constant)::
    #:
    #:     PYTHONPATH=src python benchmarks/bench_delta_latency.py
    #:
    #:      batch    fused  per-tuple
    #:          8     68.8       69.4
    #:         10     58.3       64.8
    #:         12     46.2       66.3
    #:         14     43.0       65.0
    #:         16     35.8       62.4
    #:         32     19.6       58.4
    #:        100      8.8       48.7
    #:       1000      2.6       36.9
    #:
    #: In six separate runs (batches grouped and probed through key codes)
    #: fused won from 10 keys on every time, by 6-16 µs at 10; at 8 it won
    #: four times, tied once and lost once — the crossover sits between 8
    #: and 10. (With every grouping a sort, the same host read 83 / 68 at 8
    #: and 68 / 65 at 10, and the constant was 12.)
    #: A class constant (tests patch it to pin one path), not a setting.
    COLUMNAR_MIN_DELTA: ClassVar[int] = 10

    updates_applied: int = 0
    batches_applied: int = 0
    tuples_applied: int = 0
    delta_tuples_propagated: int = 0
    #: Delta keys looked up in persistent view indexes, and how many of
    #: those lookups found a non-empty bucket (F-IVM with view indexes).
    index_probes: int = 0
    index_hits: int = 0
    #: Access-path decisions: per-tuple sibling joins served by an index
    #: probe vs. by a scan join, and sibling joins served by the columnar
    #: bulk kernels. In columnar steps ``index_probes`` counts one probe
    #: per *distinct* hook value of the delta (rows are grouped before
    #: probing), so probe counts are lower than the per-tuple path's for
    #: the same data.
    probe_steps: int = 0
    scan_steps: int = 0
    columnar_steps: int = 0
    #: Batches/sibling joins that took the fused columnar program of
    #: :mod:`repro.engine.compile`. It is the only columnar path, so the
    #: ``columnar_*`` and ``fused_*`` counters advance together (both
    #: names are kept: snapshots and the benchmark read either).
    columnar_batches: int = 0
    fused_batches: int = 0
    fused_steps: int = 0
    #: Lifecycle of the probe arrays a slot-store index caches for the
    #: fused probe (names predate the stores): probes that reused live
    #: arrays, arrays (re)built, and live arrays dropped. Payload updates
    #: leave the arrays alone and key inserts and deletes are patched
    #: into them; only a new key whose values the cached column types
    #: cannot hold (a string in an integer column) drops them, so
    #: ``mirror_invalidations`` close to ``mirror_builds`` means a view's
    #: key columns keep changing type.
    mirror_hits: int = 0
    mirror_builds: int = 0
    mirror_invalidations: int = 0
    #: Decay-clock lifecycle (engines built with ``decay=...``): clock
    #: ticks advanced, lazy settles folded into stored payloads (reads,
    #: exports), and settles forced by boost overflow
    #: (rescale-on-overflow). ``decay_rescales`` greater than zero on a
    #: short stream means the decay rate/interval make the boost grow
    #: too fast — settles are correct but not free.
    decay_ticks: int = 0
    decay_settles: int = 0
    decay_rescales: int = 0
    #: Dropped views F-IVM rebuilt because a newly observed relation's
    #: path probes them — at most one per inner view per engine life.
    #: Not checkpoint-carried: a restore stores every view again.
    views_rebuilt: int = 0
    #: Entries per *stored* view (F-IVM lists no dropped view here).
    view_sizes: Dict[str, int] = field(default_factory=dict)
    #: Per-stage wall-clock seconds of the fused kernels (lift / probe /
    #: multiply / group / scatter), accumulated only when the engine was
    #: built with ``profile_stages=True`` (``repro bench --engine-profile``).
    #: Not checkpoint-carried: timings describe one process's run.
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    #: Counter fields carried through engine snapshots (checkpointing).
    COUNTER_FIELDS = (
        "updates_applied",
        "batches_applied",
        "tuples_applied",
        "delta_tuples_propagated",
        "index_probes",
        "index_hits",
        "probe_steps",
        "scan_steps",
        "columnar_steps",
        "columnar_batches",
        "fused_batches",
        "fused_steps",
        "mirror_hits",
        "mirror_builds",
        "mirror_invalidations",
        "decay_ticks",
        "decay_settles",
        "decay_rescales",
    )

    def record_batch(self, delta: Relation) -> None:
        self.batches_applied += 1
        self.updates_applied += sum(map(abs, delta.data.values()))
        self.tuples_applied += len(delta.data)

    def record_stage(self, stage: str, seconds: float) -> None:
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds

    def snapshot(self) -> Dict[str, int]:
        out = {name: getattr(self, name) for name in self.COUNTER_FIELDS}
        out.update({f"view:{name}": size for name, size in self.view_sizes.items()})
        return out

    def restore(self, snapshot: Dict[str, int]) -> None:
        """Reset counters to a :meth:`snapshot`'s values (absent keys -> 0).

        ``view:*`` sizes are *not* restored here — engines recompute them
        from the restored materializations, which is the ground truth.
        """
        for name in self.COUNTER_FIELDS:
            setattr(self, name, int(snapshot.get(name, 0)))


class MaintenanceEngine(ABC):
    """Base class for query-maintenance engines."""

    #: Human-readable engine name used in benchmark tables.
    strategy = "abstract"

    #: Version of the state dict :meth:`export_state` writes. Bump when the
    #: payload layout changes incompatibly; :meth:`import_state` rejects
    #: versions it does not read with a clear error.
    STATE_FORMAT_VERSION: ClassVar[int] = 1

    #: What kind of state this engine snapshots: ``"views"`` (materialized
    #: view tree — F-IVM and the sharded coordinator, mutually restorable),
    #: ``"relations"`` (base relations + result — naive and first-order,
    #: mutually restorable) or ``"aggregates"`` (nested per-aggregate view
    #: states). Import rejects a snapshot of a different kind.
    state_payload: ClassVar[str] = ""

    def __init__(self, query: Query):
        self.query = query
        self.stats = EngineStatistics()
        self._initialized = False
        self._snapshots = SnapshotStore()

    # ------------------------------------------------------------------

    @abstractmethod
    def initialize(self, database: Database) -> None:
        """Evaluate the query over ``database`` and set up internal state.

        Engines own copies of whatever state they need; the caller remains
        free to mutate ``database`` afterwards.
        """

    @abstractmethod
    def apply(self, relation_name: str, delta: Relation) -> None:
        """Maintain the result under ``delta`` applied to ``relation_name``."""

    @abstractmethod
    def result(self) -> Relation:
        """The maintained query result (treat as read-only)."""

    # ------------------------------------------------------------------
    # Serving: epoch snapshots
    # ------------------------------------------------------------------

    def publish(
        self,
        event_offset: Optional[int] = None,
        window: Optional[Tuple[int, int]] = None,
    ) -> EngineSnapshot:
        """Publish an immutable snapshot of the current result.

        The snapshot's ``result`` is :meth:`result` behind a fresh key
        dict, and :meth:`result` never returns a payload that
        maintenance will later write: engines that keep dict relations
        share the payload objects (zero-copy — they replace a stored
        payload, never mutate it), while F-IVM views held in slot stores
        are added into *in place* and hand out copies of the root's few
        rows instead. Either way later :meth:`apply` calls (and decay
        settles) cannot alter a published snapshot. The swap into the engine's
        snapshot store is a single attribute assignment — readers calling
        :meth:`latest_snapshot` concurrently (from other threads) observe
        either the previous epoch or this one, never a torn state.

        ``event_offset`` is the stream position the snapshot covers;
        callers that track consumed events (``apply_stream``, the serving
        ingest loop) pass it explicitly, everyone else gets the engine's
        ``updates_applied`` counter as the best available proxy.
        ``window`` is the live event-time window ``(start, end)`` the
        snapshot covers when the stream is windowed — provenance readers
        see next to the epoch and offset.

        One writer: publish from the maintenance thread only.
        """
        self._require_initialized()
        result = self.result().copy()
        if event_offset is None:
            event_offset = self.stats.updates_applied
        return self._snapshots.publish(
            result,
            query=self.query.name,
            strategy=self.strategy,
            event_offset=event_offset,
            stats=self.stats.snapshot(),
            window=window,
        )

    def latest_snapshot(self) -> Optional[EngineSnapshot]:
        """The most recently published snapshot (``None`` before the
        first :meth:`publish`); safe to call from reader threads."""
        return self._snapshots.latest

    def health(self) -> Dict[str, Any]:
        """Liveness/recovery summary for observability endpoints.

        The base engine has no failure modes beyond "not initialized";
        supervised engines override this with recovery statistics.
        """
        return {
            "status": "ok" if self._initialized else "uninitialized",
            "supervised": False,
        }

    # ------------------------------------------------------------------

    def apply_batch(self, updates: Iterable[Tuple[str, Relation]]) -> None:
        """Apply a sequence of per-relation deltas, one at a time."""
        for relation_name, delta in updates:
            self.apply(relation_name, delta)

    def apply_many(self, updates: Iterable[Tuple[str, Relation]]) -> None:
        """Apply a sequence of deltas, coalescing per relation first.

        All deltas targeting one relation are sum-merged into a single
        delta (cancelling pairs vanish), so each relation's maintenance
        path runs once per call instead of once per input delta — for
        F-IVM, one leaf-to-root traversal per touched relation.
        Maintenance is exact, so the final result is the same as applying
        the deltas one at a time; only intermediate states differ.
        Merged relations are applied in first-seen order.
        """
        merged: Dict[str, Relation] = {}
        owned = set()
        for relation_name, delta in updates:
            existing = merged.get(relation_name)
            if existing is None:
                merged[relation_name] = delta
                continue
            if relation_name not in owned:
                # Merging writes: into a copy, never the caller's relation.
                owned.add(relation_name)
                existing = merged[relation_name] = existing.copy()
            existing.add_inplace(delta)
        pending = [(name, delta) for name, delta in merged.items() if delta.data]
        self._before_many([name for name, _delta in pending])
        for relation_name, delta in pending:
            self.apply(relation_name, delta)

    def _before_many(self, relation_names: List[str]) -> None:
        """Hook: the relations a coalesced :meth:`apply_many` batch is
        about to update, before the first of its deltas applies."""

    def apply_stream(
        self,
        events: Iterable[Tuple[str, Tuple, int]],
        batch_size: int = 1000,
        checkpoint_every: int = 0,
        on_checkpoint: Optional[Callable[["MaintenanceEngine", int], None]] = None,
        publish_batches: bool = False,
        window_bounds: Optional[Callable[[], Tuple[int, int]]] = None,
    ) -> None:
        """Consume a stream of single-tuple updates in coalesced batches.

        ``events`` yields ``(relation_name, row, multiplicity)`` triples
        (e.g. from :meth:`~repro.datasets.updates.UpdateStream.tuples`).
        An :class:`~repro.data.batcher.UpdateBatcher` merges them into
        per-relation deltas of roughly ``batch_size`` updates, and each
        flushed batch goes through :meth:`apply_many`. The final partial
        batch is flushed when the stream ends.

        With ``checkpoint_every=N``, after every N consumed events the
        pending batch is flushed and ``on_checkpoint(engine, count)`` runs
        with all consumed events applied — the periodic-snapshot hook for
        long-running ingestion (pair it with
        :func:`repro.checkpoint.checkpoint_sink` to persist to disk).
        The callback is *not* invoked again for a final partial window;
        write a final checkpoint after the stream if you need one.

        With ``publish_batches=True`` every flushed batch ends in a
        :meth:`publish` carrying the exact consumed-event count, so
        concurrent readers via :meth:`latest_snapshot` are never more
        than one batch behind the stream, and at every ``checkpoint_every``
        boundary the published snapshot covers exactly the checkpointed
        position (staleness zero at checkpoints).

        When ``events`` is a :class:`~repro.data.windows.WindowedStream`
        (anything exposing ``current_bounds()``), every published
        snapshot carries the live window bounds as provenance;
        ``window_bounds`` passes the bounds callable explicitly for
        callers that wrap the stream in a plain generator (e.g. the
        serving ingest thread's event counter). When the
        engine was built with ``decay=RATE/EVERY``, the decay clock is
        advanced here once per EVERY consumed events — the pending batch
        is flushed first, so every event is weighted by the tick at which
        it arrived, on every engine identically.
        """
        if checkpoint_every < 0:
            raise EngineError("checkpoint_every must be >= 0")
        if checkpoint_every and on_checkpoint is None:
            raise EngineError(
                "checkpoint_every needs an on_checkpoint callback "
                "(e.g. repro.checkpoint.checkpoint_sink(path))"
            )
        schemas = {
            name: self.query.schema_of(name).attributes
            for name in self.query.relation_names
        }
        count = 0
        bounds_fn = window_bounds or getattr(events, "current_bounds", None)
        decay_every = self._decay_interval()

        def deliver(batch) -> None:
            self.apply_many(batch)
            if publish_batches:
                window = bounds_fn() if bounds_fn is not None else None
                self.publish(event_offset=count, window=window)

        batcher = UpdateBatcher(schemas, batch_size=batch_size, on_flush=deliver)
        for relation_name, row, multiplicity in events:
            # Counted *before* the add so a size-triggered flush publishes
            # the offset including the event that triggered it.
            count += 1
            batcher.add(relation_name, row, multiplicity)
            if decay_every and count % decay_every == 0:
                # Flush so everything consumed so far enters at the old
                # tick, then advance: the next event is one tick younger.
                pending = batcher.flush()
                if pending:
                    self.apply_many(pending)
                self.advance_decay(1)
            if checkpoint_every and count % checkpoint_every == 0:
                # flush() returns without delivering to on_flush; apply the
                # remainder so the snapshot covers every consumed event.
                pending = batcher.flush()
                if pending:
                    self.apply_many(pending)
                if publish_batches:
                    window = bounds_fn() if bounds_fn is not None else None
                    self.publish(event_offset=count, window=window)
                on_checkpoint(self, count)
        batcher.close()

    # ------------------------------------------------------------------
    # Decay (exponential forgetting)
    # ------------------------------------------------------------------

    def _decay_interval(self) -> int:
        """Events per decay tick (0 = engine has no decay configured).

        Drives the auto-advance in :meth:`apply_stream`; engines wrapping
        their ring in a :class:`~repro.rings.decay.DecayRing` override it.
        """
        return 0

    def advance_decay(self, ticks: int = 1) -> None:
        """Advance the engine's decay clock by ``ticks``.

        Only meaningful on engines built with ``decay=...``; the base
        implementation refuses so a stray advance on an undecayed engine
        fails loudly instead of silently doing nothing.
        """
        raise EngineError(
            f"{type(self).__name__} was not built with decay "
            "(pass decay='RATE/EVERY' in EngineConfig)"
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def export_state(self) -> Dict[str, Any]:
        """Picklable snapshot of the maintained state.

        The dict carries a shared header — ``format_version``, ``payload``
        (state kind), ``strategy``, ``query`` (provenance) and ``stats``
        (maintenance counters) — plus the engine-specific payload from
        :meth:`_export_payload`. Engines sharing a payload kind restore
        each other's snapshots; see :mod:`repro.checkpoint` for the
        durable on-disk envelope.
        """
        self._require_initialized()
        state: Dict[str, Any] = {
            "format_version": self.STATE_FORMAT_VERSION,
            "payload": self.state_payload,
            "strategy": self.strategy,
            "query": self.query.name,
        }
        state.update(self._export_payload())
        config = self.config_provenance()
        if config:
            state["config"] = config
        state["stats"] = self.stats.snapshot()
        serving = self._snapshots.export_metadata()
        if serving is not None:
            state["serving"] = serving
        return state

    def import_state(self, state: Mapping[str, Any]) -> None:
        """Restore a snapshot produced by :meth:`export_state`.

        The engine must have been built for the same query (the header's
        ``query`` name is validated — a snapshot from a different query
        with coincidentally matching view names must not restore) and the
        snapshot's ``format_version``/``payload`` kind must match what
        this build reads. Maintenance counters are restored from the
        snapshot's ``stats`` (reset to zero when absent).

        Published serving snapshots survive the round trip: when the
        state carries a ``serving`` header (the exporter had published),
        the restored engine immediately republishes its latest epoch from
        the restored materializations — same epoch id, event offset and
        publish timestamp — so :meth:`latest_snapshot` serves reads right
        after restore and the next :meth:`publish` continues the epoch
        sequence.
        """
        self._validate_state(state)
        self._import_payload(state)
        self.stats = EngineStatistics()
        self.stats.restore(state.get("stats") or {})
        self._initialized = True
        self._after_restore()
        self._snapshots = SnapshotStore()
        serving = state.get("serving")
        if serving:
            window = serving.get("window")
            self._snapshots.publish(
                self.result().copy(),
                query=self.query.name,
                strategy=self.strategy,
                event_offset=int(serving["event_offset"]),
                stats=self.stats.snapshot(),
                epoch=int(serving["epoch"]),
                published_at=float(serving["published_at"]),
                window=tuple(window) if window is not None else None,
            )

    def _validate_state(self, state: Mapping[str, Any]) -> None:
        if not isinstance(state, Mapping):
            raise EngineError(
                f"engine state must be a mapping, got {type(state).__name__}"
            )
        version = state.get("format_version")
        if version is None:
            raise EngineError(
                "state has no 'format_version' field — not produced by "
                "export_state()?"
            )
        if version != self.STATE_FORMAT_VERSION:
            raise EngineError(
                f"unknown state format version {version!r}; this build "
                f"reads version {self.STATE_FORMAT_VERSION}"
            )
        kind = state.get("payload")
        if kind != self.state_payload:
            raise EngineError(
                f"state holds {kind!r} payloads (from a "
                f"{state.get('strategy', 'unknown')!r} engine) but "
                f"{type(self).__name__} restores {self.state_payload!r}"
            )
        query = state.get("query")
        if query != self.query.name:
            raise EngineError(
                f"state was exported from query {query!r} but this engine "
                f"maintains {self.query.name!r}"
            )

    def config_provenance(self) -> Optional[Dict[str, Any]]:
        """Primitive dict of how this engine was configured, for snapshot
        and checkpoint headers; ``None`` when the engine has no config."""
        config = getattr(self, "config", None)
        return config.to_dict() if config is not None else None

    def _export_payload(self) -> Dict[str, Any]:
        """Engine-specific snapshot contents (hook for :meth:`export_state`)."""
        raise EngineError(
            f"{type(self).__name__} does not support checkpointing"
        )

    def _import_payload(self, state: Mapping[str, Any]) -> None:
        """Restore engine-specific contents (hook for :meth:`import_state`)."""
        raise EngineError(
            f"{type(self).__name__} does not support checkpointing"
        )

    def _after_restore(self) -> None:
        """Post-restore hook (rebuild derived state such as view sizes)."""

    def _require_initialized(self) -> None:
        if not self._initialized:
            raise EngineError(
                f"{type(self).__name__} used before initialize()"
            )

    def _check_delta(self, relation_name: str, delta: Relation) -> None:
        schema = self.query.schema_of(relation_name)
        if tuple(delta.schema) != tuple(schema.attributes):
            raise EngineError(
                f"delta schema {delta.schema!r} does not match relation "
                f"{relation_name!r} {schema.attributes!r}"
            )
