"""The F-IVM engine: factorized higher-order IVM over a view tree.

This is the paper's primary contribution. An update δR touches only the
views on the leaf-to-root path of R (Figure 1, right): the delta is lifted
into payload space at R's leaf view, joined with the *stored* sibling
views at each inner node, marginalized through the node's variable, and
folded into the node's view when that view is stored — regardless of the
payload ring.

Initialization stores every view. When every relation has a compiled
fused path (every cofactor payload a spec builds) it is maintenance:
every view starts empty, and each base relation's contents go up its own
path as insert deltas of at most ``_LOAD_CHUNK_ROWS`` rows, smallest
relation first. The sum of the inserts is the database, so the views are
the evaluated ones, and the transient blocks stay the size of one
steady-state batch. Rings without fused paths (count, sum,
``general-float``) evaluate the tree instead: through the per-tuple
interpreter the same load measured 2.3-3.6x slower than evaluation.

From then on the engine keeps a view stored only if it is the root, a
leaf, or a sibling that the path of an *observed* relation probes — a
relation is observed once it has received a delta since initialization
or restore. When a relation is first observed, the inner views on its
path that no observed path probes are dropped: its deltas still group
through them on their way up, but nothing scatters into them. The
observed set only grows, so a dropped
view is rebuilt (from its children, in :meth:`FIVMEngine._observe`) at
most once per engine life — when a newly observed relation's path starts
probing it. A rebuild is exact: leaves always stay current, every view is
the join of its children with its variable summed out, and a dropped
view's stored descendants were maintained all along. Rebuilds, reads and
exports re-derive a dropped view the way a delta travels: the contents of
the stored view below it run up an observed path's fused ladder as one
block, or, for rings without bulk kernels, its children join entry by
entry.

Compared to re-evaluation the work per update is bounded by the sizes of
the deltas and sibling views along one path; compared to first-order IVM
the sibling aggregates are already materialized instead of being recomputed
from base relations on every update.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Dict, Optional, Set, Tuple

from repro.config import EngineConfig
from repro.data.database import Database
from repro.data.index import IndexedRelation
from repro.data.relation import Relation
from repro.data.store import SlotStore
from repro.engine.base import EngineStatistics, MaintenanceEngine
from repro.engine.compile import FusedPath, compile_fused_path
from repro.engine.evaluation import evaluate_tree, evaluate_view
from repro.errors import CheckpointError, EngineError, RingError
from repro.query.query import Query
from repro.rings.decay import DecayRing
from repro.query.variable_order import VariableOrder
from repro.viewtree.builder import ViewTree, build_probe_plan, build_view_tree

__all__ = ["FIVMEngine"]

#: Rows per insert delta when initialization loads a relation up its
#: fused path (see :meth:`FIVMEngine._load`) — the paper's flush size.
#: Smaller chunks lower the load's memory peak and cost time: on the
#: benchmark's MI scenario VmHWM read 53.9 / 55.7 / 57.2 / 59.6 MB at
#: 250 / 500 / 1000 / 2000 rows (evaluating the tree: 58.9), while the
#: bulk COVAR load took 0.21 / 0.20 / 0.13 / 0.13 s at flat VmHWM
#: (medians of 3, 2-core Xeon, Python 3.11).
_LOAD_CHUNK_ROWS = 1000


class FIVMEngine(MaintenanceEngine):
    """Higher-order factorized incremental view maintenance.

    :meth:`initialize` stores every view: on rings with a fused path for
    every relation by loading the database up those paths
    (:meth:`_load`), otherwise by :func:`evaluate_tree`.

    ``materialized`` holds the stored views: after initialization every
    view, then — as relations are observed — the root, the leaves, the
    siblings an observed relation's path probes, and views no delta has
    reached yet (see the module docstring). :meth:`view` and exports
    re-derive a dropped view from its children; :meth:`memory_report`
    lists it as not stored; ``stats.views_rebuilt`` counts the dropped
    views an observation brought back.

    Every stored view that serves as a sibling on some relation's
    maintenance path carries persistent hash indexes on exactly the
    attribute sets those paths probe — the probe plan is computed once
    from the view tree at construction, and index maintenance is folded
    into the same ``add_inplace`` calls that refresh the views. When the
    payload ring has bulk kernels and is not scalar — every cofactor
    payload a spec builds by default: numeric COVAR, and MI / mixed
    COVAR over the sparse relational ring, decayed or not — every view
    is a :class:`~repro.data.store.SlotStore` (one ring block per view,
    both paths below read and write its rows); otherwise (counts, sums,
    the ``general-float`` cross-validation backend) views are dict
    relations, indexed where probed.

    A delta is maintained along one of two paths, chosen only from what
    the engine can observe:

    - the **fused columnar program** (:mod:`repro.engine.compile`) when
      the payload ring has bulk kernels and is not scalar
      (``ring.has_bulk_kernels and not ring.is_scalar``), every lifting
      function on the relation's path is bulk-liftable, and the delta
      has at least ``EngineStatistics.COLUMNAR_MIN_DELTA`` keys: the
      delta travels as key columns plus one contiguous payload block and
      lift / probe / multiply / group-sum run as whole-batch kernels;
    - the **per-tuple path** otherwise: a payload object per delta key,
      and per sibling join an index probe (`Relation.join_probe`) or —
      when the running delta dwarfs the sibling
      (``EngineStatistics.ADAPTIVE_SCAN_*``) — one scan join.

    Scalar rings (count, sum) always take the per-tuple path: their dict
    fast paths beat the kernels' fixed numpy cost at every batch size
    measured. For every other payload the choice depends on the delta's
    size only, never on the application. Both paths produce the same
    views (floating-point group sums may associate differently, like
    any batch-size change).
    ``profile_stages`` accumulates per-stage wall-clock seconds
    (lift/probe/multiply/group/scatter) of the fused program into
    ``stats.stage_seconds`` — the ``repro bench --engine-profile``
    breakdown.
    """

    strategy = "fivm"

    def __init__(
        self,
        query: Query,
        order: Optional[VariableOrder] = None,
        config: Optional[EngineConfig] = None,
    ):
        super().__init__(query)
        if config is None:
            config = EngineConfig()
        elif not isinstance(config, EngineConfig):
            raise EngineError(
                f"FIVMEngine: config must be an EngineConfig, "
                f"got {type(config).__name__}"
            )
        self.config = config
        self.plan = query.build_plan()
        #: Decay clock (None unless built with ``decay=RATE/EVERY``). The
        #: wrap must happen *before* the view tree is built so every
        #: lifting closure and compiled kernel sees the decayed ring.
        self.decay_ring: Optional[DecayRing] = None
        self._decay_every = 0
        decay_spec = config.decay_spec()
        if decay_spec is not None:
            try:
                self.plan.ring = DecayRing(self.plan.ring, decay_spec.rate)
            except RingError as exc:
                raise EngineError(
                    f"decay={decay_spec.describe()!r} cannot run query "
                    f"{query.name!r}: {exc}"
                ) from exc
            self.decay_ring = self.plan.ring
            self._decay_every = decay_spec.every
        self.tree: ViewTree = build_view_tree(query, order=order, plan=self.plan)
        #: Leaf relations under each view's subtree: each summand of view
        #: ``v`` carries exactly ``k_v`` boosted leaf factors, so the
        #: settle rebase for ``v`` is ``rate ** (ticks * k_v)``.
        self._decay_leaf_counts: Dict[str, int] = (
            {
                name: _subtree_leaf_count(view)
                for name, view in self.tree.views.items()
            }
            if self.decay_ring is not None
            else {}
        )
        #: Cofactor plans: layout slots of the features lifted in each
        #: view's subtree — every term of a payload of that view is a
        #: product of one lift per such feature, so this is its support.
        self._view_supports: Dict[str, Tuple[int, ...]] = {}
        layout = self.plan.layout
        for view in self.tree.all_views() if layout is not None else ():
            slots = {layout.index(attr) for attr in view.lifted}
            slots.update(*(self._view_supports[c.name] for c in view.children))
            self._view_supports[view.name] = tuple(sorted(slots))
        ring = self.plan.ring
        #: Whether views are slot stores — the predicate that also
        #: selects the fused path.
        self._stored = ring.has_bulk_kernels and not ring.is_scalar
        self.materialized: Dict[str, Any] = {}
        self.profile_stages = config.profile_stages
        self.probe_plan = build_probe_plan(self.tree)
        #: Relations observed since initialize / restore.
        self._observed: Set[str] = set()
        #: View names children before parents: reports, exports and the
        #: load list views in the order evaluation visits them.
        self._view_order = tuple(view.name for view in self.tree.all_views())
        # Maintenance paths and per-view lifting dicts are pure functions
        # of the static tree; precompute them so apply() does no per-update
        # work proportional to tree depth beyond the propagation itself.
        self._paths = {}
        for name in self.tree.leaf_of:
            path = self.tree.path_to_root(name)
            leaf = path[0]
            leaf_lifts = {attr: self.plan.lifts[attr] for attr in leaf.lifted}
            inner = tuple(
                (view, {attr: self.plan.lifts[attr] for attr in view.lifted})
                for view in path[1:]
            )
            self._paths[name] = (leaf, leaf_lifts, inner)
        #: Fused columnar programs, one per vectorizable relation path —
        #: like the probe plan a pure function of the static tree, so the
        #: schema evolution along each path is compiled once here rather
        #: than per batch. Scalar rings get none: their dict fast paths
        #: beat the kernels' fixed cost at every batch size.
        self._fused_paths: Dict[str, FusedPath] = {}
        if self._stored:
            for name in self._paths:
                fpath = compile_fused_path(self, name)
                if fpath is not None:
                    self._fused_paths[name] = fpath

    # ------------------------------------------------------------------

    def initialize(self, database: Database) -> None:
        relations = self._base_relations(database)
        if len(self._fused_paths) == len(self._paths):
            self._load(relations)
        else:
            self.materialized = {}
            # Views come out of evaluate_tree in their long-lived form, so
            # there is no second pass over the freshly materialized data.
            evaluate_tree(
                self.tree, relations, self.materialized, install=self._install_view
            )
        self._initialized = True
        self._after_restore()

    def _base_relations(self, database: Database) -> Dict[str, Relation]:
        """The query's relations in ``database``, each checked against the
        schema its leaf and its compiled path were built for."""
        relations = {}
        for name in self.query.relation_names:
            if name not in database:
                raise EngineError(
                    f"cannot initialize {self.query.name!r}: the database has "
                    f"no relation {name!r}"
                )
            relation = database.relation(name)
            expected = tuple(self.query.schema_of(name).attributes)
            if tuple(relation.schema) != expected:
                raise EngineError(
                    f"cannot initialize {self.query.name!r}: relation {name!r} "
                    f"has schema {relation.schema!r}, the query reads {expected!r}"
                )
            relations[name] = relation
        return relations

    def _load(self, relations: Dict[str, Relation]) -> None:
        """Initialization as maintenance: every view starts empty, and each
        relation's contents go up its own fused path as insert deltas of
        ``_LOAD_CHUNK_ROWS`` rows, smallest relation first.

        The sum of the inserts is the database, so the views come out as
        :func:`evaluate_tree` would evaluate them (float group sums may
        associate differently). Dimension relations load before the
        facts that join them, so a fact chunk's transient blocks stay the
        size of one batch's. The load counts into scratch statistics and
        each relation's probes build indexes only for its own load: no
        counter moves, nothing is observed and every index is
        registered, not built, as after :func:`evaluate_tree`.
        """
        ring = self.plan.ring
        self.materialized = {
            name: self._install_view(
                Relation(self.tree.views[name].key, ring, name=name)
            )
            for name in self._view_order
        }
        stats, self.stats = self.stats, EngineStatistics()
        try:
            for name in sorted(relations, key=lambda name: len(relations[name])):
                base, fpath = relations[name], self._fused_paths[name]
                rows = iter(base.data.items())
                while True:
                    # Our own chunk relations: the caller's keep no
                    # columnar cache.
                    chunk = Relation(base.schema, base.ring, name=name)
                    chunk.data = dict(islice(rows, _LOAD_CHUNK_ROWS))
                    if not chunk.data:
                        break
                    fpath.apply(self, chunk)
                # A path never writes the siblings it probes, so no index
                # is maintained while a relation loads.
                for view in self.materialized.values():
                    view.pending.update(view.indexes)
                    view.indexes.clear()
        finally:
            self.stats = stats

    def apply(self, relation_name: str, delta: Relation) -> None:
        self._require_initialized()
        self._check_delta(relation_name, delta)
        if not delta.data:
            return
        if relation_name not in self._observed:
            self._observe((relation_name,))
        stats = self.stats
        fpath = self._fused_paths.get(relation_name)
        if fpath is not None and len(delta.data) >= stats.COLUMNAR_MIN_DELTA:
            fpath.apply(self, delta)
            return
        stats.record_batch(delta)
        stored = self._stored
        materialized = self.materialized
        view_sizes = stats.view_sizes
        leaf, leaf_lifts, inner = self._paths[relation_name]
        current = delta.lift(self.plan.ring, leaf.key, leaf_lifts)
        leaf_view = materialized[leaf.name]
        dropped = leaf_view.add_inplace(current)
        if stored:
            # A store reports the probe-array caches a key insert or
            # delete cost it; small batches must account for them too.
            stats.mirror_invalidations += dropped
        view_sizes[leaf.name] = len(leaf_view)
        probe_steps = self.probe_plan.path_steps[relation_name]
        scan_ratio = stats.ADAPTIVE_SCAN_RATIO
        scan_min_delta = stats.ADAPTIVE_SCAN_MIN_DELTA
        for position, (view, lifts) in enumerate(inner):
            if not current.data:
                break
            joined = current
            for step in probe_steps[position]:
                sibling = materialized[step.sibling]
                if (
                    len(joined.data) >= scan_min_delta
                    and len(joined.data) > scan_ratio * len(sibling)
                ):
                    # The delta dwarfs the sibling: one hash join over
                    # the small sibling beats per-entry index probes.
                    joined = joined.join(sibling.copy() if stored else sibling)
                    stats.scan_steps += 1
                else:
                    # O(|delta| x matches): probe the persistent index
                    # (materialized lazily on the first probe).
                    index = sibling.ensure_index(step.attrs)
                    probes, hits = index.probes, index.hits
                    joined = joined.join_probe(sibling, index)
                    stats.index_probes += index.probes - probes
                    stats.index_hits += index.hits - hits
                    stats.probe_steps += 1
                if not joined.data:
                    break
            if not joined.data:
                # The delta annihilated mid-join: every view above receives
                # nothing, so stop before marginalize — with 3+ children the
                # partial join may not even carry all of view.key yet.
                break
            current = joined.marginalize(view.key, lifts)
            stats.delta_tuples_propagated += len(current.data)
            target = materialized.get(view.name)
            if target is None:
                continue  # not stored: the delta only passes through
            dropped = target.add_inplace(current)
            if stored:
                stats.mirror_invalidations += dropped
            view_sizes[view.name] = len(target)

    def _before_many(self, relation_names) -> None:
        # A coalesced batch is observed as a whole: a view one relation's
        # path probes is then never dropped by another relation's first
        # delta only to be rebuilt when the next one applies.
        if self._initialized:
            self._observe(
                [name for name in relation_names if name in self._paths]
            )

    def _observe(self, relation_names) -> None:
        """Grow the observed set by relations about to receive deltas.

        The dropped views their paths probe are rebuilt (:meth:`_derive`)
        and installed with their indexes (pending decay settled first, so
        they join the tick-zero state); then the inner views on their
        paths that no observed path probes are dropped. A probed view is
        never dropped again, so each view is rebuilt at most once.
        """
        new = [name for name in relation_names if name not in self._observed]
        if not new:
            return
        path_steps = self.probe_plan.path_steps

        def probed(relations):
            return {
                step.sibling
                for relation in relations
                for steps in path_steps[relation]
                for step in steps
            }

        materialized = self.materialized
        stats = self.stats
        wanted = probed(new)
        missing = [
            name for name in self._view_order
            if name in wanted and name not in materialized
        ]
        if missing:
            self._settle_decay()
        for name in missing:
            rebuilt = self._derive(name)[name]
            materialized[name] = self._install_view(rebuilt)
            stats.view_sizes[name] = len(rebuilt)
            stats.views_rebuilt += 1
        self._observed.update(new)
        kept = probed(self._observed) | {self.tree.root.name}
        for name in new:
            for view, _lifts in self._paths[name][2]:
                if view.name not in kept:
                    materialized.pop(view.name, None)
                    stats.view_sizes.pop(view.name, None)

    def _derive(self, name: str) -> Dict[str, Relation]:
        """Re-derive the dropped view ``name`` from the stored views.

        Returns it with the dropped views below it the derivation passed.
        A view is dropped only from an observed relation's path, and
        every sibling such a path probes is stored: with a fused program,
        that path's ladder recomputes the view in bulk
        (:meth:`FusedPath.derive`); otherwise :func:`evaluate_view` joins
        its children entry by entry.
        """
        for relation, (_leaf, _lifts, inner) in self._paths.items():
            fpath = self._fused_paths.get(relation)
            if (
                fpath is not None
                and relation in self._observed
                and any(view.name == name for view, _ in inner)
            ):
                return fpath.derive(self, name)
        derived: Dict[str, Relation] = {}
        evaluate_view(
            self.tree, self.tree.views[name], {}, derived, stored=self.materialized
        )
        return derived

    def result(self) -> Relation:
        """The root view; for a stored view, a relation of payload copies
        (the root holds a few rows), so callers never alias a row that
        maintenance later adds into."""
        self._require_initialized()
        self._settle_decay()
        root = self.materialized[self.tree.root.name]
        return root.copy() if self._stored else root

    # ------------------------------------------------------------------
    # Decay (exponential forgetting)
    # ------------------------------------------------------------------

    def _decay_interval(self) -> int:
        return self._decay_every

    def advance_decay(self, ticks: int = 1) -> None:
        """Advance the decay clock; settles automatically on boost overflow.

        Stored payloads are untouched — only the ring's entry boost moves —
        unless the boost would exceed the ring's limit, in which case the
        pending decay is folded into every view (rescale-on-overflow) and
        the clock rebases to zero.
        """
        ring = self.decay_ring
        if ring is None:
            super().advance_decay(ticks)
        ring.advance(ticks)
        self.stats.decay_ticks += ticks
        if ring.needs_rescale:
            self._settle_decay()
            self.stats.decay_rescales += 1

    def _settle_decay(self) -> None:
        """Fold the pending decay into every stored view (lazy rebase).

        Each view ``v`` is scaled by ``rate ** (ticks * k_v)`` where
        ``k_v`` counts the leaf relations under its subtree — a stored
        view in one block multiply, a dict view payload by payload
        (*replaced*, never mutated: published snapshots sharing them
        stay frozen) — and the clock resets. Idempotent; a no-op on
        undecayed engines and at tick zero, so :meth:`result` and
        :meth:`_export_payload` call it unconditionally.
        """
        ring = self.decay_ring
        if ring is None or ring.ticks == 0:
            return
        scale_float = ring.base.scale_float
        for name, view in self.materialized.items():
            factor = ring.settle_factor(self._decay_leaf_counts[name])
            if factor == 1.0:
                continue
            if self._stored:
                view.rescale(factor)
                continue
            data = view.data
            for key, payload in data.items():
                data[key] = scale_float(payload, factor)
            view._columnar = None
            # Buckets alias the replaced payloads; a bucket's entries are
            # in view order, so rebuilding from the view keeps that order.
            for index in getattr(view, "indexes", {}).values():
                index.build(data)
        ring.reset()
        self.stats.decay_settles += 1

    # ------------------------------------------------------------------

    def view(self, name: str):
        """A named view (for inspection and tests): the stored relation or
        slot store (whose read API hands out copies), or — for a view the
        engine dropped — a relation re-derived from its children, which
        is not stored again."""
        self._require_initialized()
        stored = self.materialized.get(name)
        if stored is not None:
            return stored
        if name not in self.tree.views:
            raise EngineError(f"unknown view {name!r}")
        return self._derive(name)[name]

    def total_view_tuples(self) -> int:
        """Total number of stored key-payload entries (memory proxy)."""
        return sum(len(relation) for relation in self.materialized.values())

    def memory_report(self) -> Dict[str, Dict[str, Any]]:
        """Per-view entry counts, payload weights and index overhead.

        ``entries`` is the number of keys; ``payload_weight`` counts the
        scalar cells inside the payloads — one count per entry plus the
        non-zero vector/matrix cells of cofactor payloads, which a stored
        view's ring reads off its block (``ring.nonzero_cells``) — the
        factorization-aware memory measure the engine paper reports.
        Cofactor plans add ``support``, the names of the features lifted
        in the view's subtree. Views carrying persistent indexes
        additionally report ``indexes`` (how many), their total
        ``index_entries`` (one per live key per index; payloads are
        shared, not copied) and ``index_buckets``. Stored views add
        ``capacity`` (rows allocated) and ``free_slots`` (rows deletes
        gave back). ``stored`` tells the views the engine keeps from the
        ones it dropped; a dropped view is listed as
        ``{"entries": 0, "stored": False}``.
        """
        report: Dict[str, Dict[str, Any]] = {}
        ring = self.plan.ring
        for name in self._view_order:
            relation = self.materialized.get(name)
            if relation is None:
                report[name] = {"entries": 0, "stored": False}
                continue
            if self._stored:
                # Free and unused rows are exact zeros: they weigh nothing.
                entry = {
                    "entries": len(relation),
                    "payload_weight": len(relation) + ring.nonzero_cells(relation.block),
                    "capacity": relation.capacity,
                    "free_slots": len(relation.free),
                }
            else:
                weight = sum(
                    _payload_weight(payload) for payload in relation.data.values()
                )
                entry = {"entries": len(relation), "payload_weight": weight}
            entry["stored"] = True
            support = self._view_supports.get(name)
            if support is not None:
                entry["support"] = tuple(self.plan.layout.attributes[i] for i in support)
            indexes = getattr(relation, "indexes", None)
            if indexes:
                entry["indexes"] = len(indexes)
                entry["index_entries"] = sum(
                    index.entry_count() for index in indexes.values()
                )
                entry["index_buckets"] = sum(
                    index.bucket_count() for index in indexes.values()
                )
            report[name] = entry
        return report

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    state_payload = "views"

    def _export_payload(self) -> dict:
        """Snapshot of every view of the tree (picklable).

        The payload plan holds lifting closures, so the engine object
        itself is not serialized — recreate it from the query and restore
        the snapshot with :meth:`import_state`. Pending decay is settled
        first, so snapshots always hold tick-zero (fully rebased) state
        and restore into any compatible engine without a decay clock.
        Dropped views are re-derived (:meth:`_derive`) top-down, so one
        derivation also yields the dropped views below it: the snapshot
        has the same form whatever the engine stores.
        """
        self._settle_decay()
        materialized = self.materialized
        derived: Dict[str, Relation] = {}
        for name in reversed(self._view_order):
            if name not in materialized and name not in derived:
                derived.update(self._derive(name))
        views: Dict[str, Any] = {}
        for name in self._view_order:
            stored = materialized.get(name)
            views[name] = stored.copy().data if stored is not None else derived[name].data
        return {"views": views}

    def _import_payload(self, state) -> None:
        """Restore the materialized views of a snapshot.

        The engine must have been built for the same query/order (the
        header provenance is checked by the base class; view names are
        additionally validated against the current tree). Ring-zero
        payloads in the snapshot are dropped on restore (snapshots
        written while a cancellation was parked would otherwise silently
        inflate view sizes), and persistent view indexes are rebuilt
        from the restored materializations. Rings whose payloads carry a
        support (``ring.project``) get every payload re-expressed over
        its view's subtree support — snapshots from when every view held
        dense payloads still restore — and a non-zero aggregate outside
        it is a :class:`CheckpointError` naming the view.
        """
        views = state["views"]
        missing = set(self.tree.views) - set(views)
        unexpected = set(views) - set(self.tree.views)
        if missing or unexpected:
            raise EngineError(
                f"snapshot does not match the view tree "
                f"(missing={sorted(missing)}, unexpected={sorted(unexpected)})"
            )
        self.materialized = {}
        project = getattr(self.plan.ring, "project", None)
        for name, data in views.items():
            view = self.tree.views[name]
            if project is not None:
                support = self._view_supports[name]
                try:
                    data = {key: project(p, support) for key, p in data.items()}
                except RingError as exc:
                    raise CheckpointError(
                        f"snapshot view {name!r} does not fit its subtree's features: {exc}"
                    ) from exc
            # The constructor validates keys and filters ring-zero payloads.
            self.materialized[name] = self._install_view(
                Relation(view.key, self.plan.ring, data=data, name=name)
            )

    def _after_restore(self) -> None:
        """Every view is stored again and nothing is observed yet."""
        self._observed = set()
        self._refresh_view_sizes()

    # ------------------------------------------------------------------

    def _install_view(self, relation: Relation):
        """The long-lived form of one evaluated or restored view.

        A slot store for bulk non-scalar rings; otherwise an
        :class:`IndexedRelation` when some maintenance path probes the
        view (the probe plan names exactly those attribute tuples) and
        the plain relation when none does (e.g. the root). Indexes are
        only registered here; the hash maps materialize on first probe.
        """
        specs = self.probe_plan.index_specs.get(relation.name, ())
        if self._stored:
            view = SlotStore.from_relation(
                relation, self._view_supports.get(relation.name, ())
            )
        elif specs:
            view = IndexedRelation.from_relation(relation)
        else:
            return relation
        for attrs in specs:
            view.register_index(attrs)
        return view

    def _refresh_view_sizes(self) -> None:
        """Full recomputation — initialization/restore only; ``apply``
        updates just the touched path."""
        self.stats.view_sizes = {
            name: len(relation) for name, relation in self.materialized.items()
        }


def _subtree_leaf_count(view) -> int:
    """Leaf relations under ``view``'s subtree (1 for a leaf view)."""
    if view.is_leaf:
        return 1
    return sum(_subtree_leaf_count(child) for child in view.children)


def _payload_weight(payload) -> int:
    """Scalar cells inside one dict-view payload: a scalar, or a general
    cofactor over a numeric scalar ring (one count, sparse ``s`` and ``Q``)."""
    if hasattr(payload, "q"):
        return 1 + len(payload.s) + len(payload.q)
    return 1
