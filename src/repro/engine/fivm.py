"""The F-IVM engine — factorized higher-order IVM over a view tree — and
the baselines it is evaluated against, as storage policies of it.

This is the paper's primary contribution. An update δR touches only the
views on the leaf-to-root path of R (Figure 1, right): the delta is lifted
into payload space at R's leaf view, joined with the *stored* sibling
views at each inner node, marginalized through the node's variable, and
folded into the node's view when that view is stored — regardless of the
payload ring.

Every relation has one compiled maintenance program
(:class:`~repro.engine.compile.FusedPath`), whatever the payload ring:
an update is one call to it.

Initialization stores every view, and it is maintenance: every view
starts empty, and each base relation's contents go up its own compiled
program as insert deltas, smallest relation first. The sum of the
inserts is the database, so the views are the join of their children
with their variables summed out — the compiled programs are the only
code that computes a view (:meth:`FIVMEngine._load` says which mode
loads which ring).

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
the stored view below it run up an observed path's program as one delta
(:meth:`~repro.engine.compile.FusedPath.derive`).

The baselines are the same engine with another storage policy, the
class attribute ``keeps`` (decided at construction, restore and
observation, never per delta):

- :class:`FIVMEngine` (``"probed"``) stores the root, the leaves and the
  siblings an observed path probes, as above;
- :class:`FirstOrderEngine` (``"root"``), first-order IVM, stores the
  leaves and the root. Before each delta it derives the siblings the
  delta's path probes from the leaves, runs the same compiled program
  (the inner views only pass the delta through) and drops them again:
  every update pays to re-aggregate the other relations along its path,
  the cost F-IVM's stored siblings save;
- :class:`NaiveEngine` (``"leaves"``), re-evaluation, stores only the
  leaves. Its programs stop at the leaf, and :meth:`~FIVMEngine.result`
  and exports derive the root from the leaves on every read.

Deriving a view the engine does not store (:meth:`FIVMEngine._derive`)
recurses: a sibling the derivation probes that is not stored is derived
first. Leaves are always stored, so it ends. Every policy snapshots every
view (``"views"``), so each restores the others' checkpoints.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import islice
from typing import Any, ClassVar, Dict, FrozenSet, Iterable, Iterator, Optional, Set, Tuple

from repro.config import EngineConfig
from repro.data.database import Database
from repro.data.index import IndexedRelation
from repro.data.relation import Relation
from repro.data.store import SlotStore
from repro.engine.base import EngineStatistics, MaintenanceEngine
from repro.engine.compile import FusedPath, compile_fused_path
from repro.errors import CheckpointError, EngineError, RingError
from repro.query.query import Query
from repro.query.variable_order import VariableOrder
from repro.viewtree.builder import ViewTree, build_probe_plan, build_view_tree

__all__ = ["FIVMEngine", "FirstOrderEngine", "NaiveEngine"]

#: Rows per insert delta when a slot-store engine loads a relation up its
#: compiled program (see :meth:`FIVMEngine._load`) — the paper's flush size.
#: Smaller chunks lower the load's memory peak and cost time: on the
#: benchmark's MI scenario VmHWM read 53.9 / 55.7 / 57.2 / 59.6 MB at
#: 250 / 500 / 1000 / 2000 rows, while the bulk COVAR load took 0.21 /
#: 0.20 / 0.13 / 0.13 s at flat VmHWM (medians of 3, 2-core Xeon, Python
#: 3.11). Dict-view engines load each relation as one row-mode delta.
_LOAD_CHUNK_ROWS = 1000


class FIVMEngine(MaintenanceEngine):
    """Higher-order factorized incremental view maintenance.

    :meth:`initialize` stores every view by loading the database up the
    compiled programs (:meth:`_load`), whatever the ring.

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
    payload ring has bulk kernels — the cofactor rings: numeric COVAR,
    and MI / mixed COVAR over the sparse relational ring — every view is
    a :class:`~repro.data.store.SlotStore` (one ring block per view,
    both modes of the compiled program read and write its rows);
    otherwise (counts, sums, the semirings, the reference rings in
    ``tests/``) views are dict relations, indexed where probed. Decay
    does not change the ring, so it does not change the view form.

    Every delta is maintained by its relation's **compiled program**
    (:class:`~repro.engine.compile.FusedPath`), which picks its mode by
    the delta's size alone:

    - **columnar** — from ``EngineStatistics.COLUMNAR_MIN_DELTA`` keys
      on, on slot stores only, and when every lifting function on the
      path is bulk-liftable: key columns plus one payload block, lift /
      probe / multiply / group-sum as whole-batch kernels;
    - **row** — every other delta, on every engine: one payload per key,
      the compiled positions driving index probes (``matches`` of the
      sibling's index), ring products and dict grouping, no
      :class:`Relation` built. Scalar rings run it on plain ``*`` / ``+``.

    Scalar rings keep dict views: on them row mode beats slot stores in
    either mode at every batch size measured (see ``_stored``). Both
    modes issue the same payload products and produce the same views
    (bit for bit where the float sums are exact; a columnar group-sum
    may associate differently, like any batch-size change).
    Setting the engine's ``profile_stages`` attribute (default
    ``False``) accumulates per-stage wall-clock seconds
    (lift/probe/multiply/group/scatter) of both modes of the compiled
    program into ``stats.stage_seconds`` — the per-stage breakdown
    ``bench/run.py --trace 1`` reports.
    """

    strategy = "fivm"

    #: Storage policy (see the module docstring): ``"probed"`` stores the
    #: root, the leaves and the siblings observed paths probe; the
    #: baseline subclasses set ``"root"`` (leaves and root) or
    #: ``"leaves"``.
    keeps: ClassVar[str] = "probed"

    #: Pending decay is settled into the views before the boost exceeds
    #: this (well inside the float range): rescale-on-overflow.
    BOOST_LIMIT = 1e100

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
        ring = self.plan.ring
        #: Decay clock (:mod:`repro.rings.decay`): the rate (``None``
        #: unless built with ``decay=RATE/EVERY``), the ticks since the
        #: views were last settled, and the boost ``rate ** -pending_ticks``
        #: the compiled leaf lifts multiply every new payload by.
        self.decay_rate: Optional[float] = None
        self.pending_ticks = 0
        self.boost = 1.0
        self._decay_every = 0
        decay_spec = config.decay_spec()
        if decay_spec is not None:
            if not ring.has_float_scaling:
                raise EngineError(
                    f"decay={decay_spec.describe()!r} cannot run query "
                    f"{query.name!r}: ring {ring.name!r} cannot scale payloads "
                    "by a float — exponential decay needs a float-weighted "
                    "ring (sum/covar)"
                )
            self.decay_rate = decay_spec.rate
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
            if self.decay_rate is not None
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
        #: Whether views are slot stores, and so whether the compiled
        #: programs may run columnar: the cofactor rings. Scalar rings
        #: have no block kernels — on the count sweep of
        #: ``benchmarks/bench_delta_latency.py`` (retailer, 40k Inventory
        #: rows; µs/update at batch 1 / 10 / 100 / 1000, medians of 10
        #: sweeps, 2-core Xeon, Python 3.11) dict views in row mode took
        #: 28.9 / 10.6 / 7.6 / 6.1, slot stores 44.1 / 61.1 / 13.3 / 7.5,
        #: and slot stores pinned to row mode 44.9 / 18.1 / 11.9 / 10.8.
        self._stored = ring.has_bulk_kernels
        self.materialized: Dict[str, Any] = {}
        self.profile_stages = False
        self.probe_plan = build_probe_plan(self.tree)
        #: Relations observed since initialize / restore.
        self._observed: Set[str] = set()
        #: View names children before parents: reports, exports and the
        #: load list views in this order.
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
        #: Compiled maintenance programs, one per relation path, for
        #: every ring — like the probe plan a pure function of the static
        #: tree, so the schema evolution along each path is compiled once
        #: here rather than per batch.
        self._fused_paths: Dict[str, FusedPath] = {
            name: compile_fused_path(self, name) for name in self._paths
        }
        #: The views a baseline policy stores between deltas; ``None``
        #: under F-IVM, whose stored set follows the observed relations.
        self._kept: Optional[FrozenSet[str]] = None
        if self.keeps != "probed":
            kept = {view.name for view in self.tree.leaf_of.values()}
            if self.keeps == "root":
                kept.add(self.tree.root.name)
            self._kept = frozenset(kept)

    # ------------------------------------------------------------------

    def initialize(self, database: Database) -> None:
        self._load(self._base_relations(database))
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
        relation's contents go up its own program as insert deltas,
        smallest relation first.

        The sum of the inserts is the database, so the views come out as
        the join of their children with their variables summed out (float
        group sums may associate differently from another load order).
        Dimension relations load before the facts that join them. When
        every program runs columnar (slot stores) the deltas are
        ``_LOAD_CHUNK_ROWS`` rows, so a fact chunk's transient blocks stay
        the size of one batch's; otherwise (dict views: count, sum, the
        semirings, the reference rings) each relation is one row-mode
        delta. The load counts into scratch statistics and each
        relation's probes build indexes only for its own load: no counter
        moves, nothing is observed and every index is registered, not
        built.
        """
        fpaths = self._fused_paths
        columnar = all(fpath.bulk for fpath in fpaths.values())
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
                base, fpath = relations[name], fpaths[name]
                if columnar:
                    load = fpath.columnar
                    items = iter(base.data.items())
                    chunks = iter(lambda: dict(islice(items, _LOAD_CHUNK_ROWS)), {})
                else:  # the whole relation as one delta, not copied
                    load = fpath.rows
                    chunks = (base.data,) if base.data else ()
                for data in chunks:
                    # Our own chunk relations: the caller's keep no
                    # columnar cache.
                    chunk = Relation(base.schema, base.ring, name=name)
                    chunk.data = data
                    load(self, chunk)
                # A path never writes the siblings it probes, so no index
                # is maintained while a relation loads.
                for view in self.materialized.values():
                    indexes = getattr(view, "indexes", None)
                    if indexes:
                        view.pending.update(indexes)
                        indexes.clear()
        finally:
            self.stats = stats

    def apply(self, relation_name: str, delta: Relation) -> None:
        self._require_initialized()
        self._check_delta(relation_name, delta)
        if not delta.data:
            return
        if relation_name not in self._observed:
            self._observe((relation_name,))
        self._fused_paths[relation_name].apply(self, delta)

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
        if self._kept is not None:
            # A baseline's stored set does not depend on what it observes.
            self._observed.update(new)
            return
        materialized = self.materialized
        stats = self.stats
        wanted = self._probed(new)
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
        kept = self._probed(self._observed) | {self.tree.root.name}
        for name in new:
            for view, _lifts in self._paths[name][2]:
                if view.name not in kept:
                    materialized.pop(view.name, None)
                    stats.view_sizes.pop(view.name, None)

    def _probed(self, relations: Iterable[str]) -> Set[str]:
        """The siblings the paths of ``relations`` probe."""
        path_steps = self.probe_plan.path_steps
        return {
            step.sibling
            for relation in relations
            for steps in path_steps[relation]
            for step in steps
        }

    def _derive(self, name: str) -> Dict[str, Relation]:
        """Re-derive the view ``name``, which the engine does not store.

        Returns it with the unstored views its derivation passed or
        probed. The program of a relation below the view — an observed
        one when there is one — recomputes it from the stored view
        nearest below it (:meth:`FusedPath.derive`); each sibling that
        program probes and the engine does not store is derived first,
        the same way, and stored while it is probed. F-IVM drops a view
        only from an observed path, and stores every sibling such a path
        probes, so its derivations never recurse; the baselines' recurse
        down to the leaves, which every policy stores.
        """
        relations = [
            relation
            for relation, (_leaf, _lifts, inner) in self._paths.items()
            if any(view.name == name for view, _ in inner)
        ]
        if not relations:
            raise EngineError(f"view {name!r} is on no relation's path")
        relation = next((r for r in relations if r in self._observed), relations[0])
        fpath = self._fused_paths[relation]
        stop = [step.view_name for step in fpath.steps].index(name) + 1
        siblings = [probe.sibling for step in fpath.steps[:stop] for probe in step.probes]
        with self._storing(siblings) as derived:
            derived.update(fpath.derive(self, name))
        return derived

    @contextmanager
    def _storing(self, names: Iterable[str]) -> Iterator[Dict[str, Relation]]:
        """Store the views ``names`` for the duration of the block: each
        one the engine does not store is derived (:meth:`_derive`),
        installed with its indexes, and dropped again on exit. Yields the
        views derived on the way."""
        materialized = self.materialized
        derived: Dict[str, Relation] = {}
        added = [name for name in dict.fromkeys(names) if name not in materialized]
        for name in added:
            if name not in derived:
                derived.update(self._derive(name))
        for name in added:
            materialized[name] = self._install_view(derived[name])
        try:
            yield derived
        finally:
            for name in added:
                materialized.pop(name, None)

    def result(self) -> Relation:
        """The root view; for a stored view, a relation of payload copies
        (the root holds a few rows), so callers never alias a row that
        maintenance later adds into. An engine that does not store the
        root derives it."""
        self._require_initialized()
        self._settle_decay()
        name = self.tree.root.name
        root = self.materialized.get(name)
        if root is None:
            return self._derive(name)[name]
        return root.copy() if self._stored else root

    # ------------------------------------------------------------------
    # Decay (exponential forgetting)
    # ------------------------------------------------------------------

    def _decay_interval(self) -> int:
        return self._decay_every

    def advance_decay(self, ticks: int = 1) -> None:
        """Advance the decay clock; settles automatically on boost overflow.

        Stored payloads are untouched — only the leaf lifts' boost moves —
        unless the boost exceeds ``BOOST_LIMIT``, in which case the
        pending decay is folded into every view (rescale-on-overflow) and
        the clock rebases to zero.
        """
        if self.decay_rate is None:
            super().advance_decay(ticks)
        if ticks < 0:
            raise EngineError("decay clock cannot run backwards")
        self.pending_ticks += ticks
        self.boost = self.decay_rate ** (-self.pending_ticks)
        self.stats.decay_ticks += ticks
        if self.boost > self.BOOST_LIMIT:
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
        ticks = self.pending_ticks
        if not ticks:
            return
        scale_float = self.plan.ring.scale_float
        for name, view in self.materialized.items():
            factor = self.decay_rate ** (ticks * self._decay_leaf_counts[name])
            if factor == 1.0:
                continue
            if self._stored:
                view.rescale(factor)
                continue
            data = view.data
            for key, payload in data.items():
                data[key] = scale_float(payload, factor)
            view._columnar = None
        self.pending_ticks = 0
        self.boost = 1.0
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
        additionally report ``indexes`` (how many) and what they hold:
        ``index_entries``, the keys in a partial index's buckets, and
        ``index_buckets``, its buckets — 0 for a whole-key index, which
        is the view's own key map and holds nothing itself. Stored views add
        ``capacity`` (rows allocated) and ``free_slots`` (rows deletes
        gave back), sparse cofactor views ``arena_cells`` (their row
        arena's cells, live or not). ``stored`` tells the views the engine
        keeps from the ones it dropped; a dropped view is listed as
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
                arena = getattr(relation.block, "codes", None)
                if arena is not None:
                    entry["arena_cells"] = len(arena)
            else:
                # Spec-built dict views hold scalar payloads: one cell each.
                entry = {"entries": len(relation), "payload_weight": len(relation)}
            entry["stored"] = True
            support = self._view_supports.get(name)
            if support is not None:
                entry["support"] = tuple(self.plan.layout.attributes[i] for i in support)
            indexes = getattr(relation, "indexes", None)
            if indexes:
                partial = [index for index in indexes.values() if not index.whole]
                entry["indexes"] = len(indexes)
                entry["index_entries"] = sum(index.entry_count() for index in partial)
                entry["index_buckets"] = sum(index.bucket_count() for index in partial)
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
        it is a :class:`CheckpointError` naming the view. Snapshots hold
        settled (tick-zero) state, so the decay clock restarts at zero.
        """
        views = state["views"]
        missing = set(self.tree.views) - set(views)
        unexpected = set(views) - set(self.tree.views)
        if missing or unexpected:
            raise EngineError(
                f"snapshot does not match the view tree "
                f"(missing={sorted(missing)}, unexpected={sorted(unexpected)})"
            )
        self.materialized = {
            name: self._restored_view(name, data) for name, data in views.items()
        }
        self.pending_ticks = 0
        self.boost = 1.0

    def _restored_view(self, name: str, data):
        """The long-lived form of view ``name`` from its snapshot payloads
        ``key -> payload`` (see :meth:`_import_payload`)."""
        project = getattr(self.plan.ring, "project", None)
        if project is not None:
            support = self._view_supports[name]
            try:
                data = {key: project(p, support) for key, p in data.items()}
            except RingError as exc:
                raise CheckpointError(
                    f"snapshot view {name!r} does not fit its subtree's features: {exc}"
                ) from exc
        # The constructor validates keys and filters ring-zero payloads.
        return self._install_view(
            Relation(self.tree.views[name].key, self.plan.ring, data=data, name=name)
        )

    def _after_restore(self) -> None:
        """Nothing is observed yet: F-IVM stores every view again, a
        baseline the views its policy keeps."""
        self._observed = set()
        if self._kept is not None:
            self.materialized = {
                name: view for name, view in self.materialized.items() if name in self._kept
            }
        self._refresh_view_sizes()

    # ------------------------------------------------------------------

    def _install_view(self, relation: Relation):
        """The long-lived form of one loaded or restored view.

        A slot store for the bulk (cofactor) rings; otherwise an
        :class:`IndexedRelation` when some maintenance path probes the
        view (the probe plan names exactly those attribute tuples) and
        the plain relation when none does (e.g. the root). Indexes are
        only registered here and built on first probe.
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


class FirstOrderEngine(FIVMEngine):
    """First-order IVM: the leaves and the root are stored, and each delta
    joins siblings derived from the leaves for it alone.

    Classical incremental view maintenance keeps only the result. An
    update δR is folded in through the *delta query*
    ``Q(R1, ..., δR, ..., Rn)`` — joins are linear in each input — here
    R's compiled program run against siblings re-aggregated from the
    leaves before the delta and dropped after it. No intermediate
    aggregate outlives a delta, which is the cost the paper's DBToaster
    comparison measures.
    """

    strategy = "first-order"
    keeps = "root"

    def apply(self, relation_name: str, delta: Relation) -> None:
        self._require_initialized()
        self._check_delta(relation_name, delta)
        if not delta.data:
            return
        with self._storing(self._probed((relation_name,))):
            super().apply(relation_name, delta)


class NaiveEngine(FIVMEngine):
    """Re-evaluation: only the leaves are stored, deltas stop there, and
    every read of the result derives the root from the leaves."""

    strategy = "naive"
    keeps = "leaves"
