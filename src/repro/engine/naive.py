"""Naive baseline: re-evaluate the query after every update batch.

The floor of the comparison: correctness is trivial, cost scales with the
full database size on every batch. Re-evaluation is F-IVM's own
initialization over the current relations: an inner
:class:`~repro.engine.fivm.FIVMEngine` loads them up the same compiled
programs F-IVM maintains deltas with, and keeps only the root between
refreshes. ``refresh_on_apply=False`` defers the
recomputation to :meth:`result` (useful when a caller applies many batches
and reads once; the default models the demo's refresh-per-bulk behaviour).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine.base import MaintenanceEngine
from repro.engine.fivm import FIVMEngine
from repro.errors import EngineError
from repro.query.query import Query
from repro.query.variable_order import VariableOrder
from repro.viewtree.builder import ViewTree

__all__ = ["NaiveEngine"]


class NaiveEngine(MaintenanceEngine):
    """Recompute-from-scratch maintenance."""

    strategy = "naive"

    def __init__(
        self,
        query: Query,
        order: Optional[VariableOrder] = None,
        refresh_on_apply: bool = True,
    ):
        super().__init__(query)
        self._evaluator = FIVMEngine(query, order=order)
        self.plan = self._evaluator.plan
        self.tree: ViewTree = self._evaluator.tree
        self.refresh_on_apply = refresh_on_apply
        self._relations: Dict[str, Relation] = {}
        self._result: Optional[Relation] = None
        self._stale = True

    def initialize(self, database: Database) -> None:
        self._relations = {
            name: database.relation(name).copy()
            for name in self.query.relation_names
        }
        self._result = evaluate(self._evaluator, self._relations)
        self._stale = False
        self._initialized = True

    def apply(self, relation_name: str, delta: Relation) -> None:
        self._require_initialized()
        self._check_delta(relation_name, delta)
        if not delta.data:
            return
        self.stats.record_batch(delta)
        self._relations[relation_name].add_inplace(delta)
        if self.refresh_on_apply:
            self._result = evaluate(self._evaluator, self._relations)
            self._stale = False
        else:
            self._stale = True

    def apply_many(self, updates) -> None:
        """Coalesce the batch, then re-evaluate once at the end.

        Without this override a refresh-per-apply naive engine would
        re-evaluate once per touched relation; deferring to a single
        refresh is what makes batching pay off for the baseline too.
        """
        refresh = self.refresh_on_apply
        self.refresh_on_apply = False
        try:
            super().apply_many(updates)
        finally:
            self.refresh_on_apply = refresh
        if refresh and self._stale:
            self._result = evaluate(self._evaluator, self._relations)
            self._stale = False

    def result(self) -> Relation:
        self._require_initialized()
        if self._stale:
            self._result = evaluate(self._evaluator, self._relations)
            self._stale = False
        return self._result

    # ------------------------------------------------------------------
    # Checkpointing: base relations plus the current result. The same
    # "relations" payload kind as FirstOrderEngine, so the two baselines
    # restore each other's snapshots.
    # ------------------------------------------------------------------

    state_payload = "relations"

    def _export_payload(self) -> dict:
        return {
            "relations": {
                name: dict(relation.data)
                for name, relation in self._relations.items()
            },
            "result": dict(self.result().data),
        }

    def _import_payload(self, state) -> None:
        self._relations = _restore_relations(self.query, state["relations"])
        self._result = _restore_result(self.tree, state.get("result"))
        if self._result is None:
            self._result = evaluate(self._evaluator, self._relations)
        self._stale = False


def evaluate(engine: FIVMEngine, relations: Dict[str, Relation]) -> Relation:
    """The query's result over ``relations`` (name -> relation):
    ``engine`` initialized over them, keeping only its root."""
    engine.initialize(Database.from_dict(relations))
    root = engine.tree.root.name
    engine.materialized = {root: engine.materialized[root]}
    return engine.result()


def _restore_relations(query, relations) -> Dict[str, Relation]:
    """Rebuild base relations from a ``"relations"`` snapshot payload."""
    expected = set(query.relation_names)
    if set(relations) != expected:
        raise EngineError(
            f"snapshot relations {sorted(relations)} do not match the "
            f"query's {sorted(expected)}"
        )
    restored = {}
    for name, data in relations.items():
        schema = query.schema_of(name).attributes
        # Z-relation constructor validates keys, drops zero multiplicities.
        restored[name] = Relation(schema, data=data, name=name)
    return restored


def _restore_result(tree, data) -> Optional[Relation]:
    """Rebuild the maintained result (``None`` when the snapshot lacks it)."""
    if data is None:
        return None
    return Relation(
        tree.root.key, tree.plan.ring, data=data, name=tree.root.name
    )
