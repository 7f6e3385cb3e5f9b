"""First-order IVM baseline: maintain the result, recompute deltas.

Classical incremental view maintenance keeps only the query result
materialized. For an update δR it evaluates the *delta query*
``Q(R1, ..., δR, ..., Rn)`` — joins are linear in each input relation, so
this is exactly the change of the result — against the **current base
relations**, then folds it in. The delta query is F-IVM's initialization
over those relations with R replaced by δR, run by an inner
:class:`~repro.engine.fivm.FIVMEngine` that keeps only the root between
deltas (:func:`repro.engine.naive.evaluate`). No intermediate aggregates
are stored, so every update pays to re-aggregate the other relations
along the delta's join path; this is the per-update cost F-IVM's
materialized sibling views avoid, and the gap the paper's DBToaster
comparison measures.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine.base import MaintenanceEngine
from repro.engine.fivm import FIVMEngine
from repro.engine.naive import _restore_relations, _restore_result, evaluate
from repro.query.query import Query
from repro.query.variable_order import VariableOrder
from repro.viewtree.builder import ViewTree

__all__ = ["FirstOrderEngine"]


class FirstOrderEngine(MaintenanceEngine):
    """Maintain only the query result; deltas join against base relations."""

    strategy = "first-order"

    def __init__(self, query: Query, order: Optional[VariableOrder] = None):
        super().__init__(query)
        self._evaluator = FIVMEngine(query, order=order)
        self.plan = self._evaluator.plan
        self.tree: ViewTree = self._evaluator.tree
        self._relations: Dict[str, Relation] = {}
        self._result: Optional[Relation] = None

    def initialize(self, database: Database) -> None:
        self._relations = {
            name: database.relation(name).copy()
            for name in self.query.relation_names
        }
        self._result = evaluate(self._evaluator, self._relations)
        self._initialized = True

    def apply(self, relation_name: str, delta: Relation) -> None:
        self._require_initialized()
        self._check_delta(relation_name, delta)
        if not delta.data:
            return
        self.stats.record_batch(delta)
        # Delta query: same tree, with the updated relation replaced by δ
        # (under its relation's name; the data are shared, not copied).
        substituted = dict(self._relations)
        substituted[relation_name] = replaced = Relation(delta.schema, name=relation_name)
        replaced.data = delta.data
        delta_result = evaluate(self._evaluator, substituted)
        self.stats.delta_tuples_propagated += len(delta_result.data)
        self._result.add_inplace(delta_result)
        self._relations[relation_name].add_inplace(delta)

    def result(self) -> Relation:
        self._require_initialized()
        return self._result

    # ------------------------------------------------------------------
    # Checkpointing: shares the "relations" payload kind with NaiveEngine
    # (both maintain exactly the base relations plus the result).
    # ------------------------------------------------------------------

    state_payload = "relations"

    def _export_payload(self) -> dict:
        return {
            "relations": {
                name: dict(relation.data)
                for name, relation in self._relations.items()
            },
            "result": dict(self._result.data),
        }

    def _import_payload(self, state) -> None:
        self._relations = _restore_relations(self.query, state["relations"])
        self._result = _restore_result(self.tree, state.get("result"))
        if self._result is None:
            self._result = evaluate(self._evaluator, self._relations)
