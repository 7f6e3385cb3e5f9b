"""Per-aggregate baseline: one scalar view per COVAR entry.

F-IVM maintains the whole COVAR batch — ``1 + m + m(m+1)/2`` aggregates —
as a *single* compound ring payload, sharing keys, joins and the scalar
sub-aggregates across the batch (Section 2: "the scalar aggregates are
used to scale up the linear and quadratic ones..."). A system without
compound payloads maintains each aggregate as its own view. This engine
models that strategy: it runs one scalar :class:`FIVMEngine` per aggregate
(count, each ``SUM(X)``, each ``SUM(X*Y)``), so the comparison isolates the
benefit of ring batching from everything else — both sides use identical
view trees and delta processing.

Continuous features only: the baseline mirrors the paper's DBToaster
comparison, which ran the regression workload.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine.base import MaintenanceEngine
from repro.engine.fivm import FIVMEngine
from repro.errors import EngineError
from repro.query.query import Query
from repro.query.variable_order import VariableOrder
from repro.rings.lifting import Feature
from repro.rings.specs import CountSpec, SumProductSpec

__all__ = ["PerAggregateEngine"]


class PerAggregateEngine(MaintenanceEngine):
    """Maintain a COVAR matrix as independent scalar aggregates."""

    strategy = "per-aggregate"

    def __init__(
        self,
        query: Query,
        features: Sequence[Feature],
        order: Optional[VariableOrder] = None,
    ):
        super().__init__(query)
        for feature in features:
            if feature.is_categorical:
                raise EngineError(
                    "PerAggregateEngine supports continuous features only"
                )
        self.features: Tuple[Feature, ...] = tuple(features)
        names = [feature.name for feature in self.features]
        specs: List[Tuple[str, object]] = [("count", CountSpec())]
        for name in names:
            specs.append((f"sum({name})", SumProductSpec(((name, 1),))))
        for i, a in enumerate(names):
            for b in names[i:]:
                if a == b:
                    spec = SumProductSpec(((a, 2),))
                else:
                    spec = SumProductSpec(((a, 1), (b, 1)))
                specs.append((f"sum({a}*{b})", spec))
        self.aggregates: Tuple[str, ...] = tuple(label for label, _ in specs)
        self.engines: Dict[str, FIVMEngine] = {
            label: FIVMEngine(replace_spec(query, spec, label), order=order)
            for label, spec in specs
        }

    # ------------------------------------------------------------------

    def initialize(self, database: Database) -> None:
        for engine in self.engines.values():
            engine.initialize(database)
        self._initialized = True

    def apply(self, relation_name: str, delta: Relation) -> None:
        self._require_initialized()
        self.stats.record_batch(delta)
        for engine in self.engines.values():
            engine.apply(relation_name, delta)

    def _before_many(self, relation_names) -> None:
        for engine in self.engines.values():
            engine._before_many(relation_names)

    def result(self) -> Relation:
        """The count view's result (keys match all per-aggregate views)."""
        self._require_initialized()
        return self.engines["count"].result()

    # ------------------------------------------------------------------

    def scalar(self, label: str) -> float:
        """Current value of one aggregate (empty-key queries only)."""
        self._require_initialized()
        try:
            engine = self.engines[label]
        except KeyError:
            raise EngineError(f"unknown aggregate {label!r}") from None
        payload = engine.result().payload(())
        return float(payload)

    # ------------------------------------------------------------------
    # Checkpointing: one nested "views" snapshot per scalar aggregate.
    # ------------------------------------------------------------------

    state_payload = "aggregates"

    def _export_payload(self) -> dict:
        return {
            "aggregates": {
                label: engine.export_state()
                for label, engine in self.engines.items()
            }
        }

    def _import_payload(self, state) -> None:
        aggregates = state["aggregates"]
        expected = set(self.aggregates)
        if set(aggregates) != expected:
            raise EngineError(
                f"snapshot aggregates {sorted(aggregates)} do not match "
                f"this engine's {sorted(expected)} (different feature set?)"
            )
        # Each nested state re-validates its own header, so a snapshot
        # taken over a different query raises before anything restores.
        for label in self.aggregates:
            self.engines[label].import_state(aggregates[label])

    def covar_matrix(self) -> Tuple[float, np.ndarray, np.ndarray]:
        """Assemble (c, s, Q) from the independent scalar views."""
        self._require_initialized()
        names = [feature.name for feature in self.features]
        m = len(names)
        c = self.scalar("count")
        s = np.array([self.scalar(f"sum({name})") for name in names])
        q = np.zeros((m, m))
        for i, a in enumerate(names):
            for j in range(i, m):
                b = names[j]
                value = self.scalar(f"sum({a}*{b})")
                q[i, j] = value
                q[j, i] = value
        return c, s, q


def replace_spec(query: Query, spec, label: str) -> Query:
    """Clone ``query`` with a different payload spec."""
    return Query(
        name=f"{query.name}:{label}",
        relations=query.relations,
        spec=spec,
        free=query.free,
    )
