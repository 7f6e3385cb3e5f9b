"""Regression tab (Figure 2b).

Maintains the COVAR matrix for the chosen features and label; after every
bulk the ridge model is refit from the refreshed matrix by one direct solve
(:mod:`repro.ml.regression`), so the refit costs the same whatever the
previous model was and needs none.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.apps.session import BulkReport, MaintenanceSession
from repro.data.database import Database
from repro.data.relation import Relation
from repro.errors import FIVMError
from repro.ml.covar import CovarMatrix, covar_from_payload
from repro.ml.regression import RidgeModel, RidgeRegression
from repro.query.query import Query
from repro.query.variable_order import VariableOrder
from repro.rings.lifting import Feature
from repro.rings.specs import CovarSpec

__all__ = ["RegressionApp"]


class RegressionApp:
    """Ridge linear regression over a maintained COVAR matrix."""

    def __init__(
        self,
        database: Database,
        relations,
        features: Tuple[Feature, ...],
        label: str,
        regularization: float = 1e-2,
        order: Optional[VariableOrder] = None,
    ):
        names = [feature.name for feature in features]
        if label not in names:
            raise FIVMError(f"label {label!r} must be one of the COVAR features")
        query = Query("Regression", tuple(relations), spec=CovarSpec(tuple(features)))
        self.session = MaintenanceSession(database, query, order=order)
        self.solver = RidgeRegression(
            features=[name for name in names if name != label],
            label=label,
            regularization=regularization,
        )
        self.model: Optional[RidgeModel] = None

    # ------------------------------------------------------------------

    def process_bulk(self, batches: Iterable[Tuple[str, Relation]]) -> BulkReport:
        return self.session.process(batches)

    def covar(self) -> CovarMatrix:
        return covar_from_payload(self.session.root_payload(), self.session.plan)

    def refresh_model(self) -> RidgeModel:
        """Refit the parameters against the current COVAR matrix."""
        self.model = self.solver.fit(self.covar())
        return self.model

    def render(self) -> str:
        """Parameters and training RMSE (the tab's right-hand panel)."""
        if self.model is None:
            self.refresh_model()
        lines = [
            f"ridge λ={self.solver.regularization:g}  "
            f"RMSE={self.model.training_rmse:.4f}  "
            f"converged={self.model.converged}  "
            f"gradient={self.model.gradient_norm:.1e}",
            f"  intercept: {self.model.intercept:+.4f}",
        ]
        for label, weight in self.model.coefficients().items():
            lines.append(f"  {label:<28} {weight:+.4f}")
        return "\n".join(lines)
