"""Ridge linear regression over maintained COVAR matrices.

The paper's Regression tab refits the model from the maintained COVAR
matrix after every bulk of updates. Nothing here touches the training
data — count, sums and second moments from the maintained payload are
sufficient statistics for the squared loss:

    J(theta) = (1/2N) sum (theta^T z - y)^2 + (lambda/2) theta^T D theta

over extended feature vectors ``z = [1, x]``, with ``D`` the ridge mask
(the intercept is not penalized). Its minimizer solves the
normal equations ``(A/N + lambda D) theta = b/N`` with ``A = sum z z^T``
and ``b = sum z y``.

Those equations are not solved as they stand: on Retailer features (values
up to ~4e4, ``locn`` and ``zip`` exactly collinear) ``A/N`` has condition
number ~5.7e20. The same matrix holds every feature's mean ``mu_j`` and
standard deviation ``sigma_j``, and they define an exact change of
variables ``theta = T x``::

    theta_j = x_j / sigma_j,    theta_0 = x_0 - sum_j mu_j theta_j

A model with weights ``x`` over standardized features ``(x_j - mu_j) /
sigma_j`` predicts exactly what ``theta`` does over raw ones, so ``J(T x)``
is the same objective — the ridge term included, which stays on the
original-scale coefficients. :meth:`RidgeRegression.fit` solves the
standardized system ``T^T (A/N + lambda D) T x = T^T b / N`` once. Built
straight from the centered moments it reads::

    x_0 = mean(y),   sum_k (corr(x_j, x_k) + lambda [j = k] / sigma_j^2) x_k
                       = cov(x_j, y) / sigma_j

— the intercept decouples, and the features' system is a correlation
matrix plus a small diagonal. ``lstsq`` takes over when the solve finds it
singular (lambda = 0 with exactly collinear columns).

The model reports ``gradient_norm``, the norm of the standardized gradient
``T^T grad J`` in units of the label's standard deviation — the gradient
with the label standardized too, so it depends on neither the features'
nor the label's units — and is ``converged`` when that is at most
``TOLERANCE``. The training RMSE comes from the same centered moments: with
the intercept at ``mean(y) - sum_j mu_j theta_j`` the mean residual is 0,
and the mean squared residual is the variance of ``y - sum_j theta_j x_j``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FIVMError
from repro.ml.covar import Column, CovarMatrix

__all__ = ["RidgeModel", "RidgeRegression"]

#: Bound on the relative standardized gradient norm behind
#: ``RidgeModel.converged``.
TOLERANCE = 1e-9


@dataclass
class RidgeModel:
    """A fitted ridge model over expanded (one-hot) columns."""

    feature_columns: Tuple[Column, ...]
    label: str
    theta: np.ndarray
    #: Always 0: the fit is one direct solve, not an iteration.
    iterations: int = 0
    converged: bool = True
    gradient_norm: float = 0.0
    training_rmse: float = float("nan")

    @property
    def intercept(self) -> float:
        return float(self.theta[0])

    def coefficients(self) -> Dict[str, float]:
        """Column label -> weight (excluding the intercept)."""
        return {
            column.label: float(weight)
            for column, weight in zip(self.feature_columns, self.theta[1:])
        }

    def render(self) -> str:
        """Parameters and training RMSE (the Regression tab's right-hand
        panel)."""
        lines = [
            f"ridge model of {self.label}  RMSE={self.training_rmse:.4f}  "
            f"converged={self.converged}  gradient={self.gradient_norm:.1e}",
            f"  intercept: {self.intercept:+.4f}",
        ]
        for label, weight in self.coefficients().items():
            lines.append(f"  {label:<28} {weight:+.4f}")
        return "\n".join(lines)

    def predict(self, row: Mapping[str, Any]) -> float:
        """Predict the label for a feature assignment.

        Continuous features read their value from ``row``; categorical
        features contribute the weight of the matching one-hot column
        (unseen categories contribute nothing, as they would with a
        train-time one-hot encoder).
        """
        total = self.intercept
        for column, weight in zip(self.feature_columns, self.theta[1:]):
            if column.attribute not in row:
                raise FIVMError(f"missing feature {column.attribute!r}")
            value = row[column.attribute]
            if column.category is None:
                total += float(weight) * float(value)
            elif value == column.category:
                total += float(weight)
        return total


class RidgeRegression:
    """Learn ``label ~ features`` from a :class:`CovarMatrix`."""

    def __init__(
        self,
        features: Sequence[str],
        label: str,
        regularization: float = 1e-3,
    ):
        if not features:
            raise FIVMError("ridge regression needs at least one feature")
        if label in features:
            raise FIVMError(f"label {label!r} cannot also be a feature")
        if regularization < 0:
            raise FIVMError("regularization must be non-negative")
        self.features = tuple(features)
        self.label = label
        self.regularization = regularization

    # ------------------------------------------------------------------

    def _feature_indices(self, covar: CovarMatrix) -> List[int]:
        return [i for attr in self.features for i in covar.columns_of(attr)]

    def _label_index(self, covar: CovarMatrix) -> int:
        label_indices = covar.columns_of(self.label)
        if len(label_indices) != 1 or covar.columns[label_indices[0]].category is not None:
            raise FIVMError(
                f"label {self.label!r} must be a single continuous column"
            )
        return label_indices[0]

    def fit(
        self,
        covar: CovarMatrix,
        theta0: Optional[np.ndarray] = None,
    ) -> RidgeModel:
        """One direct solve of the standardized system (module docstring).

        ``theta0`` is checked against the model's shape and otherwise
        unused: the solve needs no starting point. ``converged`` says
        whether ``gradient_norm`` is at most :data:`TOLERANCE`;
        ``iterations`` is 0. Never raises on a singular system.
        """
        label = self._label_index(covar)
        features = self._feature_indices(covar)
        n = covar.count
        if n <= 0:
            raise FIVMError("cannot fit on an empty training dataset")
        d = len(features) + 1
        if theta0 is not None and np.shape(theta0) != (d,):
            raise FIVMError(
                f"theta0 has shape {np.shape(theta0)}, expected ({d},) — did "
                "the one-hot columns change between bulks?"
            )
        # Centered moments over the features, then the label, last. Vectors
        # of length d are Python lists: at refresh sizes a numpy call costs
        # more than its arithmetic.
        keep = features + [label]
        mean = covar.sums.take(keep) / n
        cov = covar.moments.take(keep, 0).take(keep, 1) / n
        second = cov.diagonal().tolist()
        cov -= mean[:, None] * mean
        # Any positive scale gives the same objective; the standard deviation
        # gives the best-conditioned one. A (numerically) constant column has
        # none — its variance is rounding residue of E[x^2] - mu^2 — and keeps 1.
        spread = [
            math.sqrt(v) if v > 1e-12 * s else 1.0
            for v, s in zip(cov.diagonal().tolist(), second)
        ]
        scale, lam = np.array(spread), float(self.regularization)
        # lambda added before the scaling is lambda / sigma_j^2 after it (the
        # label's own diagonal entry is never read).
        h = cov.copy()
        h.flat[:: d + 1] += lam
        h /= scale[:, None] * scale
        # x in units of the label's standard deviation: H x = corr(x_j, y).
        system, rhs = h[:-1, :-1], h[:-1, -1]
        try:
            x = np.linalg.solve(system, rhs).tolist()
        except np.linalg.LinAlgError:
            x = np.linalg.lstsq(system, rhs, rcond=None)[0].tolist()
        sigma_y, mu = spread[-1], mean.tolist()
        weights = [xj * sigma_y / s for xj, s in zip(x, spread)]
        # v = [theta_1.., -1] over [features, label]: v^T Cov v is the mean
        # squared residual, and ((Cov v)_j + lambda theta_j) / (sigma_j
        # sigma_y) entry j of the standardized gradient.
        v = weights + [-1.0]
        w = (cov @ np.array(v)).tolist()
        gradient_norm = math.hypot(
            *[(wj + lam * t) / (s * sigma_y) for wj, t, s in zip(w, weights, spread)]
        )
        mean_square = math.fsum(map(operator.mul, w, v))
        intercept = mu[-1] - math.fsum(map(operator.mul, mu, weights))
        return RidgeModel(
            feature_columns=tuple(covar.columns[i] for i in features),
            label=self.label,
            theta=np.array([intercept] + weights),
            converged=gradient_norm <= TOLERANCE,
            gradient_norm=gradient_norm,
            training_rmse=math.sqrt(max(mean_square, 0.0)),
        )

    def fit_closed_form(self, covar: CovarMatrix) -> RidgeModel:
        """:meth:`fit`: the same single solve."""
        return self.fit(covar)
