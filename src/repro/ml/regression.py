"""Ridge linear regression over maintained COVAR matrices.

The paper's Regression tab: after every bulk of updates, the solver
"resumes the convergence of the model parameters using gradients that are
made of the previous parameter values and the new COVAR matrix". Nothing
here touches the training data — count, sums and second moments from the
maintained payload are sufficient statistics for the squared loss and its
gradient:

    J(theta)      = (1/2N) (theta^T A theta - 2 theta^T b + sum y^2)
                    + (lambda/2) theta^T D theta
    grad J(theta) = (1/N) (A theta - b) + lambda * D theta

with ``A = sum z z^T`` over extended feature vectors ``z = [1, x]``,
``b = sum z y``, both sub-blocks of the extended COVAR matrix, and ``D``
the ridge mask (the intercept is not penalized by default).

:meth:`RidgeRegression.fit` minimizes J by conjugate gradients (CG) in
*standardized* coordinates. The same matrix holds every feature's mean
``mu_j = s_j / N`` and standard deviation ``sigma_j^2 = Q_jj / N - mu_j^2``,
and they define an affine change of variables ``theta = T theta'``::

    theta_j = theta'_j / sigma_j,    theta_0 = theta'_0 - sum_j mu_j theta_j

A model with weights ``theta'`` over standardized features
``(x_j - mu_j) / sigma_j`` predicts exactly what the model with weights
``theta`` over raw features does, so ``J(T theta')`` is the same objective
— the ridge term included, which stays on the original-scale coefficients.
``fit`` and :meth:`RidgeRegression.fit_closed_form` minimize one function
and differ only in how. What the coordinates change is conditioning: on
Retailer features (values up to ~4e4) ``A/N`` has condition number ~1e20
and a fixed-step gradient descent never converges, while the standardized
Hessian ``T^T (A/N + lambda D) T`` is a correlation matrix plus a small
diagonal, on which CG needs about one step per distinct eigenvalue.

Stopping rule: the norm of the standardized gradient ``T^T grad J``
relative to the label's standard deviation ``sigma_y`` — the gradient with
the label standardized too. An absolute gradient norm in raw coordinates
floors near 1e-8 at the optimum when features are ~1e4, so a tolerance of
1e-9 could not be met; this one depends on neither the features' nor the
label's units, nor on the label's mean (a norm relative to ``T^T b / N``
would, through its intercept entry, which is the label mean). The model
reports the number for its final parameters, recomputed from the matrix
rather than carried by the CG recursion.

Warm start: ``theta0`` maps to ``theta'`` in O(d), without a solve
(``theta'_0 = theta_0 + sum_j mu_j theta_j``, ``theta'_j = sigma_j
theta_j``), and CG starts from its residual. Each step minimizes J over the
starting point plus a growing Krylov space, so CG still "resumes from the
previous parameter values" as the paper's gradient descent did, with
search directions conjugate to the earlier ones instead of the raw
gradient; the closer the previous model, the smaller the residual to
remove. What dominates the step count is d and the spread of the
standardized Hessian's spectrum, not the start: ~10 steps at d = 12 on
the Retailer refresh, cold or warm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FIVMError
from repro.ml.covar import Column, CovarMatrix

__all__ = ["RidgeModel", "RidgeRegression"]

#: Default bound on the relative standardized gradient norm, for ``fit``'s
#: stopping rule and ``fit_closed_form``'s ``converged``.
TOLERANCE = 1e-9


@dataclass
class RidgeModel:
    """A fitted ridge model over expanded (one-hot) columns."""

    feature_columns: Tuple[Column, ...]
    label: str
    theta: np.ndarray
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

    def theta_over(self, columns: Sequence[Column]) -> np.ndarray:
        """This model's parameters re-indexed to ``columns``: the intercept
        and every surviving column keep their weight, a new column starts
        at 0 — a warm start for a column set that changed under updates."""
        weights = dict(zip(self.feature_columns, self.theta[1:]))
        return np.array(
            [self.intercept] + [float(weights.get(column, 0.0)) for column in columns]
        )

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


class _Objective:
    """The ridge objective of one COVAR matrix and its standardized form
    ``theta = T x``: Hessian ``T^T H T``, right-hand side ``T^T b / N``."""

    def __init__(self, a, b, n: float, sum_y2: float, ridge: np.ndarray):
        self.a, self.b, self.n, self.sum_y2, self.ridge = a, b, n, sum_y2, ridge
        second = np.diag(a)[1:] / n
        self.mean = a[0, 1:] / n
        variance = second - self.mean**2
        # Any positive scale gives the same objective; the standard deviation
        # gives the best-conditioned one. A (numerically) constant column has
        # none — its variance is rounding residue of E[x^2] - mu^2 — and keeps 1.
        self.scale = np.where(
            variance > 1e-12 * second, np.sqrt(np.maximum(variance, 0.0)), 1.0
        )
        t = np.eye(len(b))
        t[0, 1:] = -self.mean / self.scale
        t[1:, 1:] /= self.scale
        self.hessian = t.T @ (a / n + np.diag(ridge)) @ t
        self.rhs = t.T @ (b / n)
        # Gradients are measured in units of the label's standard deviation:
        # the label standardized too, so neither its units nor its mean count.
        label_variance = sum_y2 / n - (b[0] / n) ** 2
        self.unit = (
            float(np.sqrt(label_variance))
            if label_variance > 1e-12 * sum_y2 / n
            else float(np.linalg.norm(self.rhs)) or 1.0
        )

    def standardize(self, theta: np.ndarray) -> np.ndarray:
        return np.concatenate(
            ([theta[0] + self.mean @ theta[1:]], self.scale * theta[1:])
        )

    def original(self, x: np.ndarray) -> np.ndarray:
        weights = x[1:] / self.scale
        return np.concatenate(([x[0] - self.mean @ weights], weights))

    def gradient_norm(self, x: np.ndarray) -> float:
        """``||T^T grad J(T x)||`` in units of the label's standard deviation."""
        return float(np.linalg.norm(self.hessian @ x - self.rhs)) / self.unit

    def conjugate_gradients(
        self, x: np.ndarray, tolerance: float, max_iterations: int
    ) -> Tuple[np.ndarray, int]:
        """CG on ``hessian x = rhs`` from ``x`` until :meth:`gradient_norm`
        is at most ``tolerance``; returns the iterate and the step count.

        The residual is recomputed from ``x`` at every step rather than
        updated recursively, so the stopping test sees the true gradient. A
        step whose curvature ``p^T H p`` is not positive — lambda = 0 with
        exactly collinear columns, or a ridge term below the Hessian's
        rounding — ends the solve, and the iterate with the smallest
        residual is returned, so steps lost to rounding never make the
        answer worse.
        """
        h, target = self.hessian, (tolerance * self.unit) ** 2
        r = self.rhs - h @ x
        p, rr = r, float(r @ r)
        best, best_rr = x, rr
        steps = 0
        while rr > target and steps < max_iterations:
            hp = h @ p
            curvature = float(p @ hp)
            if not curvature > 0.0:
                break
            x = x + (rr / curvature) * p
            r = self.rhs - h @ x
            steps += 1
            rr_next = float(r @ r)
            if rr_next < best_rr:
                best, best_rr = x, rr_next
            p = r + (rr_next / rr) * p
            rr = rr_next
        return best, steps

    def rmse(self, theta: np.ndarray) -> float:
        return _rmse(self.a, self.b, self.n, self.sum_y2, theta)


def _rmse(a, b, n, sum_y2, theta) -> float:
    sse = float(theta @ a @ theta - 2.0 * theta @ b + sum_y2)
    return float(np.sqrt(max(sse, 0.0) / n))


class RidgeRegression:
    """Learn ``label ~ features`` from a :class:`CovarMatrix`."""

    def __init__(
        self,
        features: Sequence[str],
        label: str,
        regularization: float = 1e-3,
        penalize_intercept: bool = False,
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
        self.penalize_intercept = penalize_intercept

    # ------------------------------------------------------------------

    def feature_columns(self, covar: CovarMatrix) -> Tuple[Column, ...]:
        """The expanded columns of a model over ``covar``, in theta's order."""
        return tuple(covar.columns[i] for i in self._feature_indices(covar))

    def _feature_indices(self, covar: CovarMatrix) -> List[int]:
        return [i for attr in self.features for i in covar.columns_of(attr)]

    def _label_index(self, covar: CovarMatrix) -> int:
        label_indices = covar.columns_of(self.label)
        if len(label_indices) != 1 or covar.columns[label_indices[0]].category is not None:
            raise FIVMError(
                f"label {self.label!r} must be a single continuous column"
            )
        return label_indices[0]

    def design(self, covar: CovarMatrix) -> Tuple[np.ndarray, np.ndarray, float, Tuple[Column, ...]]:
        """Extract (A, b, N, feature_columns) from the COVAR matrix."""
        label_index = self._label_index(covar)
        feature_indices = self._feature_indices(covar)
        columns = tuple(covar.columns[i] for i in feature_indices)
        extended = covar.extended()
        # Rows/cols of the extended matrix: 0 is the intercept, i+1 is column i.
        take = np.array([0] + [i + 1 for i in feature_indices])
        a = extended[np.ix_(take, take)]
        b = extended[take, label_index + 1]
        return a, b, covar.count, columns

    def _sum_y2(self, covar: CovarMatrix) -> float:
        label_index = self._label_index(covar)
        return float(covar.moments[label_index, label_index])

    def _objective(self, covar: CovarMatrix) -> Tuple[_Objective, Tuple[Column, ...]]:
        a, b, n, columns = self.design(covar)
        if n <= 0:
            raise FIVMError("cannot fit on an empty training dataset")
        ridge = np.full(len(b), float(self.regularization))
        if not self.penalize_intercept:
            ridge[0] = 0.0
        return _Objective(a, b, n, self._sum_y2(covar), ridge), columns

    # ------------------------------------------------------------------

    def fit(
        self,
        covar: CovarMatrix,
        theta0: Optional[np.ndarray] = None,
        max_iterations: int = 2000,
        tolerance: float = TOLERANCE,
    ) -> RidgeModel:
        """Conjugate gradients in standardized coordinates, warm-started
        from ``theta0`` (zeros when ``None``).

        Minimizes the objective :meth:`fit_closed_form` solves directly (the
        module docstring has the coordinates). Stops once the standardized
        gradient norm, in units of the label's standard deviation, is at
        most ``tolerance``; after ``max_iterations`` steps; or at a
        breakdown. ``iterations``, ``converged`` and ``gradient_norm``
        describe the returned parameters. Never raises on a singular system.
        """
        objective, columns = self._objective(covar)
        d = len(columns) + 1
        theta = np.zeros(d) if theta0 is None else np.asarray(theta0, dtype=float)
        if theta.shape != (d,):
            raise FIVMError(
                f"theta0 has shape {theta.shape}, expected ({d},) — did the "
                "one-hot columns change between bulks?"
            )
        x, iterations = objective.conjugate_gradients(
            objective.standardize(theta), tolerance, max_iterations
        )
        return self._model(
            objective, columns, objective.original(x), iterations,
            objective.gradient_norm(x), tolerance,
        )

    def fit_closed_form(self, covar: CovarMatrix) -> RidgeModel:
        """Direct solve of the regularized normal equations.

        ``converged`` and ``gradient_norm`` follow :meth:`fit`'s rule at the
        default tolerance, so an answer that ``lstsq`` found for a singular
        system says how far from stationary it is.
        """
        objective, columns = self._objective(covar)
        system = objective.a / objective.n + np.diag(objective.ridge)
        try:
            theta = np.linalg.solve(system, objective.b / objective.n)
        except np.linalg.LinAlgError:
            theta, *_ = np.linalg.lstsq(system, objective.b / objective.n, rcond=None)
        gradient_norm = objective.gradient_norm(objective.standardize(theta))
        return self._model(objective, columns, theta, 0, gradient_norm, TOLERANCE)

    def _model(self, objective, columns, theta, iterations, gradient_norm, tolerance):
        return RidgeModel(
            feature_columns=columns,
            label=self.label,
            theta=theta,
            iterations=iterations,
            converged=gradient_norm <= tolerance,
            gradient_norm=gradient_norm,
            training_rmse=objective.rmse(theta),
        )

    # ------------------------------------------------------------------

    def training_rmse(self, covar: CovarMatrix, model: RidgeModel) -> float:
        """Training RMSE from sufficient statistics only.

        ``sum (theta^T z - y)^2 = theta^T A theta - 2 theta^T b + sum y^2``,
        every term available in the COVAR matrix.
        """
        a, b, n, _columns = self.design(covar)
        return _rmse(a, b, n, self._sum_y2(covar), model.theta)
