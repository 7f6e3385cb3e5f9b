"""Ridge regression from COVAR sufficient statistics.

Cross-validated against direct numpy least squares on the *materialized*
join — the whole point of F-IVM is that the two must coincide without ever
building that join.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.data import Database, Relation, RelationSchema
from repro.datasets import (
    RetailerConfig,
    UpdateStream,
    continuous_covar_features,
    generate_retailer,
    retailer_query,
    retailer_row_factories,
    retailer_variable_order,
)
from repro.engine import FIVMEngine
from repro.errors import FIVMError
from repro.ml import Column, CovarMatrix, RidgeRegression, covar_from_payload
from repro.query import Query
from repro.rings import CovarSpec, Feature

from tests.sql_oracle import SqlOracle

R = RelationSchema("R", ("A", "B"))
S = RelationSchema("S", ("A", "C", "D"))


def make_db(seed=3, n=40):
    rng = np.random.default_rng(seed)
    r_rows = [(int(a), int(rng.integers(-4, 5))) for a in rng.integers(0, 6, n)]
    s_rows = [
        (int(a), int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
        for a in rng.integers(0, 6, n)
    ]
    return Database(
        [
            Relation.from_tuples(("A", "B"), r_rows, name="R"),
            Relation.from_tuples(("A", "C", "D"), s_rows, name="S"),
        ]
    )


def materialized_design(db):
    """[1, B, C] rows and D labels of the explicit join (bag semantics)."""
    xs, ys = [], []
    for _a, b, c, d, multiplicity in SqlOracle(db).rows(("A", "B", "C", "D")):
        for _ in range(multiplicity):
            xs.append([1.0, float(b), float(c)])
            ys.append(float(d))
    return np.array(xs), np.array(ys)


def covar_of(db):
    spec = CovarSpec(
        (Feature.continuous("B"), Feature.continuous("C"), Feature.continuous("D"))
    )
    engine = FIVMEngine(Query("Q", (R, S), spec=spec))
    engine.initialize(db)
    return covar_from_payload(engine.result().payload(()), engine.plan)


class TestClosedForm:
    def test_matches_direct_normal_equations(self):
        db = make_db()
        covar = covar_of(db)
        lam = 0.1
        solver = RidgeRegression(["B", "C"], "D", regularization=lam)
        model = solver.fit_closed_form(covar)
        x, y = materialized_design(db)
        n = len(y)
        mask = np.diag([0.0, 1.0, 1.0])
        expected = np.linalg.solve(x.T @ x / n + lam * mask, x.T @ y / n)
        assert np.allclose(model.theta, expected)

    def test_unregularized_matches_lstsq(self):
        db = make_db(seed=5)
        covar = covar_of(db)
        solver = RidgeRegression(["B", "C"], "D", regularization=0.0)
        model = solver.fit_closed_form(covar)
        x, y = materialized_design(db)
        expected, *_ = np.linalg.lstsq(x, y, rcond=None)
        assert np.allclose(model.theta, expected, atol=1e-8)


def covar_matrix(x, y, columns, label="y"):
    """The COVAR matrix of explicit rows ``[x, y]``."""
    z = np.column_stack([x, y])
    return CovarMatrix(
        columns=tuple(columns) + (Column(label),),
        count=float(len(y)),
        sums=z.sum(axis=0),
        moments=z.T @ z,
    )


def objective(solver, x, y, theta):
    """``J(theta)`` from explicit residuals (not from the moments)."""
    residual = theta[0] + x @ theta[1:] - y
    return residual @ residual / (2 * len(y)) + solver.regularization / 2 * (
        theta[1:] @ theta[1:]
    )


def explicit_ridge(solver, x, y):
    """The ridge minimizer by least squares on the explicit rows, stacked
    with ``sqrt(N lambda)`` times the identity over the weights: a solver
    that never forms moments."""
    n, width = x.shape
    rows = np.vstack(
        [
            np.column_stack([np.ones(n), x]),
            np.column_stack([np.zeros(width), np.sqrt(n * solver.regularization) * np.eye(width)]),
        ]
    )
    theta, *_ = np.linalg.lstsq(rows, np.concatenate([y, np.zeros(width)]), rcond=None)
    return theta


def ridge_problem(seed, log_scales, offsets, collinear, groups, regularization):
    """Explicit training data and its COVAR matrix: continuous features at
    scales ``10 ** log_scales`` with mean ``offsets`` (in standard
    deviations), optionally an exactly collinear (affine) copy of the
    first, and one-hot groups whose columns sum to the intercept's.

    The label carries noise of standard deviation 2, which keeps the
    optimal objective away from 0: a gradient test bounds the objective gap
    only to ``|grad| * |theta - theta*| / 2``, and the check is relative."""
    rng = np.random.default_rng(seed)
    width = len(log_scales) + collinear + sum(groups)
    n = 6 * (width + 1) + 10
    standard = rng.standard_normal((n, len(log_scales))) + offsets[: len(log_scales)]
    parts = [standard * 10.0 ** np.array(log_scales, dtype=float)]
    columns = [Column(f"x{j}") for j in range(len(log_scales))]
    y = standard @ rng.uniform(-2, 2, len(log_scales)) + 2.0 * rng.standard_normal(n)
    if collinear:
        parts.append(2.5 * parts[0][:, :1] + 7.0 * 10.0 ** log_scales[0])
        columns.append(Column("copy"))
    for g, size in enumerate(groups):
        category = np.concatenate([np.arange(size), rng.integers(0, size, n - size)])
        parts.append((category[:, None] == np.arange(size)).astype(float))
        columns.extend(Column(f"g{g}", k) for k in range(size))
        y += rng.uniform(-3, 3, size)[category]
    x = np.column_stack(parts)
    covar = covar_matrix(x, y, columns)
    attributes = list(dict.fromkeys(column.attribute for column in columns))
    return covar, x, y, RidgeRegression(attributes, "y", regularization=regularization)


@st.composite
def ridge_problems(draw):
    """:func:`ridge_problem` at scales 1e-3..1e5, offsets of 0, 3 or 1000
    standard deviations, lambda = 0 only when the system has full rank."""
    seed = draw(st.integers(0, 2**32 - 1))
    log_scales = draw(st.lists(st.integers(-3, 5), min_size=1, max_size=4))
    offsets = draw(st.lists(st.sampled_from([0.0, 3.0, 1000.0]), min_size=4, max_size=4))
    collinear = draw(st.booleans())
    groups = draw(st.lists(st.integers(2, 4), max_size=2))
    singular = collinear or bool(groups)
    regularization = draw(st.sampled_from([1e-3, 0.1] if singular else [0.0, 1e-3, 0.1]))
    return ridge_problem(seed, log_scales, offsets, collinear, groups, regularization)


def rounding_allowance(solver, x, y, theta):
    """How far above the optimum float64 moments can put any solve.

    The solve sees the centered moments ``C = E[z z^T] - mu mu^T``. Forming
    the raw moments from ``n`` rows and centering them rounds each entry by
    at most ``u (E|z_j z_k| + |mu_j mu_k|)``, ``u = (n + 4) eps``: relative
    to ``sigma_j sigma_k`` that is ``u rho_jk``, and ``rho`` grows with
    ``(mu / sigma)^2`` — 1e6 for a feature offset by 1000 standard
    deviations. In standardized units the solve's gradient at the optimum
    ``x*`` is then off by at most ``g = u rho |[x*, -1]|``, which moves the
    solution by ``H^-1 g`` and the objective by ``g^T H^-1 g / 2``, at most
    ``sum_i (|v_i|^T g)^2 / (2 lambda_i)`` over the eigenpairs of ``H``, the
    standardized ridge Hessian (a correlation matrix plus ``lambda /
    sigma_j^2``). Here ``H``, ``mu`` and ``sigma`` come from the explicit
    rows, and ``theta`` stands in for the optimum. Well-conditioned problems get ~1e-14 relative; a collinear
    pair 1000 standard deviations off zero, whose null direction only the
    ridge term curves, gets ~1e-6."""
    n = len(y)
    z = np.column_stack([x, y])
    mu = z.mean(axis=0)
    centered = z - mu
    sigma = np.sqrt((centered**2).mean(axis=0))
    rho = (np.abs(z).T @ np.abs(z) / n + np.abs(np.outer(mu, mu))) / np.outer(sigma, sigma)
    optimum = np.append(theta[1:] * sigma[:-1] / sigma[-1], -1.0)
    g = (n + 4) * np.finfo(float).eps * rho[:-1] @ np.abs(optimum)
    h = centered[:, :-1].T @ centered[:, :-1] / n / np.outer(sigma[:-1], sigma[:-1])
    ridge = solver.regularization / sigma[:-1] ** 2
    eigenvalues, vectors = np.linalg.eigh(h + np.diag(ridge))
    # |v^T g| <= |v|^T g per eigenvector, and v^T H v >= v^T diag(ridge) v
    # bounds each eigenvalue from below where rounding the correlations
    # hides it.
    spread = np.maximum(eigenvalues, ridge @ vectors**2)
    return sigma[-1] ** 2 * np.sum((np.abs(vectors).T @ g) ** 2 / spread) / 2


class TestDirectSolve:
    def test_wrong_theta0_shape_rejected(self):
        covar = covar_of(make_db())
        solver = RidgeRegression(["B", "C"], "D")
        with pytest.raises(FIVMError):
            solver.fit(covar, theta0=np.zeros(7))

    def test_theta0_does_not_change_the_fit(self):
        covar = covar_of(make_db())
        solver = RidgeRegression(["B", "C"], "D", regularization=0.05)
        cold = solver.fit(covar)
        warm = solver.fit(covar, theta0=np.array([5.0, -3.0, 7.0]))
        assert warm.theta.tolist() == cold.theta.tolist()
        assert warm.iterations == cold.iterations == 0

    def test_fit_on_a_maintained_covar_is_the_materialized_ridge(self):
        """On an engine-maintained COVAR, ``fit`` is ``fit_closed_form`` bit
        for bit, stationary, and the ridge solution over the join's rows."""
        db = make_db(seed=7)
        covar = covar_of(db)
        solver = RidgeRegression(["B", "C"], "D", regularization=0.05)
        model = solver.fit(covar)
        closed = solver.fit_closed_form(covar)
        assert model.theta.tolist() == closed.theta.tolist()
        assert model.converged and model.gradient_norm <= 1e-9
        x, y = materialized_design(db)
        assert np.allclose(model.theta, explicit_ridge(solver, x[:, 1:], y), atol=1e-9)

    @pytest.mark.parametrize("option", ["learning_rate", "max_iterations", "tolerance"])
    def test_solver_options_are_gone(self, option):
        covar = covar_of(make_db())
        with pytest.raises(TypeError):
            RidgeRegression(["B", "C"], "D").fit(covar, **{option: 0.1})

    @given(problem=ridge_problems())
    @example(
        # A collinear pair 1000 standard deviations off zero: the exact solve
        # of these float64 moments is already 4e-8 above the optimum, so no
        # fixed relative bound near 1e-9 holds (the fit is 6e-7 above it).
        problem=ridge_problem(1626704, [4, 0], [1000.0] * 4, True, [2], 0.1)
    )
    def test_generated_problems_fit_is_the_closed_form(self, problem):
        """``fit`` and ``fit_closed_form`` are one solve, bit for bit; it is
        stationary, and no worse than least squares on the explicit rows up
        to what rounding the moments allows."""
        covar, x, y, solver = problem
        model = solver.fit(covar)
        closed = solver.fit_closed_form(covar)
        assert model.theta.tolist() == closed.theta.tolist()
        assert model.training_rmse == closed.training_rmse
        assert model.converged, model.gradient_norm
        assert model.gradient_norm <= 1e-9
        assert model.iterations == 0
        # One-sided: the explicit solve can itself sit above the optimum,
        # along a direction only the ridge term curves.
        reference = explicit_ridge(solver, x, y)
        assert objective(solver, x, y, model.theta) <= objective(
            solver, x, y, reference
        ) * (1 + 1e-9) + rounding_allowance(solver, x, y, reference)

    @pytest.mark.parametrize("start", ["cold", "perturbed"])
    def test_singular_system_without_ridge_falls_back_to_lstsq(self, start):
        """lambda = 0 and an exactly duplicated column: the standardized
        system is singular, so ``lstsq`` answers whatever ``theta0`` says.
        No exception, no NaN, a stationary point, and the explicit rows'
        least-squares RMSE."""
        rng = np.random.default_rng(4)
        b = rng.integers(-4, 5, 50).astype(float)
        x = np.column_stack([b, b, rng.integers(-4, 5, 50).astype(float)])
        y = x @ np.array([1.0, 2.0, -1.0]) + rng.standard_normal(50)
        covar = covar_matrix(x, y, (Column("B"), Column("B2"), Column("C")))
        solver = RidgeRegression(["B", "B2", "C"], "y", regularization=0.0)
        theta0 = None if start == "cold" else np.array([5.0, -3.0, 7.0, 1.0])
        with mock.patch("numpy.linalg.lstsq", wraps=np.linalg.lstsq) as lstsq:
            model = solver.fit(covar, theta0=theta0)
        assert lstsq.called
        assert np.all(np.isfinite(model.theta))
        assert model.converged and model.gradient_norm <= 1e-9
        theta, *_ = np.linalg.lstsq(np.column_stack([np.ones(50), x]), y, rcond=None)
        explicit = np.sqrt(np.mean((theta[0] + x @ theta[1:] - y) ** 2))
        assert model.training_rmse == pytest.approx(explicit, rel=1e-9)

    def test_closed_form_reports_its_gradient_norm(self):
        covar = covar_of(make_db())
        closed = RidgeRegression(["B", "C"], "D", regularization=0.05).fit_closed_form(covar)
        assert closed.converged and 0.0 <= closed.gradient_norm <= 1e-9
        assert closed.iterations == 0


class TestTrainingRmse:
    def test_matches_explicit_residuals(self):
        db = make_db(seed=9)
        covar = covar_of(db)
        solver = RidgeRegression(["B", "C"], "D", regularization=0.01)
        model = solver.fit_closed_form(covar)
        x, y = materialized_design(db)
        explicit = np.sqrt(np.mean((x @ model.theta - y) ** 2))
        assert model.training_rmse == pytest.approx(explicit, rel=1e-9)


class TestPredictAndCoefficients:
    def test_continuous_prediction(self):
        covar = covar_of(make_db())
        model = RidgeRegression(["B", "C"], "D").fit_closed_form(covar)
        expected = model.intercept + model.theta[1] * 2.0 + model.theta[2] * -1.0
        assert model.predict({"B": 2.0, "C": -1.0}) == pytest.approx(expected)

    def test_missing_feature_rejected(self):
        covar = covar_of(make_db())
        model = RidgeRegression(["B", "C"], "D").fit_closed_form(covar)
        with pytest.raises(FIVMError):
            model.predict({"B": 2.0})

    def test_coefficients_labelled(self):
        covar = covar_of(make_db())
        model = RidgeRegression(["B", "C"], "D").fit_closed_form(covar)
        assert set(model.coefficients()) == {"B", "C"}

    def test_render_lists_every_weight(self):
        covar = covar_of(make_db())
        model = RidgeRegression(["B", "C"], "D").fit(covar)
        lines = model.render().splitlines()
        assert lines[0].startswith("ridge model of D  RMSE=")
        assert "converged=True" in lines[0]
        assert lines[1] == f"  intercept: {model.intercept:+.4f}"
        assert lines[2:] == [
            f"  {label:<28} {weight:+.4f}" for label, weight in model.coefficients().items()
        ]


class TestCategoricalRegression:
    def test_one_hot_learning(self):
        """Label depends deterministically on categorical C; regression
        over one-hot columns must recover the category means."""
        rows_r = [(a, 0) for a in range(6)]
        rows_s = [(a, a % 2, 10 if a % 2 == 0 else 20) for a in range(6)]
        db = Database(
            [
                Relation.from_tuples(("A", "B"), rows_r, name="R"),
                Relation.from_tuples(("A", "C", "D"), rows_s, name="S"),
            ]
        )
        spec = CovarSpec(
            (
                Feature.categorical("C"),
                Feature.continuous("D"),
            )
        )
        engine = FIVMEngine(Query("Q", (R, S), spec=spec))
        engine.initialize(db)
        covar = covar_from_payload(engine.result().payload(()), engine.plan)
        model = RidgeRegression(["C"], "D", regularization=0.0).fit_closed_form(covar)
        assert model.predict({"C": 0}) == pytest.approx(10.0, abs=1e-6)
        assert model.predict({"C": 1}) == pytest.approx(20.0, abs=1e-6)


class TestValidation:
    def test_no_features_rejected(self):
        with pytest.raises(FIVMError):
            RidgeRegression([], "D")

    def test_label_in_features_rejected(self):
        with pytest.raises(FIVMError):
            RidgeRegression(["D"], "D")

    def test_negative_regularization_rejected(self):
        with pytest.raises(FIVMError):
            RidgeRegression(["B"], "D", regularization=-1.0)

    def test_categorical_label_rejected(self):
        db = make_db()
        spec = CovarSpec(
            (Feature.categorical("B"), Feature.continuous("D"))
        )
        engine = FIVMEngine(Query("Q", (R, S), spec=spec))
        engine.initialize(db)
        covar = covar_from_payload(engine.result().payload(()), engine.plan)
        with pytest.raises(FIVMError):
            RidgeRegression(["D"], "B").fit(covar)

    def test_empty_dataset_rejected(self):
        db = Database(
            [
                Relation(("A", "B"), name="R"),
                Relation(("A", "C", "D"), name="S"),
            ]
        )
        covar = covar_of(db)
        with pytest.raises(FIVMError):
            RidgeRegression(["B", "C"], "D").fit_closed_form(covar)


# ----------------------------------------------------------------------
# An exactness guard on the bench's refresh, not a timing guard
# ----------------------------------------------------------------------


def raw_normal_equations(solver, covar):
    """``(theta, training RMSE)`` from the unstandardized normal equations
    ``(A/N + lambda D) theta = b/N`` and ``theta^T A theta - 2 theta^T b +
    sum y^2`` over the extended moment matrix: the solve ``/model`` served
    before both solvers became the standardized one."""
    extended = covar.extended()
    take = [0] + [i + 1 for attr in solver.features for i in covar.columns_of(attr)]
    label = covar.columns_of(solver.label)[0] + 1
    a, b, n = extended[np.ix_(take, take)], extended[take, label], covar.count
    ridge = np.full(len(take), solver.regularization)
    ridge[0] = 0.0
    theta = np.linalg.solve(a / n + np.diag(ridge), b / n)
    sse = theta @ a @ theta - 2.0 * theta @ b + extended[label, label]
    return theta, float(np.sqrt(max(sse, 0.0) / n))


def ridge_refresh_report():
    """What each ridge refresh returns on a small scenario shaped like
    ``retailer_covar_bulk``'s: the same 12-feature continuous COVAR query
    (``locn`` and ``zip`` exactly collinear, features up to ~1e5),
    1000-event Inventory batches, a refresh every two.

    Returns ``{"d", "converged", "identical", "max_gradient_norm",
    "rmse_gap"}``: the model dimension; whether every refresh converged;
    whether ``fit`` and ``fit_closed_form`` agreed bit for bit on every
    refresh; the largest standardized gradient norm; and the largest
    relative training-RMSE gap to the raw normal equations.
    """
    config = RetailerConfig(
        locations=32, dates=90, items=900, inventory_rows=3000, seed=5
    )
    database = generate_retailer(config)
    features = continuous_covar_features(limit=12)
    engine = FIVMEngine(
        retailer_query(CovarSpec(features)), order=retailer_variable_order()
    )
    engine.initialize(database)
    stream = UpdateStream(
        database,
        retailer_row_factories(config, database),
        targets=("Inventory",),
        batch_size=1000,
        insert_ratio=0.5,
        seed=5,
    )
    label = "inventoryunits"
    solver = RidgeRegression([f.name for f in features if f.name != label], label)
    model, converged, identical, gradient, gap = None, True, True, 0.0, 0.0
    for _ in range(6):
        for _ in range(2):
            engine.apply(*stream.next_batch())
        covar = covar_from_payload(engine.result().payload(()), engine.plan)
        model = solver.fit(covar, theta0=None if model is None else model.theta)
        closed = solver.fit_closed_form(covar)
        converged = converged and model.converged
        identical = identical and model.theta.tolist() == closed.theta.tolist()
        gradient = max(gradient, model.gradient_norm)
        _theta, rmse = raw_normal_equations(solver, covar)
        gap = max(gap, abs(model.training_rmse / rmse - 1.0))
    return {"d": len(model.theta), "converged": converged, "identical": identical,
            "max_gradient_norm": gradient, "rmse_gap": gap}


def test_ridge_refresh_is_one_exact_solve():
    """Every refresh is the closed form bit for bit, stationary to 1e-9, and
    lands on the raw normal equations' RMSE."""
    found = ridge_refresh_report()
    assert found["d"] == 12
    assert found["converged"] and found["identical"]
    assert found["max_gradient_norm"] <= 1e-9
    assert found["rmse_gap"] <= 1e-9
