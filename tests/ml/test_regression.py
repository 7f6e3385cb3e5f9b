"""Ridge regression from COVAR sufficient statistics.

Cross-validated against direct numpy least squares on the *materialized*
join — the whole point of F-IVM is that the two must coincide without ever
building that join.
"""

import numpy as np
import pytest
from hypothesis import given
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
    joined = db.relation("R").join(db.relation("S"))
    xs, ys = [], []
    for (a, b, c, d), multiplicity in joined.data.items():
        for _ in range(multiplicity):
            xs.append([1.0, float(b), float(c)])
            ys.append(float(d))
    return np.array(xs), np.array(ys)


def covar_of(db, backend="numeric"):
    spec = CovarSpec(
        (Feature.continuous("B"), Feature.continuous("C"), Feature.continuous("D")),
        backend=backend,
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
    penalty = theta @ theta - (0.0 if solver.penalize_intercept else theta[0] ** 2)
    return residual @ residual / (2 * len(y)) + solver.regularization / 2 * penalty


@st.composite
def ridge_problems(draw):
    """Explicit training data and its COVAR matrix: continuous features at
    scales 1e-3..1e5 with mean offsets, optionally an exactly collinear
    (affine) copy of one of them, and one-hot groups whose columns sum to
    the intercept's. lambda = 0 only when the system has full rank.

    The label carries noise of standard deviation 2, which keeps the
    optimal objective away from 0: a gradient test bounds the objective gap
    only to ``|grad| * |theta - theta*| / 2``, and the check is relative."""
    seed = draw(st.integers(0, 2**32 - 1))
    log_scales = draw(st.lists(st.integers(-3, 5), min_size=1, max_size=4))
    offsets = draw(st.lists(st.sampled_from([0.0, 3.0, 1000.0]), min_size=4, max_size=4))
    collinear = draw(st.booleans())
    groups = draw(st.lists(st.integers(2, 4), max_size=2))
    singular = collinear or bool(groups)
    regularization = draw(st.sampled_from([1e-3, 0.1] if singular else [0.0, 1e-3, 0.1]))
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


class TestConjugateGradients:
    def test_converges_to_closed_form(self):
        covar = covar_of(make_db())
        solver = RidgeRegression(["B", "C"], "D", regularization=0.05)
        cg = solver.fit(covar, tolerance=1e-12)
        closed = solver.fit_closed_form(covar)
        assert cg.converged and cg.gradient_norm <= 1e-12
        assert np.allclose(cg.theta, closed.theta, atol=1e-6)

    def test_warm_start_resumes_faster(self):
        covar = covar_of(make_db())
        solver = RidgeRegression(["B", "C"], "D", regularization=0.05)
        cold = solver.fit(covar, tolerance=1e-10)
        warm = solver.fit(covar, theta0=cold.theta, tolerance=1e-10)
        assert warm.iterations < cold.iterations

    def test_wrong_theta0_shape_rejected(self):
        covar = covar_of(make_db())
        solver = RidgeRegression(["B", "C"], "D")
        with pytest.raises(FIVMError):
            solver.fit(covar, theta0=np.zeros(7))

    def test_learning_rate_is_gone(self):
        covar = covar_of(make_db())
        with pytest.raises(TypeError):
            RidgeRegression(["B", "C"], "D").fit(covar, learning_rate=0.1)

    @given(problem=ridge_problems(), start=st.sampled_from(["cold", "warm", "perturbed"]))
    def test_generated_problems_converge_to_the_closed_form_objective(self, problem, start):
        covar, x, y, solver = problem
        closed = solver.fit_closed_form(covar)
        # Warm: a previous fit. Perturbed: a previous bulk's model, every
        # weight off by ~30 %. (Not the direct solve's theta, nor an absolute
        # shift: with a 1e5-scale collinear pair either can sit far along a
        # direction only the ridge term curves, lambda/sigma^2 ~ 1e-13, where
        # the standardized Hessian's curvature is rounding noise.)
        previous = solver.fit(covar).theta
        noise = np.random.default_rng(len(y)).standard_normal(len(previous))
        theta0 = {
            "cold": None,
            "warm": previous,
            "perturbed": previous * (1 + 0.3 * noise),
        }[start]
        model = solver.fit(covar, theta0=theta0)
        d = len(model.theta)
        assert model.converged, model.gradient_norm
        assert model.gradient_norm <= 1e-9
        assert model.iterations <= 2 * d + 10
        # No worse than the direct solve. (That solve works in raw
        # coordinates, and at these scales can itself sit ~1e-6 above the
        # optimum: a two-sided check would test numpy, not CG.)
        assert objective(solver, x, y, model.theta) <= objective(
            solver, x, y, closed.theta
        ) * (1 + 1e-9)

    @pytest.mark.parametrize("start", ["cold", "perturbed"])
    def test_singular_system_without_ridge_is_reported_honestly(self, start):
        """lambda = 0 and an exactly duplicated column: the normal equations
        are singular. No exception, no NaN, and ``converged`` is what the
        gradient norm says it is."""
        rng = np.random.default_rng(4)
        b = rng.standard_normal(50)
        x = np.column_stack([b, b, rng.standard_normal(50)])
        y = x @ np.array([1.0, 2.0, -1.0]) + rng.standard_normal(50)
        covar = covar_matrix(x, y, (Column("B"), Column("B2"), Column("C")))
        solver = RidgeRegression(["B", "B2", "C"], "y", regularization=0.0)
        theta0 = None if start == "cold" else np.array([5.0, -3.0, 7.0, 1.0])
        for model in (solver.fit(covar, theta0=theta0), solver.fit_closed_form(covar)):
            assert np.all(np.isfinite(model.theta))
            assert np.isfinite(model.gradient_norm)
            assert model.converged == (model.gradient_norm <= 1e-9)
        model = solver.fit(covar, theta0=theta0)
        closed = solver.fit_closed_form(covar)
        assert model.training_rmse == pytest.approx(closed.training_rmse, rel=1e-6)

    def test_closed_form_reports_its_gradient_norm(self):
        covar = covar_of(make_db())
        closed = RidgeRegression(["B", "C"], "D", regularization=0.05).fit_closed_form(covar)
        assert closed.converged and 0.0 <= closed.gradient_norm <= 1e-9
        assert closed.iterations == 0

    def test_iteration_cap_is_reported_honestly(self):
        covar = covar_of(make_db())
        solver = RidgeRegression(["B", "C"], "D", regularization=0.05)
        capped = solver.fit(covar, max_iterations=1)
        assert capped.iterations == 1
        assert not capped.converged and capped.gradient_norm > 1e-9
        resumed = solver.fit(covar, theta0=capped.theta)
        assert resumed.converged and resumed.iterations <= len(capped.theta)


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
            RidgeRegression(["D"], "B").design(covar)

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
# A count guard on the bench's refresh, not a timing guard
# ----------------------------------------------------------------------


def ridge_refresh_iterations():
    """CG steps of each warm-started ridge refresh on a small scenario
    shaped like ``retailer_covar_bulk``'s: the same 12-feature continuous
    COVAR query (``locn`` and ``zip`` exactly collinear, features up to
    ~1e5), 1000-event Inventory batches, a refresh every two, each fit
    starting from the previous one's parameters.

    Returns ``{"d", "iterations", "converged", "rmse_gap"}``: the model
    dimension, steps per refresh, whether every refresh converged, and the
    largest relative training-RMSE gap to the direct solve.
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
    model, iterations, converged, gap = None, [], True, 0.0
    for _ in range(6):
        for _ in range(2):
            engine.apply(*stream.next_batch())
        covar = covar_from_payload(engine.result().payload(()), engine.plan)
        model = solver.fit(covar, theta0=None if model is None else model.theta)
        closed = solver.fit_closed_form(covar)
        iterations.append(model.iterations)
        converged = converged and model.converged
        gap = max(gap, abs(model.training_rmse / closed.training_rmse - 1.0))
    return {"d": len(model.theta), "iterations": iterations, "converged": converged,
            "rmse_gap": gap}


def test_ridge_refresh_iterations():
    """Every warm-started refresh converges within 2·d CG steps (the
    fixed-step descent it replaced stopped at its 2000-step cap with the
    gradient norm in the hundreds) and lands on the direct solve's RMSE."""
    found = ridge_refresh_iterations()
    assert found["d"] == 12
    assert found["converged"]
    assert max(found["iterations"]) <= 2 * found["d"]
    assert found["rmse_gap"] <= 1e-9
