"""L1 logistic fusion: solver behavior, frozen grid oracle, application."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fusion_grid_oracle import (
    FROZEN_ARGMIN,
    FROZEN_DIGEST,
    FROZEN_GRID_MIN,
    make_grid_problem,
    problem_digest,
)
from svbackend import fusion, qmf, scoring
from svbackend.dataio import FusionModel, MinMaxParams
from svbackend.errors import FeatureMismatchError, ToolkitError
from svbackend.fusion import (
    FusionProblem,
    apply_model,
    fit,
    objective_value,
    sigmoid,
    soft_threshold,
    train,
)
from svbackend.metrics import det_curve, eer


def test_sigmoid_hand_values():
    assert sigmoid(0.0) == 0.5
    assert abs(sigmoid(math.log(3.0)) - 0.75) <= 1e-15
    # extreme logits saturate cleanly instead of overflowing
    assert sigmoid(-800.0) == 0.0
    assert sigmoid(800.0) == 1.0
    assert math.isfinite(sigmoid(-800.0)) and math.isfinite(sigmoid(800.0))
    vec = sigmoid(np.array([-1.0, 0.0, 1.0]))
    assert vec[0] + vec[2] == pytest.approx(1.0, abs=1e-15)


def masked_sigmoid(x):
    """The logistic function as it was before its branch-free form: the two
    halves of the input gathered, mapped and scattered back."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return float(out) if out.ndim == 0 else out


logits = st.one_of(st.sampled_from([0.0, -0.0, 800.0, -800.0, 745.0, -745.0]), st.floats(-800.0, 800.0))


@given(st.lists(logits, max_size=33))
def test_sigmoid_is_the_masked_form_bit_for_bit(values):
    x = np.array(values, dtype=np.float64)
    assert sigmoid(x).tobytes() == masked_sigmoid(x).tobytes()
    for value in values[:3]:
        got = sigmoid(np.array(value))  # a 0-d input gives a float
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(masked_sigmoid(value)).tobytes()


def test_soft_threshold_values():
    assert soft_threshold(5.0, 2.0) == 3.0
    assert soft_threshold(-5.0, 2.0) == -3.0
    assert soft_threshold(1.0, 2.0) == 0.0
    assert soft_threshold(-1.0, 2.0) == 0.0
    assert soft_threshold(0.7, 0.0) == 0.7
    assert np.array_equal(soft_threshold(np.array([3.0, -0.5]), 1.0), np.array([2.0, 0.0]))


def test_fuse_logit_hand_value():
    # identity scaling on [0, 1], so the features reach the logit unchanged
    model = FusionModel(
        scaling=MinMaxParams(("s", "q"), lo=np.zeros(2), hi=np.ones(2), median=np.zeros(2)),
        weights=np.array([2.0, -1.0]),
        intercept=0.5,
        lam=0.0,
    )
    # logit 2 * 0.25 - 1 * 0.5 + 0.5 = 0.5
    assert apply_model(np.array([[0.25, 0.5]]), ["s", "q"], model).tolist() == [sigmoid(0.5)]
    with pytest.raises(ToolkitError, match="features"):
        apply_model(np.array([[0.25, 0.5, 0.5]]), ["s", "q", "r"], model)


def test_problem_validation(np_rng):
    good = np_rng.uniform(size=(10, 2))
    labels = np.array([1, 0] * 5, dtype=float)
    FusionProblem(good, labels)
    with pytest.raises(ToolkitError, match="scaled"):
        FusionProblem(good + 5.0, labels)
    with pytest.raises(ToolkitError, match="target and one non-target"):
        FusionProblem(good, np.ones(10))
    with pytest.raises(ToolkitError, match="non-finite"):
        FusionProblem(np.array([[np.nan, 0.0]] * 4), np.array([1, 0, 1, 0]))
    with pytest.raises(ToolkitError, match="lambda"):
        FusionProblem(good, labels, lam=-0.1)


def separated_problem(lam=1e-4):
    scores = np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9, 1.0])
    labels = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1], dtype=float)
    return FusionProblem(scores[:, None], labels, lam=lam)


def test_separated_data_fits_positive_weight_and_zero_train_eer():
    problem = separated_problem()
    result = fit(problem)
    assert result.weights[0] > 0.0
    logits = problem.features @ result.weights + result.intercept
    assert eer(det_curve(logits, problem.labels)) == 0.0
    # fitted objective beats a coarse sample of the search grid
    for w in np.arange(-5.0, 5.01, 0.5):
        for b in np.arange(-2.0, 2.01, 0.25):
            assert result.objective <= objective_value(problem, [w], float(b)) + 1e-12


def test_objective_trace_is_monotone_nonincreasing():
    result = fit(make_grid_problem())
    trace = result.objective_trace
    assert trace.shape[0] == result.iterations + 1
    assert np.all(np.diff(trace) <= 0.0)
    assert trace[-1] == result.objective
    assert trace[0] == objective_value(make_grid_problem(), np.zeros(2), 0.0)


def test_lambda_grid_shrinks_l1_norm():
    norms = []
    for lam in (0.0, 0.01, 0.1, 1.0):
        problem = make_grid_problem()
        refit = FusionProblem(problem.features, problem.labels.astype(float), lam=lam)
        norms.append(float(np.abs(fit(refit).weights).sum()))
    for lighter, heavier in zip(norms, norms[1:]):
        assert heavier <= lighter + 1e-6


def test_heavy_penalty_zeroes_noise_feature():
    problem = make_grid_problem()
    refit = FusionProblem(problem.features, problem.labels.astype(float), lam=0.1)
    result = fit(refit)
    assert abs(result.weights[1]) < 1e-6


def test_extreme_penalty_recovers_prior_logit(np_rng):
    features = np_rng.uniform(size=(200, 3))
    labels = (np.arange(200) < 60).astype(float)
    problem = FusionProblem(features, labels, lam=1e6)
    result = fit(problem)
    assert np.all(result.weights == 0.0)
    prior_logit = math.log(60.0 / 140.0)
    assert abs(result.intercept - prior_logit) <= 1e-3


def kkt_residual(problem, weights, intercept):
    """Max-norm KKT residual of the fusion objective, coordinate by coordinate."""
    X, labels = problem.features, problem.labels.astype(float)
    residual = 1.0 / (1.0 + np.exp(-(X @ weights + intercept))) - labels
    worst = abs(residual.mean())
    for j, w in enumerate(weights):
        g = float(np.mean(residual * X[:, j]))
        if w > 0.0:
            worst = max(worst, abs(g + problem.lam))
        elif w < 0.0:
            worst = max(worst, abs(g - problem.lam))
        else:
            worst = max(worst, abs(g) - problem.lam)
    return worst


def grid_problem(lam):
    problem = make_grid_problem()
    return FusionProblem(problem.features, problem.labels, lam=lam)


@pytest.mark.parametrize(
    "problem",
    [separated_problem(), grid_problem(0.0), grid_problem(0.01), grid_problem(0.05)],
    ids=["separated", "grid-0", "grid-0.01", "grid-0.05"],
)
def test_fit_stops_on_kkt_certificate(problem):
    result = fit(problem, tol=1e-9)
    assert result.converged
    assert result.kkt_residual <= 1e-9
    assert kkt_residual(problem, result.weights, result.intercept) <= 1e-9
    assert result.iterations >= 1


def test_optimal_start_returns_without_iterating():
    # balanced labels make b = 0 optimal, and lam = 0.1 exceeds both weight gradients at w = 0
    result = fit(grid_problem(0.1))
    assert result.converged
    assert result.iterations == 0
    assert result.objective_trace.shape == (1,)
    assert np.all(result.weights == 0.0)
    assert result.intercept == 0.0


def test_iteration_cap_reports_not_converged():
    result = fit(grid_problem(0.01), max_iters=1)
    assert result.iterations == 1
    assert not result.converged
    assert result.kkt_residual > 1e-9
    assert result.kkt_residual == pytest.approx(kkt_residual(grid_problem(0.01), result.weights, result.intercept))


def test_momentum_restart_converges_on_nearly_separable_data():
    # without the restart on a rejected candidate MFISTA needs about 18k
    # iterations here: candidates stay rejected while old momentum decays
    rng = np.random.default_rng(21)
    features = rng.uniform(size=(100, 3))
    logits = (features - 0.5) @ np.array([6.0, 3.0, 0.0]) + 0.1 * rng.normal(size=100)
    problem = FusionProblem(features, logits > 0.0, lam=0.0)
    result = fit(problem, max_iters=2000)
    assert result.converged
    assert kkt_residual(problem, result.weights, result.intercept) <= 1e-9


def test_fit_parameter_validation():
    problem = separated_problem()
    with pytest.raises(ToolkitError):
        fit(problem, max_iters=0)
    with pytest.raises(ToolkitError):
        fit(problem, tol=-1.0)


# ---------------------------------------------------------------------------
# Frozen grid-search oracle


def test_grid_problem_digest_is_stable():
    assert problem_digest(make_grid_problem()) == FROZEN_DIGEST


def test_frozen_argmin_value_and_local_minimality():
    problem = make_grid_problem()
    w1, w2, b = FROZEN_ARGMIN
    center = objective_value(problem, np.array([w1, w2]), b)
    assert abs(center - FROZEN_GRID_MIN) <= 1e-12
    for dw1, dw2, db in itertools.product((-0.01, 0.0, 0.01), repeat=3):
        if dw1 == dw2 == db == 0.0:
            continue
        neighbor = objective_value(problem, np.array([w1 + dw1, w2 + dw2]), b + db)
        assert neighbor >= center


def test_fitted_objective_beats_frozen_grid_minimum():
    result = fit(make_grid_problem())
    assert result.objective <= FROZEN_GRID_MIN + 1e-3
    # the grid is a subset of the continuous domain, so the fit must win
    assert result.objective <= FROZEN_GRID_MIN


# ---------------------------------------------------------------------------
# Applying saved models


def test_apply_model_matches_manual_pipeline(np_rng):
    model = FusionModel(
        scaling=MinMaxParams(
            ("a", "b"),
            lo=np.array([0.0, 10.0]),
            hi=np.array([2.0, 30.0]),
            median=np.array([1.0, 20.0]),
        ),
        weights=np.array([1.2, -0.4]),
        intercept=0.3,
        lam=0.01,
    )
    raw = np.array([[1.0, np.nan], [4.0, 10.0]])
    probs = apply_model(raw, ["a", "b"], model)
    # row 0: feature a scales to 0.5, missing b imputes to its median (0.5)
    expected0 = sigmoid(1.2 * 0.5 - 0.4 * 0.5 + 0.3)
    # row 1: a clamps to 1.0, b scales to 0.0
    expected1 = sigmoid(1.2 * 1.0 + 0.3)
    assert probs[0] == expected0
    assert probs[1] == expected1
    with pytest.raises(ToolkitError):
        apply_model(np.ones((2, 3)), ["a", "b"], model)
    with pytest.raises(ToolkitError):
        apply_model(np.ones(2), ["a", "b"], model)


def test_apply_model_rejects_mismatched_feature_names():
    model = FusionModel(
        scaling=MinMaxParams(("raw", "norm"), lo=np.zeros(2), hi=np.ones(2), median=np.zeros(2)),
        weights=np.array([1.0, 1.0]),
        intercept=0.0,
        lam=0.0,
    )
    with pytest.raises(FeatureMismatchError, match="^model expects 2 features, got 3$"):
        apply_model(np.zeros((1, 3)), ["raw", "norm", "extra"], model)
    with pytest.raises(FeatureMismatchError, match="^feature 1: model expects 'raw', got 'norm'$"):
        apply_model(np.zeros((1, 2)), ["norm", "raw"], model)


def test_train_matches_manual_pipeline(np_rng):
    names = ["a", "b", "c"]
    raw = np_rng.normal(size=(40, 3)) * np.array([1.0, 10.0, 0.1])
    raw[3, 1] = np.nan
    labels = raw[:, 0] + 0.3 * np_rng.normal(size=40) > 0.0
    model = train(raw.copy(), labels, names, lam=0.02, max_iters=5000, tol=1e-10)  # train scales its copy in place

    params = qmf.minmax_fit(raw, names)
    problem = FusionProblem(qmf.minmax_apply(raw, params), labels, lam=0.02)
    fitted = fit(problem, max_iters=5000, tol=1e-10)
    assert model.weights.tobytes() == fitted.weights.tobytes()
    assert model.intercept == fitted.intercept
    assert model.lam == 0.02
    assert model.feature_names == tuple(names)
    for attr in ("lo", "hi", "median"):
        assert getattr(model.scaling, attr).tobytes() == getattr(params, attr).tobytes()


# ---------------------------------------------------------------------------
# The step floor's sum of squares


@given(st.integers(1, 700), st.integers(1, 40), st.sampled_from(["C", "F", "every other column"]),
       st.sampled_from([1 << 10, 1 << 12, 1 << 15, scoring.COSINE_BLOCK_BYTES]), st.integers(0, 2**32 - 1))
@example(rows=11_538, cols=26, layout="C", budget=scoring.COSINE_BLOCK_BYTES, seed=1)  # 299 988 cells
def test_sum_of_squares_matches_numpy_bit_for_bit(rows, cols, layout, budget, seed):
    """Leaves of 128 to 32 768 cells (budgets of 1 KiB to 256 KiB) give the
    bits of the sum over the squared matrix that fit's step floor took."""
    rng = np.random.default_rng(seed)
    matrix = rng.random((rows, cols)) * 10.0 ** rng.integers(-3, 4, size=cols)
    if layout == "F":
        matrix = np.asfortranarray(matrix)
    elif layout == "every other column":
        matrix = matrix[:, ::2]
    with mock.patch.object(scoring, "COSINE_BLOCK_BYTES", budget):
        total = fusion._sum_of_squares(matrix.ravel(order="K"))
    assert total == float((matrix * matrix).sum())


def test_fit_holds_no_copy_of_the_features(traced_peak):
    """fit peaks at a few per-trial vectors, below half the matrix it fits; a
    squared copy of the matrix alone is all of it."""
    rng = np.random.default_rng(4)
    features = rng.random((60_000, 26))
    problem = FusionProblem(features, features[:, 0] + rng.random(60_000) > 1.0)
    fitted, peak = traced_peak(fit, problem, max_iters=3)
    assert fitted.iterations == 3
    assert peak < features.nbytes / 2
