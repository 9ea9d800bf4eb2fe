"""L1-penalized logistic regression for score and quality-feature fusion.

The model maps a trial's feature vector x (system scores followed by quality
features, each min-max scaled to [0, 1]) to a target probability

    P = 1 / (1 + exp(-(w . x + b)))

and is fit by proximal gradient descent (ISTA): a gradient step on the mean
logistic loss followed by soft thresholding of the weights. The intercept b
is not penalized. The step size starts at 1/L with L the Frobenius bound
``sum(X_aug**2) / (4 n)`` on the loss curvature (X_aug includes the
intercept column, so L > 0) and halves whenever a step fails to decrease
the penalized objective, so the objective trace is monotone nonincreasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmf
from .dataio import FusionModel
from .errors import FeatureMismatchError, ToolkitError


def sigmoid(x):
    """Numerically stable logistic function, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return float(out) if out.ndim == 0 else out


def soft_threshold(values, threshold: float):
    """Shrink toward zero: sign(v) * max(|v| - threshold, 0)."""
    values = np.asarray(values, dtype=np.float64)
    out = np.sign(values) * np.maximum(np.abs(values) - threshold, 0.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class FusionProblem:
    """Scaled training design for fusion: features in [0, 1], boolean labels."""

    features: np.ndarray
    labels: np.ndarray
    lam: float = 0.01
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=bool)
        if features.ndim != 2:
            raise ToolkitError(f"features must be a 2-D matrix, got shape {features.shape}")
        if labels.shape != (features.shape[0],):
            raise ToolkitError("labels must align with feature rows")
        if features.shape[0] < 2:
            raise ToolkitError("need at least two training trials")
        if not np.all(np.isfinite(features)):
            raise ToolkitError("non-finite feature value")
        if features.size and (features.min() < 0.0 or features.max() > 1.0):
            raise ToolkitError("features must be scaled to [0, 1] before fitting")
        n_pos = int(labels.sum())
        if n_pos == 0 or n_pos == labels.shape[0]:
            raise ToolkitError("need at least one target and one non-target trial")
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise ToolkitError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.feature_names is not None and len(self.feature_names) != features.shape[1]:
            raise ToolkitError("feature_names must match feature count")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class FittedFusion:
    weights: np.ndarray
    intercept: float
    objective: float
    iterations: int
    objective_trace: np.ndarray


def objective_value(problem: FusionProblem, weights, intercept: float) -> float:
    """Mean logistic loss plus lam * ||weights||_1 (intercept unpenalized)."""
    weights = np.asarray(weights, dtype=np.float64)
    z = problem.features @ weights + intercept
    sign = np.where(problem.labels, 1.0, -1.0)
    loss = float(np.logaddexp(0.0, -sign * z).mean())
    return loss + problem.lam * float(np.abs(weights).sum())


def fit(problem: FusionProblem, max_iters: int = 100000, tol: float = 1e-9) -> FittedFusion:
    """ISTA fit from zero initialization. Stops when an accepted step improves
    the objective by less than ``tol`` or after ``max_iters`` iterations."""
    if max_iters < 1:
        raise ToolkitError(f"max_iters must be >= 1, got {max_iters}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ToolkitError(f"tol must be finite and >= 0, got {tol}")
    X = problem.features
    n, k = X.shape
    y01 = problem.labels.astype(np.float64)
    lipschitz = (float((X * X).sum()) + n) / (4.0 * n)
    step0 = 1.0 / lipschitz

    weights = np.zeros(k)
    intercept = 0.0
    current = objective_value(problem, weights, intercept)
    trace = [current]
    iterations = 0

    step = step0
    for _ in range(max_iters):
        probs = sigmoid(X @ weights + intercept)
        residual = probs - y01
        grad_w = X.T @ residual / n
        grad_b = float(residual.mean())

        while True:
            cand_w = soft_threshold(weights - step * grad_w, step * problem.lam)
            cand_b = intercept - step * grad_b
            cand_obj = objective_value(problem, cand_w, cand_b)
            if cand_obj <= current:
                break
            step *= 0.5
            if step < step0 * 2.0**-200:
                # no decrease at any representable step: converged
                return FittedFusion(weights, intercept, current, iterations, np.asarray(trace))

        improvement = current - cand_obj
        weights, intercept, current = cand_w, cand_b, cand_obj
        iterations += 1
        trace.append(current)
        if improvement < tol:
            break
    return FittedFusion(weights, intercept, current, iterations, np.asarray(trace))


# ---------------------------------------------------------------------------
# Training and applying models on raw features


def train(
    raw_features: np.ndarray,
    labels: np.ndarray,
    names: list[str],
    lam: float = 0.01,
    max_iters: int = 100000,
    tol: float = 1e-9,
) -> FusionModel:
    """Fit min-max scaling on raw (unscaled) feature rows, then the fusion
    weights on the scaled rows; the model carries both."""
    scaling = qmf.minmax_fit(raw_features, names)
    problem = FusionProblem(features=qmf.minmax_apply(raw_features, scaling), labels=labels, lam=lam)
    fitted = fit(problem, max_iters=max_iters, tol=tol)
    return FusionModel(scaling=scaling, weights=fitted.weights, intercept=fitted.intercept, lam=lam)


def apply_model(raw_features: np.ndarray, names: list[str], model: FusionModel) -> np.ndarray:
    """Fusion probabilities for raw (unscaled) feature rows under a model.

    ``names`` label the columns and must equal the model's feature names in
    order. Applies the model's median imputation and min-max scaling, then
    the linear logit and sigmoid. One probability per row.
    """
    if len(names) != len(model.feature_names):
        raise FeatureMismatchError(f"model expects {len(model.feature_names)} features, got {len(names)}")
    for i, (expected, got) in enumerate(zip(model.feature_names, names)):
        if expected != got:
            raise FeatureMismatchError(f"feature {i + 1}: model expects {expected!r}, got {got!r}")
    scaled = qmf.minmax_apply(raw_features, model.scaling)
    return sigmoid(scaled @ model.weights + model.intercept)
