"""L1-penalized logistic regression for score and quality-feature fusion.

The model maps a trial's feature vector x (system scores followed by quality
features, each min-max scaled to [0, 1]) to a target probability

    P = 1 / (1 + exp(-(w . x + b)))

and is fit by monotone FISTA (MFISTA; Beck & Teboulle, SIAM J. Imaging Sci.
2009 and IEEE TIP 2009): accelerated proximal gradient steps on the mean
logistic loss, each followed by soft thresholding of the weights, with a
candidate kept only if it does not raise the penalized objective, so the
objective trace is monotone nonincreasing. A rejected candidate also
restarts the momentum (the function-value restart of O'Donoghue & Candès,
Found. Comput. Math. 2015); without it, momentum built up over hundreds of
iterations can keep the candidates rejected for thousands more. The
intercept b is not penalized. Step sizes backtrack on the descent lemma and
double after every iteration; they never drop below
``4 n / (sum(X**2) + n)``, the inverse of the Frobenius bound on the loss
curvature (with the intercept column, so the bound is finite), at which the
descent lemma always holds. The solver stops on an optimality certificate:
the max-norm KKT residual

    |g_j + lam * sign(w_j)|  for w_j != 0,
    max(|g_j| - lam, 0)      for w_j == 0,
    |g_b|                    for the intercept,

with g the loss gradient at the kept iterate, at most ``tol``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmf
from .dataio import FusionModel
from .errors import FeatureMismatchError, ToolkitError
from .scoring import per_block


def sigmoid(x):
    """Numerically stable logistic function, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))  # at most 1, so neither branch overflows
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
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
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)


@dataclass(frozen=True)
class FittedFusion:
    """What ``fit`` reached: the weights and intercept, the penalized
    objective there and its trace over the kept iterates (``iterations + 1``
    entries), the KKT residual, and whether it is at most the ``tol`` asked."""

    weights: np.ndarray
    intercept: float
    objective: float
    iterations: int
    objective_trace: np.ndarray
    kkt_residual: float
    converged: bool


def _mean_loss(neg_sign: np.ndarray, logits: np.ndarray) -> float:
    """Mean logistic loss from logits; ``neg_sign`` is -1 for targets, +1 otherwise."""
    return float(np.logaddexp(0.0, neg_sign * logits).mean())


def objective_value(problem: FusionProblem, weights, intercept: float) -> float:
    """Mean logistic loss plus lam * ||weights||_1 (intercept unpenalized)."""
    weights = np.asarray(weights, dtype=np.float64)
    logits = problem.features @ weights + intercept
    neg_sign = np.where(problem.labels, -1.0, 1.0)
    return _mean_loss(neg_sign, logits) + problem.lam * float(np.abs(weights).sum())


def _sum_of_squares(values: np.ndarray) -> float:
    """``float((values * values).sum())`` of a 1-D array, bit for bit, without
    its copy: numpy sums a contiguous vector pairwise, halving it at
    ``n // 2`` rounded down to a multiple of 8, and this follows that split
    down to pieces of at most ``per_block(8)`` values, each of which numpy
    sums the same way from one temporary of its squares."""
    if len(values) <= per_block(8):
        return float(np.add.reduce(values * values))
    half = len(values) // 2
    half -= half % 8
    return _sum_of_squares(values[:half]) + _sum_of_squares(values[half:])


def fit(problem: FusionProblem, max_iters: int = 100000, tol: float = 1e-9) -> FittedFusion:
    """MFISTA fit from zero initialization (see the module docstring).

    Each iteration takes a backtracked proximal gradient step from the
    extrapolated point to a candidate and keeps the candidate only if it
    does not raise the objective; otherwise the previous iterate is kept,
    the candidate only steers the next extrapolation, and momentum starts
    over. Stops when the KKT residual at the kept iterate is at most ``tol``
    (``converged``) or after ``max_iters`` iterations. The zero start is
    iteration 0, so the trace of kept objectives has ``iterations + 1``
    entries.
    """
    if max_iters < 1:
        raise ToolkitError(f"max_iters must be >= 1, got {max_iters}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ToolkitError(f"tol must be finite and >= 0, got {tol}")
    X = problem.features
    n, k = X.shape
    lam = problem.lam
    y01 = problem.labels.astype(np.float64)
    neg_sign = np.where(problem.labels, -1.0, 1.0)
    # the descent lemma holds at this step from any point, so backtracking stops here
    step0 = 4.0 * n / (_sum_of_squares(X.ravel(order="K")) + n)

    def gradient(logits):
        residual = sigmoid(logits) - y01
        return X.T @ residual / n, float(residual.mean())

    def kkt_residual(weights, grad_w, grad_b):
        per_weight = np.where(
            weights != 0.0,
            np.abs(grad_w + lam * np.sign(weights)),
            np.maximum(np.abs(grad_w) - lam, 0.0),
        )
        return max(float(per_weight.max(initial=0.0)), abs(grad_b))

    weights, intercept = np.zeros(k), 0.0
    logits = X @ weights + intercept
    current = _mean_loss(neg_sign, logits)
    grad_w, grad_b = gradient(logits)
    residual = kkt_residual(weights, grad_w, grad_b)
    trace = [current]
    # extrapolated point y, its loss and gradient; y_1 = x_0
    y_w, y_b, y_loss, y_grad_w, y_grad_b = weights, intercept, current, grad_w, grad_b
    t = 1.0
    step = step0
    iterations = 0
    while residual > tol and iterations < max_iters:
        while True:
            cand_w = soft_threshold(y_w - step * y_grad_w, step * lam)
            cand_b = y_b - step * y_grad_b
            cand_logits = X @ cand_w + cand_b
            cand_loss = _mean_loss(neg_sign, cand_logits)
            if step == step0:
                break
            d_w, d_b = cand_w - y_w, cand_b - y_b
            linear = float(y_grad_w @ d_w) + y_grad_b * d_b
            if cand_loss <= y_loss + linear + (float(d_w @ d_w) + d_b * d_b) / (2.0 * step):
                break
            step *= 0.5
        cand_obj = cand_loss + lam * float(np.abs(cand_w).sum())

        iterations += 1
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        if cand_obj <= current:
            momentum = (t - 1.0) / t_next
            y_w = cand_w + momentum * (cand_w - weights)
            y_b = cand_b + momentum * (cand_b - intercept)
            weights, intercept, current = cand_w, cand_b, cand_obj
            grad_w, grad_b = gradient(cand_logits)
            residual = kkt_residual(weights, grad_w, grad_b)
            t = t_next
        else:
            pull = t / t_next
            y_w = weights + pull * (cand_w - weights)
            y_b = intercept + pull * (cand_b - intercept)
            t = 1.0
        trace.append(current)
        y_logits = X @ y_w + y_b
        y_loss = _mean_loss(neg_sign, y_logits)
        y_grad_w, y_grad_b = gradient(y_logits)
        step *= 2.0
    return FittedFusion(weights, intercept, current, iterations, np.asarray(trace), residual, residual <= tol)


# ---------------------------------------------------------------------------
# Training and applying models on raw features


def train(
    raw_features: np.ndarray,
    labels: np.ndarray,
    names: list[str],
    lam: float = 0.01,
    max_iters: int = 100000,
    tol: float = 1e-9,
) -> tuple[FusionModel, FittedFusion]:
    """Fit min-max scaling on raw (unscaled) feature rows, then the fusion
    weights on the rows scaled in place, which uses up ``raw_features``.
    Returns the model, which carries both, and the fit it came from. A fit
    that stops at ``max_iters`` before its KKT residual reaches ``tol`` still
    returns its model, with ``converged`` false in the fit."""
    scaling = qmf.minmax_fit(raw_features, names)
    problem = FusionProblem(features=qmf.minmax_apply(raw_features, scaling), labels=labels, lam=lam)
    fitted = fit(problem, max_iters=max_iters, tol=tol)
    return FusionModel(scaling=scaling, weights=fitted.weights, intercept=fitted.intercept, lam=lam), fitted


def apply_model(raw_features: np.ndarray, names: list[str], model: FusionModel) -> np.ndarray:
    """Fusion probabilities for raw (unscaled) feature rows under a model.

    ``names`` label the columns and must equal the model's feature names in
    order. Applies the model's median imputation and min-max scaling in
    place, which uses up ``raw_features``, then the linear logit and sigmoid.
    One probability per row.
    """
    if len(names) != len(model.feature_names):
        raise FeatureMismatchError(f"model expects {len(model.feature_names)} features, got {len(names)}")
    for i, (expected, got) in enumerate(zip(model.feature_names, names)):
        if expected != got:
            raise FeatureMismatchError(f"feature {i + 1}: model expects {expected!r}, got {got!r}")
    scaled = qmf.minmax_apply(raw_features, model.scaling)
    return sigmoid(scaled @ model.weights + model.intercept)
