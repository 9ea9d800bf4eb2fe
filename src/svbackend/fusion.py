"""L1-penalized logistic regression for score and quality-feature fusion.

The model maps a trial's feature vector x (system scores followed by quality
features, each min-max scaled to [0, 1]) to a target probability

    P = 1 / (1 + exp(-(w . x + b)))

and is fit by proximal Newton, the method of glmnet and newGLMNET (Friedman,
Hastie & Tibshirani, J. Stat. Softw. 2010; Yuan, Ho & Lin, JMLR 2012). Each
outer step takes the loss gradient g and Hessian G, the intercept as a column
of ones, from one pass over blocks of rows through ``scoring.dots``, and
minimises the model ``g.d + d.G.d / 2`` plus the penalty in Python floats: a
coordinate-descent sweep over all coefficients, sweeps over the nonzero ones
until none leaves, then an exact Cholesky solve with each weight held at zero
or at its sign, kept if the signs hold and no zero weight should move (a
broken sign drops its weight from the solve), else more sweeps, ``SWEEPS`` at
most. The step then halves until the objective falls by ``ARMIJO`` of the
decrease the model predicts, so the objective trace never rises. The
intercept b is not penalized. The solver stops on an optimality certificate:
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
from .scoring import blocks, dots


def sigmoid(x):
    """Numerically stable logistic function, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))  # at most 1, so neither branch overflows
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
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
    objective there and its trace over the outer steps (``iterations + 1``
    entries), the KKT residual, and whether it is at most the ``tol`` asked."""

    weights: np.ndarray
    intercept: float
    objective: float
    iterations: int
    objective_trace: np.ndarray
    kkt_residual: float
    converged: bool


def _objective(problem: FusionProblem, weights: np.ndarray, intercept: float):
    """The logits and the penalized objective at (weights, intercept)."""
    logits = dots("ij,j->i", problem.features, weights)
    logits += intercept
    loss = float(np.logaddexp(0.0, np.where(problem.labels, -logits, logits)).mean())
    return logits, loss + problem.lam * float(np.abs(weights).sum())


def objective_value(problem: FusionProblem, weights, intercept: float) -> float:
    """Mean logistic loss plus lam * ||weights||_1 (intercept unpenalized)."""
    return _objective(problem, np.asarray(weights, dtype=np.float64), intercept)[1]


SWEEPS = 100  # coordinate-descent sweeps one Newton step may spend; at the cap it takes where they got
ARMIJO = 0.01  # the share of its model's predicted decrease a step must achieve on the objective


def _newton_step(gram: list[list[float]], grad: list[float], point: list[float], lam: float) -> list[float]:
    """The step d that minimises the model g.d + d.G.d / 2 + lam * ||w + d_w||_1
    at ``point`` = (w, b), intercept last (see the module docstring)."""
    k = len(point) - 1
    target = list(point)  # point + d
    slope = list(grad)  # the model's gradient, g + G d

    def move(j: int, change: float) -> None:
        target[j] += change
        slope[:] = [s + change * g for s, g in zip(slope, gram[j])]

    def sweep(coords) -> None:
        for j in coords:
            h = gram[j][j]
            if not h > 0.0:
                continue
            value = h * target[j] - slope[j]
            if j < k:
                shrunk = abs(value) - lam
                value = math.copysign(shrunk, value) if shrunk > 0.0 else 0.0
            change = value / h - target[j]
            if change:
                move(j, change)

    def support() -> list[int]:
        return [j for j in range(k) if target[j]] + [k]

    def exact(active: list[int]) -> list[float] | None:
        """The step to the model's minimiser with the weights off ``active`` at zero and those on it
        at their signs; None if a zero weight should move or a sign breaks, which moves the sweeps'
        point toward that minimiser until its first weight reaches zero."""
        signs = [math.copysign(lam, target[j]) if j < k else 0.0 for j in active]
        step = [0.0 if target[j] else -point[j] for j in range(k)] + [0.0]
        # the right-hand side of G's active block, solved in place through the Cholesky factor
        solved = [-grad[i] - s - sum(g * d for g, d in zip(gram[i], step)) for i, s in zip(active, signs)]
        lower: list[list[float]] = []
        for i, a in enumerate(active):
            row = []
            for j, b in enumerate(active[:i]):
                row.append((gram[a][b] - sum(x * y for x, y in zip(row, lower[j]))) / lower[j][j])
            pivot = gram[a][a] - sum(x * x for x in row)
            if not pivot > 0.0:
                return None
            lower.append([*row, math.sqrt(pivot)])
            solved[i] = (solved[i] - sum(x * y for x, y in zip(row, solved))) / lower[i][i]
        for i in reversed(range(len(active))):
            solved[i] = (solved[i] - sum(lower[j][i] * solved[j] for j in range(i + 1, len(active)))) / lower[i][i]
        for i, d in zip(active, solved):
            step[i] = d
        flips = [(target[i] / (target[i] - point[i] - d), i) for i, s, d in zip(active, signs, solved)
                 if s * (point[i] + d) < 0.0]
        if flips:
            t, first = min(flips)
            for i in active:
                move(i, -target[i] if i == first else t * (point[i] + step[i] - target[i]))
            return None
        if any(not target[j] and abs(grad[j] + sum(g * d for g, d in zip(gram[j], step))) > lam for j in range(k)):
            return None
        return step

    full = True
    for _ in range(SWEEPS):
        active = support()
        sweep(range(k + 1) if full else active)
        if support() != active:  # sweep the support until a sweep leaves it as it was
            full = False
            continue
        step = exact(active)
        while step is None and support() != active:  # a broken sign took its weight out
            active = support()
            step = exact(active)
        if step is not None:
            return step
        full = True
    return [u - w for u, w in zip(target, point)]


def fit(problem: FusionProblem, max_iters: int = 100000, tol: float = 1e-9) -> FittedFusion:
    """Proximal Newton fit from zero initialization (see the module docstring).
    Stops when the KKT residual is at most ``tol`` (``converged``) or after
    ``max_iters`` outer steps. The zero start is step 0, so the trace of
    objectives has ``iterations + 1`` entries."""
    if max_iters < 1:
        raise ToolkitError(f"max_iters must be >= 1, got {max_iters}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ToolkitError(f"tol must be finite and >= 0, got {tol}")
    n, k = problem.features.shape
    lam = problem.lam
    weights, intercept = np.zeros(k), 0.0
    logits, current = _objective(problem, weights, intercept)
    trace = [current]
    iterations = 0
    while True:
        # the loss gradient and Hessian, intercept last, from one pass over blocks of rows; the
        # Hessian is one scaled block's product with itself, so it is symmetric to the bit
        grad, gram = np.zeros(k + 1), np.zeros((k + 1, k + 1))
        for rows in blocks(n, 8 * (k + 1)):
            block = problem.features[rows]
            columns = np.ones((k + 1, len(block)))
            columns[:k] = block.T
            p = sigmoid(logits[rows])
            grad += dots("ji,i->j", columns, p - problem.labels[rows])
            columns *= np.sqrt(p * (1.0 - p))
            gram += dots("ji,ki->jk", columns, columns)
        grad, gram = grad / n, gram / n
        per_weight = np.where(weights != 0.0, np.abs(grad[:k] + lam * np.sign(weights)),
                              np.maximum(np.abs(grad[:k]) - lam, 0.0))
        residual = max(float(per_weight.max(initial=0.0)), abs(float(grad[k])))
        if residual <= tol or iterations == max_iters:
            break
        point = [*weights.tolist(), intercept]
        step = _newton_step(gram.tolist(), grad.tolist(), point, lam)
        decrease = sum(g * d for g, d in zip(grad.tolist(), step)) + lam * sum(
            abs(w + d) - abs(w) for w, d in zip(point[:k], step))
        t = 1.0
        while True:  # Armijo: ends, at the latest, once t * step no longer moves the objective
            cand_w, cand_b = weights + t * np.array(step[:k]), intercept + t * step[k]
            cand_logits, cand = _objective(problem, cand_w, cand_b)
            if cand <= current + ARMIJO * t * decrease:
                break
            t *= 0.5
        weights, intercept, logits, current = cand_w, cand_b, cand_logits, cand
        iterations += 1
        trace.append(current)
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
    return sigmoid(dots("ij,j->i", scaled, model.weights) + model.intercept)
