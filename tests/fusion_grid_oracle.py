"""Brute-force grid-search oracle for the 2-feature fusion problem.

Sweeps the regularized logistic objective over the full grid
w1, w2 in [-5, 5] step 0.01 and b in [-2, 2] step 0.01 and reports the
grid minimum. The sweep is exhaustive over both weight axes. Along the
intercept axis the objective is strictly convex (its second derivative
is a mean of sigmoid variances, which is strictly positive), so the
sampled values are unimodal; we probe every 10th intercept and then
exhaustively evaluate a +/-21-step window around the coarse argmin,
which by unimodality is guaranteed to contain the fine-grid argmin.
The final argmin and its neighborhood are re-evaluated with the
library objective so the frozen constants match `objective_value`.

Run standalone (takes several minutes on one core):

    python3 tests/fusion_grid_oracle.py

The printed block is what gets frozen into the test suite.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from svbackend.fusion import FusionProblem, fit, objective_value
from svbackend.rng import SplitMix64, derive_seed

N_SAMPLES = 200
LAMBDA = 0.05

W_GRID = np.arange(-500, 501, dtype=np.int64) / 100.0
B_GRID = np.arange(-200, 201, dtype=np.int64) / 100.0
COARSE_STEP = 10
WINDOW = 21

# Frozen output of main() below. The sweep visits the full weight grid; the
# argmin was re-confirmed by exhaustive single-axis sweeps of the library
# objective through it. Tests re-verify the problem digest, the argmin value,
# and grid-local minimality without re-running the sweep.
FROZEN_DIGEST = "69ce189815cb0b2b1a555d51dab68b0ff76300e36badc200d309bad3a5a91537"
FROZEN_GRID_MIN = 0.6719126424591301
FROZEN_ARGMIN = (2.13, 0.0, -1.08)


def make_grid_problem() -> FusionProblem:
    """Deterministic 200-trial, 2-feature problem: one informative
    column (class-shifted gaussian clipped to [0,1]) and one pure-noise
    uniform column."""
    rng = SplitMix64(derive_seed(1234, "fusion/grid-problem"))
    labels = np.array([1.0 if i % 2 == 0 else 0.0 for i in range(N_SAMPLES)])
    x1 = np.empty(N_SAMPLES)
    x2 = np.empty(N_SAMPLES)
    for i in range(N_SAMPLES):
        center = 0.65 if labels[i] == 1.0 else 0.35
        x1[i] = min(1.0, max(0.0, center + 0.15 * rng.gauss()))
        x2[i] = rng.uniform()
    features = np.column_stack([x1, x2])
    return FusionProblem(features, labels, lam=LAMBDA)


def problem_digest(problem: FusionProblem) -> str:
    parts = []
    for row, label in zip(problem.features, problem.labels):
        parts.append(",".join(repr(float(v)) for v in row))
        parts.append(repr(float(label)))
    parts.append(repr(float(problem.lam)))
    blob = "\n".join(parts).encode("ascii")
    return hashlib.sha256(blob).hexdigest()


def _softplus(m: np.ndarray) -> np.ndarray:
    a = np.abs(m)
    np.negative(a, out=a)
    np.exp(a, out=a)
    np.log1p(a, out=a)
    a += np.maximum(m, 0.0)
    return a


def _mean_loss(signed: np.ndarray, sign: np.ndarray, b_per_col: np.ndarray) -> np.ndarray:
    """Mean softplus loss for one w1 row.

    signed: (n, n_w2) of sign_i * (w1*x1_i + w2*x2_i); b_per_col: (n_w2,).
    Returns (n_w2,) of mean_i softplus(signed + sign_i*b_j)."""
    arg = signed + sign[:, None] * b_per_col[None, :]
    return _softplus(arg).mean(axis=0)


def sweep(problem: FusionProblem) -> tuple[float, int, int, int]:
    x1 = problem.features[:, 0]
    x2 = problem.features[:, 1]
    sign = np.where(problem.labels == 1.0, -1.0, 1.0)
    z2 = x2[:, None] * W_GRID[None, :]
    coarse_idx = np.arange(0, B_GRID.size, COARSE_STEP)
    penalty_w2 = LAMBDA * np.abs(W_GRID)

    best_val = np.inf
    best = (0, 0, 0)
    t0 = time.perf_counter()
    for i1, w1 in enumerate(W_GRID):
        signed = sign[:, None] * (w1 * x1[:, None] + z2)
        coarse = np.empty((coarse_idx.size, W_GRID.size))
        for k, jb in enumerate(coarse_idx):
            coarse[k] = _mean_loss(signed, sign, np.full(W_GRID.size, B_GRID[jb]))
        anchor = coarse_idx[np.argmin(coarse, axis=0)]

        fine_best = np.full(W_GRID.size, np.inf)
        fine_arg = np.zeros(W_GRID.size, dtype=np.int64)
        for off in range(-WINDOW, WINDOW + 1):
            jb = np.clip(anchor + off, 0, B_GRID.size - 1)
            vals = _mean_loss(signed, sign, B_GRID[jb])
            better = vals < fine_best
            fine_best[better] = vals[better]
            fine_arg[better] = jb[better]

        totals = fine_best + LAMBDA * abs(w1) + penalty_w2
        j2 = int(np.argmin(totals))
        if totals[j2] < best_val:
            best_val = float(totals[j2])
            best = (i1, j2, int(fine_arg[j2]))
        if i1 % 100 == 0:
            rate = (i1 + 1) / (time.perf_counter() - t0)
            print(f"  row {i1}/{W_GRID.size} best={best_val:.12f} "
                  f"({rate:.1f} rows/s)", flush=True)
    return best_val, best[0], best[1], best[2]


def verify_argmin(problem: FusionProblem, i1: int, j2: int, jb: int) -> None:
    """Exhaustive library-objective sweeps through the argmin along each
    axis, confirming the windowed scan found the true grid minimum."""
    w1, w2, b = W_GRID[i1], W_GRID[j2], B_GRID[jb]
    axis_b = [objective_value(problem, np.array([w1, w2]), float(bb))
              for bb in B_GRID]
    assert int(np.argmin(axis_b)) == jb, "b-axis argmin mismatch"
    axis_w1 = [objective_value(problem, np.array([ww, w2]), float(b))
               for ww in W_GRID]
    assert int(np.argmin(axis_w1)) == i1, "w1-axis argmin mismatch"
    axis_w2 = [objective_value(problem, np.array([w1, ww]), float(b))
               for ww in W_GRID]
    assert int(np.argmin(axis_w2)) == j2, "w2-axis argmin mismatch"


def main() -> None:
    problem = make_grid_problem()
    print(f"digest: {problem_digest(problem)}")
    val, i1, j2, jb = sweep(problem)
    w1, w2, b = float(W_GRID[i1]), float(W_GRID[j2]), float(B_GRID[jb])
    print(f"sweep min (fast softplus): {val!r} at w=({w1!r}, {w2!r}) b={b!r}")

    lib_val = objective_value(problem, np.array([w1, w2]), b)
    print(f"library objective at argmin: {lib_val!r}")
    verify_argmin(problem, i1, j2, jb)
    print("axis re-sweeps through argmin: ok")

    fitted = fit(problem)
    print(f"fitted objective: {fitted.objective!r}")
    print(f"fitted weights: {fitted.weights!r} intercept: {fitted.intercept!r}")
    print(f"grid - fitted: {lib_val - fitted.objective!r}")

    frozen_ok = (
        problem_digest(problem) == FROZEN_DIGEST
        and (w1, w2, b) == FROZEN_ARGMIN
        and lib_val == FROZEN_GRID_MIN
    )
    print(f"matches frozen constants: {frozen_ok}")


if __name__ == "__main__":
    main()
