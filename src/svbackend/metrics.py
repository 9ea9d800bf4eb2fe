"""Detection error tradeoff, EER, and minimum detection cost.

The operating points are the distinct scores in ascending order plus one
sentinel above the maximum (the reject-everything point). A trial is accepted
when its score is >= the threshold, so at the lowest distinct score everything
is accepted (p_miss 0, p_fa 1) and at the sentinel everything is rejected
(p_miss 1, p_fa 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ToolkitError


@dataclass(frozen=True)
class DcfParams:
    """Operating costs and target prior for the detection cost function."""

    p_target: float = 0.05
    c_miss: float = 1.0
    c_fa: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.p_target < 1.0:
            raise ValueError(f"p_target must lie in (0, 1), got {self.p_target}")
        if self.c_miss <= 0.0 or self.c_fa <= 0.0:
            raise ValueError("costs must be positive")


@dataclass(frozen=True)
class DetCurve:
    """Miss/false-alarm rates at each candidate threshold (ascending)."""

    thresholds: np.ndarray
    p_miss: np.ndarray
    p_fa: np.ndarray


def _check_scores_labels(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if scores.ndim != 1 or labels.shape != scores.shape:
        raise ToolkitError(f"scores and labels must be equal-length vectors, got {scores.shape} and {labels.shape}")
    if scores.shape[0] == 0:
        raise ToolkitError("empty trial list")
    if not np.all(np.isfinite(scores)):
        raise ToolkitError("non-finite score")
    n_pos = int(labels.sum())
    if n_pos == 0 or n_pos == scores.shape[0]:
        raise ToolkitError("need at least one target and one non-target trial")
    return scores, labels


def det_curve(scores, labels) -> DetCurve:
    """DET operating points for scored, labeled trials.

    Args:
        scores: per-trial scores, higher means more target-like.
        labels: per-trial booleans, True for target trials.

    Returns:
        DetCurve over the distinct scores ascending plus a final
        reject-everything sentinel threshold just above the maximum.
    """
    scores, labels = _check_scores_labels(scores, labels)
    pos = np.sort(scores[labels])
    neg = np.sort(scores[~labels])
    # np.unique's values without its lazy numpy.ma import: the first of each run of
    # equal scores in a stable sort, so a tie of -0.0 and +0.0 keeps the first in input order
    ordered = np.sort(scores, kind="stable")
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    thresholds = np.append(distinct, np.nextafter(distinct[-1], np.inf))
    # accept iff score >= threshold: misses are positives strictly below,
    # false alarms are negatives at or above
    p_miss = np.searchsorted(pos, thresholds, side="left") / pos.shape[0]
    p_fa = (neg.shape[0] - np.searchsorted(neg, thresholds, side="left")) / neg.shape[0]
    return DetCurve(thresholds=thresholds, p_miss=p_miss, p_fa=p_fa)


def eer(curve: DetCurve) -> float:
    """Equal error rate from a DET curve.

    p_miss - p_fa rises from -1 to +1 along the curve. At the first point
    where it is exactly zero, that common rate is returned. Otherwise both
    rates are linearly interpolated in threshold across the sign change and
    the crossing value is returned. The result does not depend on threshold
    scale, only on the rate pairs at the two bracketing points.
    """
    diff = curve.p_miss - curve.p_fa
    idx = int(np.argmax(diff >= 0.0))
    if diff[idx] == 0.0:
        return float(0.5 * (curve.p_miss[idx] + curve.p_fa[idx]))
    m1, m2 = curve.p_miss[idx - 1], curve.p_miss[idx]
    f1, f2 = curve.p_fa[idx - 1], curve.p_fa[idx]
    # fraction of the segment where the interpolated rates meet
    t = (f1 - m1) / ((m2 - m1) - (f2 - f1))
    return float(0.5 * ((m1 + t * (m2 - m1)) + (f1 + t * (f2 - f1))))


def min_dcf(curve: DetCurve, params: DcfParams = DcfParams()) -> tuple[float, float]:
    """Minimum normalized detection cost over the curve.

    Returns:
        (cost, threshold): cost is min over points of
        c_miss * p_target * p_miss + c_fa * (1 - p_target) * p_fa, divided by
        the best trivial system min(c_miss * p_target, c_fa * (1 - p_target));
        threshold is where the minimum is reached, smallest threshold on ties.
    """
    raw = (
        params.c_miss * params.p_target * curve.p_miss
        + params.c_fa * (1.0 - params.p_target) * curve.p_fa
    )
    idx = int(np.argmin(raw))
    floor = min(params.c_miss * params.p_target, params.c_fa * (1.0 - params.p_target))
    return float(raw[idx] / floor), float(curve.thresholds[idx])


def evaluate(scores, labels, p_targets: tuple[float, ...] = (0.05, 0.01)) -> dict:
    """EER (as a fraction) and minDCF at each requested target prior."""
    curve = det_curve(scores, labels)
    result = {"eer": eer(curve), "min_dcf": {}}
    for p_target in p_targets:
        cost, threshold = min_dcf(curve, DcfParams(p_target=p_target))
        result["min_dcf"][p_target] = {"cost": cost, "threshold": threshold}
    return result
