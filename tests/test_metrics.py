"""EER and minDCF against a counting-based brute-force threshold sweep."""

from fractions import Fraction

import numpy as np
import pytest

from svbackend.errors import ToolkitError
from svbackend.metrics import det_curve, eer, evaluate, min_dcf


def oracle_thresholds(scores):
    distinct = sorted(set(float(s) for s in scores))
    return distinct + [float(np.nextafter(distinct[-1], np.inf))]


def oracle_counts(scores, labels, threshold):
    """Integer miss / false-alarm counts with accept iff score >= threshold."""
    n_miss = sum(1 for s, y in zip(scores, labels) if y and s < threshold)
    n_fa = sum(1 for s, y in zip(scores, labels) if not y and s >= threshold)
    return n_miss, n_fa


def oracle_eer(scores, labels) -> float:
    """Exact-rational recomputation of the interpolated equal error rate."""
    labels = [bool(y) for y in labels]
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    rates = []
    for threshold in oracle_thresholds(scores):
        n_miss, n_fa = oracle_counts(scores, labels, threshold)
        rates.append((Fraction(n_miss, n_pos), Fraction(n_fa, n_neg)))
    for k, (pm, pf) in enumerate(rates):
        if pm >= pf:
            if pm == pf:
                return float(pm)
            m1, f1 = rates[k - 1]
            m2, f2 = pm, pf
            t = (f1 - m1) / ((m2 - m1) - (f2 - f1))
            crossing = Fraction(1, 2) * ((m1 + t * (m2 - m1)) + (f1 + t * (f2 - f1)))
            return float(crossing)
    raise AssertionError("no crossing found")


def oracle_min_dcf(scores, labels, p_target: float):
    """Same float cost formula at unit costs, but over brute-force counted rates."""
    labels = [bool(y) for y in labels]
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    best_cost, best_thr = np.inf, None
    for threshold in oracle_thresholds(scores):
        n_miss, n_fa = oracle_counts(scores, labels, threshold)
        cost = p_target * (n_miss / n_pos) + (1.0 - p_target) * (n_fa / n_neg)
        if cost < best_cost:
            best_cost, best_thr = cost, threshold
    floor = min(p_target, 1.0 - p_target)
    return best_cost / floor, best_thr


def random_set(np_rng, n_max=200):
    n = int(np_rng.integers(4, n_max))
    labels = np.zeros(n, dtype=bool)
    labels[: int(np_rng.integers(1, n - 1)) + 1] = True
    np_rng.shuffle(labels)
    if not labels.any() or labels.all():
        labels[0], labels[-1] = True, False
    if np_rng.uniform() < 0.5:
        scores = np_rng.normal(size=n) + labels * np_rng.uniform(0.0, 2.0)
    else:
        # quantized scores force ties between and within classes
        scores = np_rng.integers(0, 8, size=n) / 8.0 + labels * 0.25
    return scores, labels


def test_eer_interleaved_hand_example():
    scores = np.array([0.8, 0.6, 0.4, 0.7, 0.5, 0.3])
    labels = np.array([1, 1, 1, 0, 0, 0], dtype=bool)
    value = eer(det_curve(scores, labels))
    assert abs(value - 1.0 / 3.0) < 1e-15


def test_eer_constant_scores_is_half():
    scores = np.array([0.25, 0.25, 0.25, 0.25])
    labels = np.array([1, 0, 1, 0], dtype=bool)
    assert eer(det_curve(scores, labels)) == 0.5


def test_eer_separated_is_zero():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    labels = np.array([1, 1, 0, 0], dtype=bool)
    assert eer(det_curve(scores, labels)) == 0.0


def test_min_dcf_reject_all_is_one():
    # scores anti-correlated with labels: the reject-everything sentinel wins
    scores = np.array([0.1, 0.2, 0.7, 0.8])
    labels = np.array([1, 1, 0, 0], dtype=bool)
    cost, threshold = min_dcf(det_curve(scores, labels), 0.05)
    assert cost == 1.0
    assert threshold > 0.8


def test_min_dcf_tie_takes_smallest_threshold():
    # thresholds 0.2 and 0.6 tie on cost; the smaller one must be reported
    scores = np.array([0.6, 0.2, 0.5, 0.1])
    labels = np.array([1, 1, 0, 0], dtype=bool)
    cost, threshold = min_dcf(det_curve(scores, labels), 0.5)
    assert cost == 0.5
    assert threshold == 0.2


def test_det_curve_matches_counting_oracle(np_rng):
    for _ in range(30):
        scores, labels = random_set(np_rng)
        curve = det_curve(scores, labels)
        assert curve.thresholds.tolist() == oracle_thresholds(scores)
        n_pos = int(labels.sum())
        n_neg = len(labels) - n_pos
        for thr, pm, pf in zip(curve.thresholds, curve.p_miss, curve.p_fa):
            n_miss, n_fa = oracle_counts(scores, labels, thr)
            assert pm == n_miss / n_pos
            assert pf == n_fa / n_neg


def test_det_curve_ends_at_full_rejection(np_rng):
    scores, labels = random_set(np_rng)
    curve = det_curve(scores, labels)
    assert curve.p_miss[0] == 0.0 and curve.p_fa[0] == 1.0
    assert curve.p_miss[-1] == 1.0 and curve.p_fa[-1] == 0.0


def test_eer_matches_rational_oracle(np_rng):
    for _ in range(60):
        scores, labels = random_set(np_rng)
        got = eer(det_curve(scores, labels))
        assert abs(got - oracle_eer(scores, labels)) <= 1e-12
        assert 0.0 <= got <= 1.0


def test_min_dcf_matches_counting_oracle_exactly(np_rng):
    for _ in range(60):
        scores, labels = random_set(np_rng)
        curve = det_curve(scores, labels)
        for p_target in (0.05, 0.01, 0.5):
            got_cost, got_thr = min_dcf(curve, p_target)
            exp_cost, exp_thr = oracle_min_dcf(scores, labels, p_target)
            assert got_cost == exp_cost
            assert got_thr == exp_thr


def test_metrics_invariant_to_increasing_transforms(np_rng):
    for _ in range(20):
        scores, labels = random_set(np_rng)
        base = evaluate(scores, labels)
        for transformed in (2.0 * scores + 3.0, np.tanh(scores)):
            other = evaluate(transformed, labels)
            assert abs(other["eer"] - base["eer"]) <= 1e-12
            for p in (0.05, 0.01):
                diff = other["min_dcf"][p]["cost"] - base["min_dcf"][p]["cost"]
                assert abs(diff) <= 1e-12


def test_eer_role_swap_symmetry(np_rng):
    for _ in range(20):
        scores, labels = random_set(np_rng)
        forward = eer(det_curve(scores, labels))
        swapped = eer(det_curve(-scores, ~labels))
        assert abs(forward - swapped) <= 1e-12


def test_evaluate_structure(np_rng):
    scores, labels = random_set(np_rng)
    report = evaluate(scores, labels)
    assert set(report) == {"eer", "min_dcf"}
    assert set(report["min_dcf"]) == {0.05, 0.01}
    entry = report["min_dcf"][0.05]
    assert set(entry) == {"cost", "threshold"}
    assert 0.0 <= report["eer"] <= 1.0 and entry["cost"] >= 0.0


def test_input_validation():
    with pytest.raises(ToolkitError, match="target and one non-target"):
        det_curve(np.array([0.1, 0.2]), np.array([True, True]))
    with pytest.raises(ToolkitError, match="empty"):
        det_curve(np.array([]), np.array([], dtype=bool))
    with pytest.raises(ToolkitError, match="non-finite"):
        det_curve(np.array([0.1, np.nan]), np.array([True, False]))
    with pytest.raises(ToolkitError, match="equal-length"):
        det_curve(np.array([0.1, 0.2]), np.array([True]))
    with pytest.raises(ValueError, match="p_target"):
        min_dcf(det_curve(np.array([0.1, 0.2]), np.array([True, False])), 0.0)
