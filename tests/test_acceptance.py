"""Acceptance gate: ten end-to-end criteria, one test each, pinned tolerances.

Each criterion is checked against an oracle implemented here from first
principles (comparison counting, exact rational interpolation, double loops,
exhaustive search) rather than through the library's own code paths, so a
passing run certifies the numbers, not just internal consistency.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from svbackend import curation, dataio, fusion, metrics, qmf, scoring, synth, trainspec
from svbackend.asnorm import normalize_from_cohort_scores
from svbackend.curation import DdfConfig, SpeakerProfile
from svbackend.dataio import ChunkEmbeddings, DataFormatError
from svbackend.synth import SynthConfig

from fusion_grid_oracle import (
    FROZEN_ARGMIN,
    FROZEN_DIGEST,
    FROZEN_GRID_MIN,
    make_grid_problem,
    problem_digest,
)


# ---------------------------------------------------------------------------
# Independent metric oracle: comparison counting + rational interpolation


def _oracle_operating_points(scores, labels):
    """Integer miss/false-alarm counts at each distinct score plus a sentinel.

    Counting is done by direct comparison against every threshold, with no
    sorting or binary search.
    """
    values = [float(s) for s in scores]
    flags = [bool(l) for l in labels]
    pos = np.array([v for v, f in zip(values, flags) if f])
    neg = np.array([v for v, f in zip(values, flags) if not f])
    distinct = sorted(set(values))
    thresholds = distinct + [float(np.nextafter(distinct[-1], np.inf))]
    thr = np.array(thresholds)
    n_miss = (pos[:, None] < thr[None, :]).sum(axis=0)
    n_fa = (neg[:, None] >= thr[None, :]).sum(axis=0)
    return thresholds, [int(m) for m in n_miss], [int(f) for f in n_fa], len(pos), len(neg)


def _oracle_eer(scores, labels) -> float:
    """EER via exact integer crossing detection and Fraction interpolation."""
    _, n_miss, n_fa, n_pos, n_neg = _oracle_operating_points(scores, labels)
    k = next(i for i in range(len(n_miss)) if n_miss[i] * n_neg >= n_fa[i] * n_pos)
    assert k >= 1, "miss rate cannot start above the false-alarm rate"
    m2 = Fraction(n_miss[k], n_pos)
    f2 = Fraction(n_fa[k], n_neg)
    if m2 == f2:
        return float(m2)
    m1 = Fraction(n_miss[k - 1], n_pos)
    f1 = Fraction(n_fa[k - 1], n_neg)
    t = (f1 - m1) / ((m2 - m1) - (f2 - f1))
    eer = ((m1 + t * (m2 - m1)) + (f1 + t * (f2 - f1))) / 2
    return float(eer)


def _oracle_min_dcf(scores, labels, p_target: float) -> tuple[float, float]:
    """Minimum normalized detection cost by exhaustive scan, first index on ties.

    The cost arithmetic mirrors the documented formula exactly (same float
    operations on independently counted rates), so equality must be bitwise.
    """
    thresholds, n_miss, n_fa, n_pos, n_neg = _oracle_operating_points(scores, labels)
    best_cost = None
    best_thr = None
    for k in range(len(thresholds)):
        pm = n_miss[k] / n_pos
        pf = n_fa[k] / n_neg
        cost = p_target * pm + (1.0 - p_target) * pf
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_thr = thresholds[k]
    return best_cost / min(p_target, 1.0 - p_target), best_thr


def _random_score_set(index: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded score/label set mixing continuous scores, ties, and edge shapes."""
    rng = np.random.default_rng(5000 + index)
    n_pos = int(rng.integers(2, 250))
    n_neg = int(rng.integers(2, 251))
    if index % 17 == 0:
        pos = np.full(n_pos, 0.25)
        neg = np.full(n_neg, 0.25)
    elif index % 13 == 0:
        pos = rng.uniform(1.0, 2.0, n_pos)
        neg = rng.uniform(-2.0, -1.0, n_neg)
    else:
        pos = rng.normal(0.6, 0.5, n_pos)
        neg = rng.normal(0.0, 0.5, n_neg)
        if rng.random() < 0.5:
            q = float(rng.choice([2, 4, 8, 16]))
            pos = np.round(pos * q) / q
            neg = np.round(neg * q) / q
        if rng.random() < 0.3:
            neg[0] = pos[0]
    scores = np.concatenate([pos, neg])
    labels = np.concatenate([np.ones(n_pos, dtype=bool), np.zeros(n_neg, dtype=bool)])
    order = rng.permutation(scores.shape[0])
    return scores[order], labels[order]


def test_criterion_01_metrics_match_brute_force_oracle():
    started = time.perf_counter()
    for index in range(200):
        scores, labels = _random_score_set(index)
        assert scores.shape[0] <= 500
        report = metrics.evaluate(scores, labels, (0.05, 0.01))
        assert abs(report["eer"] - _oracle_eer(scores, labels)) <= 1e-12
        for p_target in (0.05, 0.01):
            cost, threshold = _oracle_min_dcf(scores, labels, p_target)
            assert report["min_dcf"][p_target]["cost"] == cost
            assert report["min_dcf"][p_target]["threshold"] == threshold
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"CRITERION 1 PASS: 200 score sets, EER within 1e-12, minDCF exact, {elapsed:.1f}s")


def test_criterion_02_metrics_invariant_under_monotone_transforms():
    for index in range(50):
        rng = np.random.default_rng(7000 + index)
        n = int(rng.integers(10, 200))
        scores = rng.integers(-192, 193, n) / 64.0
        labels = rng.random(n) < 0.5
        labels[0], labels[1] = True, False
        base = metrics.evaluate(scores, labels, (0.05, 0.01))
        for transformed in (2.0 * scores + 3.0, np.tanh(scores)):
            other = metrics.evaluate(transformed, labels, (0.05, 0.01))
            assert abs(base["eer"] - other["eer"]) <= 1e-12
            for p_target in (0.05, 0.01):
                delta = base["min_dcf"][p_target]["cost"] - other["min_dcf"][p_target]["cost"]
                assert abs(delta) <= 1e-12
    print("CRITERION 2 PASS: EER/minDCF invariant under 2x+3 and tanh within 1e-12")


# ---------------------------------------------------------------------------
# Chunked scoring vs a scalar double loop


def _oracle_cosine(u, v) -> float:
    dot = math.fsum(float(a) * float(b) for a, b in zip(u, v))
    norm_u = math.sqrt(math.fsum(float(a) * float(a) for a in u))
    norm_v = math.sqrt(math.fsum(float(b) * float(b) for b in v))
    return max(-1.0, min(1.0, dot / (norm_u * norm_v)))


def test_criterion_03_pairwise_score_matches_double_loop():
    rng = np.random.default_rng(321)
    for index in range(100):
        enroll = ChunkEmbeddings(f"e{index}", rng.normal(size=(int(rng.integers(1, 13)), 16)))
        test = ChunkEmbeddings(f"t{index}", rng.normal(size=(int(rng.integers(1, 13)), 16)))
        got = scoring.pairwise_score(enroll, test)
        expected = math.fsum(
            _oracle_cosine(e, t) for e in enroll.chunks for t in test.chunks
        ) / (enroll.n_chunks * test.n_chunks)
        assert got.n_pairs == enroll.n_chunks * test.n_chunks
        assert abs(got.value - expected) <= 1e-12
    ten = ChunkEmbeddings("ten", rng.normal(size=(10, 16)))
    other = ChunkEmbeddings("other", rng.normal(size=(10, 16)))
    assert scoring.pairwise_score(ten, other).n_pairs == 100
    print("CRITERION 3 PASS: 100 trials within 1e-12 of the double loop, 10x10 -> 100 pairs")


def test_criterion_04_asnorm_symmetry_affine_and_hand_example():
    rng = np.random.default_rng(654)
    for _ in range(25):
        enroll_scores = rng.normal(0.2, 0.3, 60)
        test_scores = rng.normal(0.1, 0.4, 60)
        raw = float(rng.uniform(-1.0, 1.0))
        forward = normalize_from_cohort_scores(raw, enroll_scores, test_scores, 10)
        swapped = normalize_from_cohort_scores(raw, test_scores, enroll_scores, 10)
        assert forward == swapped
        scale, shift = 3.7, -0.9
        moved = normalize_from_cohort_scores(
            scale * raw + shift,
            scale * enroll_scores + shift,
            scale * test_scores + shift,
            10,
        )
        assert abs(forward - moved) <= 1e-9
    hand = normalize_from_cohort_scores(0.5, np.array([0.2, 0.4]), np.array([0.3, 0.7]), 2)
    assert abs(hand - 1.0) <= 1e-12
    print("CRITERION 4 PASS: exact symmetry, affine within 1e-9, hand example within 1e-12")


def test_criterion_05_fusion_monotone_and_beats_grid_search():
    problem = make_grid_problem()
    assert problem_digest(problem) == FROZEN_DIGEST
    w_star = np.array(FROZEN_ARGMIN[:2])
    assert abs(fusion.objective_value(problem, w_star, FROZEN_ARGMIN[2]) - FROZEN_GRID_MIN) <= 1e-12

    fitted = fusion.fit(problem)
    assert np.all(np.diff(fitted.objective_trace) <= 0.0)
    assert fitted.objective <= FROZEN_GRID_MIN + 1e-3

    heavy = fusion.fit(fusion.FusionProblem(problem.features, problem.labels, lam=0.1))
    assert abs(heavy.weights[1]) < 1e-6

    rng = np.random.default_rng(88)
    features = rng.uniform(size=(200, 3))
    labels = np.zeros(200, dtype=bool)
    labels[:60] = True
    crushed = fusion.fit(fusion.FusionProblem(features, labels, lam=1e6))
    assert np.all(crushed.weights == 0.0)
    assert abs(crushed.intercept - math.log(60 / 140)) <= 1e-3
    print("CRITERION 5 PASS: monotone objective, within 1e-3 of grid minimum "
          f"({FROZEN_GRID_MIN:.12f}), noise zeroed, heavy penalty -> prior logit")


# ---------------------------------------------------------------------------
# Three-system fusion on synthetic data


def _holdout_eer(scores: np.ndarray, labels: np.ndarray) -> float:
    return metrics.eer(metrics.det_curve(scores, labels))


def test_criterion_06_fused_system_keeps_up_with_best_single():
    started = time.perf_counter()
    spreads = (0.45, 0.65, 0.9)
    variants = []
    speaker_map = None
    for spread in spreads:
        config = SynthConfig(
            n_speakers=50, utts_per_speaker=6, chunks_per_utt=2, dim=16,
            within_spread=spread, between_spread=1.0, seed=7,
        )
        records, mapping = synth.gen_dataset(config)
        variants.append((config, records))
        if speaker_map is None:
            speaker_map = mapping
        else:
            assert mapping == speaker_map
    trials = synth.gen_trials(variants[0][1], speaker_map, 600, 1800, 7)
    labels = trials.labels
    score_columns = [scoring.score_trials(records, trials) for _, records in variants]

    config0, records0 = variants[0]
    table = synth.gen_attributes(records0, speaker_map, config0)
    names, qmf_matrix = qmf.trial_feature_matrix(trials, records0, table, synth.DEFAULT_SCHEMA)
    feature_names = [f"sys_{spread}" for spread in spreads] + list(names)
    raw = np.column_stack(score_columns + [qmf_matrix])

    dev = np.arange(len(trials)) % 2 == 0
    holdout = ~dev
    params = qmf.minmax_fit(raw[dev], feature_names)
    problem = fusion.FusionProblem(
        features=qmf.minmax_apply(raw[dev], params),
        labels=labels[dev],
        lam=0.01,
    )
    fitted = fusion.fit(problem)
    fused = qmf.minmax_apply(raw[holdout], params) @ fitted.weights + fitted.intercept

    single_eers = [_holdout_eer(col[holdout], labels[holdout]) for col in score_columns]
    fused_eer = _holdout_eer(fused, labels[holdout])
    elapsed = time.perf_counter() - started
    assert fused_eer <= min(single_eers) + 0.001, (fused_eer, single_eers)
    assert elapsed < 60.0
    print(f"CRITERION 6 PASS: fused EER {fused_eer:.4f} vs best single "
          f"{min(single_eers):.4f} (+0.1pp allowed), {elapsed:.1f}s")


def test_criterion_07_resnet_shape_table():
    shapes = trainspec.resnet_shapes(frames=800)
    assert (shapes.stem.channels, shapes.stem.freq_bins, shapes.stem.frames) == (128, 96, 800)
    stage_shapes = [(s.channels, s.freq_bins, s.frames) for s in shapes.stages]
    assert stage_shapes == [(128, 96, 800), (128, 48, 400), (256, 24, 200), (256, 12, 100)]
    assert (shapes.flatten_channels, shapes.flatten_frames) == (3072, 100)
    assert shapes.pooled_dim == 6144
    assert shapes.embedding_dim == 256
    print("CRITERION 7 PASS: all layer shapes exact for an 800-frame input")


def test_criterion_08_schedule_anchor_values():
    assert trainspec.base_lr(0) == 1e-5
    assert trainspec.base_lr(10) == 0.2
    assert trainspec.base_margin(60) == 0.3
    assert trainspec.base_lr(80) == 0.1
    assert trainspec.finetune_lr(1) == 1e-2
    assert trainspec.finetune_lr(6) == 5e-3
    spec = trainspec.StaircaseSpec(
        gamma=0.5, warmup_epochs=2, plateau_epochs=6, epochs_per=2, max_lr=1.0
    )
    assert trainspec.staircase_lr(spec, 7) == 1.0
    assert trainspec.staircase_lr(spec, 8) == 0.5
    print("CRITERION 8 PASS: schedule anchors exact (base, fine-tune, staircase)")


# ---------------------------------------------------------------------------
# Distractor selection vs exhaustive recomputation


def _oracle_ddf(source, targets, top_k, threshold):
    sims = {
        (s.speaker_id, t.speaker_id): scoring.cosine(s.median_embedding, t.median_embedding)
        for s in source
        for t in targets
    }
    source_ids = sorted(s.speaker_id for s in source)
    target_ids = sorted(t.speaker_id for t in targets)
    chosen: set[str] = set()
    for tid in target_ids:
        ranked = sorted(source_ids, key=lambda sid: (-sims[(sid, tid)], sid))
        chosen.update(ranked[: min(top_k, len(source_ids))])
    out = []
    for sid in sorted(chosen):
        best = None
        nearest = None
        for tid in target_ids:
            sim = sims[(sid, tid)]
            if best is None or sim > best:
                best, nearest = sim, tid
        if best > threshold:
            continue
        out.append((sid, best, nearest))
    return out


def _axis(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim)
    v[index] = 1.0
    return v


def test_criterion_09_ddf_cluster_scenario():
    dim = 8
    targets = [
        SpeakerProfile("tgt_a", _axis(dim, 0)),
        SpeakerProfile("tgt_b", _axis(dim, 1)),
        SpeakerProfile("tgt_c", _axis(dim, 2)),
    ]
    placements = {
        "src_a1": (0, 0.95), "src_a2": (0, 0.75), "src_a3": (0, 0.60),
        "src_b1": (1, 0.90), "src_b2": (1, 0.70), "src_b3": (1, 0.50),
        "src_c1": (2, 0.85), "src_c2": (2, 0.65), "src_c3": (2, 0.55),
    }
    source = [
        SpeakerProfile(sid, sim * _axis(dim, axis) + math.sqrt(1.0 - sim * sim) * _axis(dim, 4))
        for sid, (axis, sim) in placements.items()
    ]
    source.append(SpeakerProfile("src_far", _axis(dim, 3)))
    config = DdfConfig(top_k=4, dedup_threshold=0.8)

    kept = curation.ddf_select(source, targets, config)
    assert [k.speaker_id for k in kept] == [
        "src_a2", "src_a3", "src_b2", "src_b3", "src_c2", "src_c3"
    ]
    assert all(k.max_similarity <= 0.8 for k in kept)
    assert [k.nearest_target_id for k in kept] == [
        "tgt_a", "tgt_a", "tgt_b", "tgt_b", "tgt_c", "tgt_c"
    ]
    expected = _oracle_ddf(source, targets, config.top_k, config.dedup_threshold)
    assert [(k.speaker_id, k.max_similarity, k.nearest_target_id) for k in kept] == expected

    for shuffle_seed in (1, 2, 3):
        shuffled_source = source[:]
        shuffled_targets = targets[:]
        random.Random(shuffle_seed).shuffle(shuffled_source)
        random.Random(shuffle_seed + 100).shuffle(shuffled_targets)
        assert curation.ddf_select(shuffled_source, shuffled_targets, config) == kept
    print("CRITERION 9 PASS: cluster scenario matches the exhaustive oracle, "
          "all kept similarities <= 0.8, order invariant")


# ---------------------------------------------------------------------------
# Serialization round trips and located failures


_EDGE_VALUES = (
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1 + 0.2, 1.0 / 3.0, -1e-15,
)


def test_criterion_10_round_trip_and_located_errors(tmp_path):
    rng = np.random.default_rng(424242)
    records = []
    for index in range(1000):
        chunks = rng.normal(size=(int(rng.integers(1, 4)), 10))
        flat = chunks.ravel()
        for _ in range(int(rng.integers(0, 3))):
            flat[int(rng.integers(flat.shape[0]))] = _EDGE_VALUES[int(rng.integers(len(_EDGE_VALUES)))]
        records.append(ChunkEmbeddings(f"u{index:04d}", chunks))
    path = tmp_path / "big.txt"
    dataio.write_embeddings(records, str(path))
    loaded = dataio.read_embeddings(str(path))
    assert [r.utt_id for r in loaded] == [r.utt_id for r in records]
    for before, after in zip(records, loaded):
        assert after.chunks.tobytes() == before.chunks.tobytes()
    second = tmp_path / "big2.txt"
    dataio.write_embeddings(loaded, str(second))
    assert second.read_bytes() == path.read_bytes()

    schema = [dataio.SchemaColumn("snr", "real", "identity")]
    cases = [
        ("emb_header.txt", "dim=x\nu1 1 0.5 0.5\n", dataio.read_embeddings, 1),
        ("emb_short.txt", "dim=2\nu1 1 0.5\n", dataio.read_embeddings, 2),
        ("emb_count.txt", "dim=2\nu1 0 0.5 0.5\n", dataio.read_embeddings, 2),
        ("emb_nan.txt", "dim=2\nu1 1 nan 0.5\n", dataio.read_embeddings, 2),
        ("emb_dup.txt", "dim=1\nu1 1 0.5\nu1 1 0.5\n", dataio.read_embeddings, 3),
        ("trials_fields.txt", "1 u1\n", lambda p: dataio.read_trials(p, expect_labels=True), 1),
        ("trials_label.txt", "2 u1 u2\n", lambda p: dataio.read_trials(p, expect_labels=True), 1),
        ("scores_float.txt", "u1 u2 zero\n", dataio.read_scores, 1),
        ("scores_fields.txt", "u1 u2\n", dataio.read_scores, 1),
        ("spk_fields.txt", "u1\n", dataio.read_speaker_map, 1),
        ("spk_dup.txt", "u1 s1\nu1 s2\n", dataio.read_speaker_map, 2),
        ("schema_kind.txt", "snr numeric identity\n", dataio.read_schema, 1),
        ("schema_transform.txt", "snr real match\n", dataio.read_schema, 1),
        ("attr_header.csv", "utt,snr\nu1,3.0\n", lambda p: dataio.read_attributes(p, schema), 1),
        ("attr_float.csv", "utt_id,snr\nu1,loud\n", lambda p: dataio.read_attributes(p, schema), 2),
        ("feat_float.csv", "enroll,test,f\nu1,u2,x\n", dataio.read_trial_features, 2),
        ("feat_fields.csv", "enroll,test,f\nu1,u2\n", dataio.read_trial_features, 2),
    ]
    for name, content, reader, line in cases:
        target = tmp_path / name
        target.write_text(content)
        with pytest.raises(DataFormatError) as excinfo:
            reader(str(target))
        assert excinfo.value.path == str(target)
        assert excinfo.value.line == line, (name, excinfo.value.line)

    model_path = tmp_path / "model.json"
    model_path.write_text("{not json")
    with pytest.raises(DataFormatError) as excinfo:
        dataio.load_fusion_model(str(model_path))
    assert excinfo.value.path == str(model_path)
    print("CRITERION 10 PASS: 1000-record round trip bit-exact, malformed inputs "
          "raise located errors")
