"""Adaptive score normalization: hand values, invariances, cohort building."""

import inspect

import numpy as np
import pytest

from conftest import trial_list
from svbackend.asnorm import asnorm_trials, build_cohort, normalize_from_cohort_scores, top_n_stats
from svbackend.dataio import ChunkEmbeddings, TrialList
from svbackend.errors import DegenerateCohortError, ToolkitError
from svbackend.rng import SplitMix64, derive_seed
from svbackend.scoring import cosine


def test_hand_example():
    # enroll stats mean 0.3 std 0.1, test stats mean 0.5 std 0.2
    enroll = np.array([0.2, 0.4])
    test = np.array([0.3, 0.7])
    value = normalize_from_cohort_scores(0.5, enroll, test, top_n=2)
    assert abs(value - 1.0) <= 1e-12


def test_top_n_stats_match_sorted_oracle(np_rng):
    scores = np_rng.normal(size=150)
    mu, sd = top_n_stats(scores, top_n=100)
    top = np.sort(scores)[::-1][:100]
    assert mu == float(top.mean())
    assert sd == float(top.std())


def test_top_n_equal_to_size_uses_all(np_rng):
    scores = np_rng.normal(size=40)
    mu, sd = top_n_stats(scores, top_n=40)
    ordered = np.sort(scores)
    assert mu == float(ordered.mean())
    assert sd == float(ordered.std())


def test_top_n_stats_requires_enough_scores():
    with pytest.raises(ToolkitError):
        top_n_stats(np.array([0.1, 0.2]), top_n=3)


def test_normalization_leaves_cohort_scores_unchanged(np_rng):
    enroll, test = np_rng.normal(size=50), np_rng.normal(size=60)
    before = enroll.tobytes(), test.tobytes()
    normalize_from_cohort_scores(0.3, enroll, test, top_n=10)
    top_n_stats(enroll, top_n=10)
    assert (enroll.tobytes(), test.tobytes()) == before


def test_population_std_not_sample_std():
    _, sd = top_n_stats(np.array([0.0, 1.0]), top_n=2)
    assert sd == 0.5


def test_swap_symmetry_is_bitwise(np_rng):
    for _ in range(20):
        e = np_rng.normal(size=120)
        t = np_rng.normal(size=120)
        raw = float(np_rng.normal())
        a = normalize_from_cohort_scores(raw, e, t, 100)
        b = normalize_from_cohort_scores(raw, t, e, 100)
        assert np.float64(a).tobytes() == np.float64(b).tobytes()


def test_affine_invariance(np_rng):
    scale, shift = 3.7, -0.9
    for _ in range(20):
        e = np_rng.normal(size=60)
        t = np_rng.normal(size=60)
        raw = float(np_rng.normal())
        base = normalize_from_cohort_scores(raw, e, t, 50)
        moved = normalize_from_cohort_scores(
            scale * raw + shift, scale * e + shift, scale * t + shift, 50
        )
        assert abs(base - moved) <= 1e-9


def test_monotone_in_raw_score(np_rng):
    e = np_rng.normal(size=30)
    t = np_rng.normal(size=30)
    values = [normalize_from_cohort_scores(r, e, t, 20) for r in np.linspace(-1, 1, 9)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_reduces_to_snorm_with_full_cohort(np_rng):
    e = np_rng.normal(size=25)
    t = np_rng.normal(size=25)
    raw = 0.4
    got = normalize_from_cohort_scores(raw, e, t, 25)
    expected = 0.5 * ((raw - e.mean()) / e.std() + (raw - t.mean()) / t.std())
    assert abs(got - expected) <= 1e-12


def test_degenerate_cohort_raises():
    constant = np.full(10, 0.3)
    varied = np.linspace(0.0, 1.0, 10)
    with pytest.raises(DegenerateCohortError):
        normalize_from_cohort_scores(0.5, constant, varied, 10)
    with pytest.raises(DegenerateCohortError):
        normalize_from_cohort_scores(0.5, varied, constant, 10)


def test_non_finite_raw_rejected(np_rng):
    e = np_rng.normal(size=10)
    with pytest.raises(ToolkitError):
        normalize_from_cohort_scores(np.nan, e, e, 5)


# ---------------------------------------------------------------------------
# Cohort construction


def _ids(cohort):
    return [rec.utt_id for rec in cohort]


def _rows(cohort):
    """The cohort's rows, one per single-chunk record."""
    assert all(rec.n_chunks == 1 for rec in cohort)
    return np.concatenate([rec.chunks for rec in cohort])


def test_build_cohort_speakers_sorted_and_deterministic(small_synth):
    records, speaker_map = small_synth
    cohort_a = build_cohort(records, speaker_map, per_speaker=2, seed=4)
    cohort_b = build_cohort(list(reversed(records)), speaker_map, per_speaker=2, seed=4)
    assert _ids(cohort_a) == sorted(set(speaker_map.values()))
    assert _ids(cohort_a) == _ids(cohort_b)
    assert _rows(cohort_a).tobytes() == _rows(cohort_b).tobytes()
    different = build_cohort(records, speaker_map, per_speaker=2, seed=5)
    assert _rows(cohort_a).tobytes() != _rows(different).tobytes()


def test_build_cohort_matches_substream_replay(small_synth):
    """Replays the per-speaker seeded subsample independently."""
    records, speaker_map = small_synth
    seed = 9
    cohort = build_cohort(records, speaker_map, per_speaker=3, seed=seed)
    for row, speaker in zip(_rows(cohort), _ids(cohort)):
        utts = sorted(
            (r for r in records if speaker_map[r.utt_id] == speaker),
            key=lambda r: r.utt_id,
        )
        rng = SplitMix64(derive_seed(seed, f"cohort/{speaker}"))
        chosen = rng.take(utts, min(3, len(utts)))
        expected = np.stack([r.mean_embedding() for r in chosen]).mean(axis=0)
        assert row.tobytes() == expected.tobytes()


def test_build_cohort_uses_all_when_quota_exceeds(small_synth):
    records, speaker_map = small_synth
    cohort = build_cohort(records, speaker_map, per_speaker=50, seed=0)
    for row, speaker in zip(_rows(cohort), _ids(cohort)):
        means = [r.mean_embedding() for r in records if speaker_map[r.utt_id] == speaker]
        # all utterances contribute; summation order follows the subsample draw
        assert np.allclose(row, np.stack(means).mean(axis=0), rtol=0, atol=1e-12)


def test_build_cohort_errors(small_synth):
    records, speaker_map = small_synth
    with pytest.raises(ToolkitError, match="missing from speaker map"):
        build_cohort(records, {k: v for k, v in speaker_map.items() if k != records[0].utt_id})
    with pytest.raises(ToolkitError, match="no utterances"):
        build_cohort(records[:4], speaker_map)
    with pytest.raises(ToolkitError, match="empty"):
        build_cohort(records, {})


# ---------------------------------------------------------------------------
# Trial normalization


def _manual_asnorm(raw, e_emb, t_emb, cohort, top_n):
    e_scores = np.array([cosine(e_emb, row) for row in _rows(cohort)])
    t_scores = np.array([cosine(t_emb, row) for row in _rows(cohort)])
    return normalize_from_cohort_scores(raw, e_scores, t_scores, top_n)


def _single_chunk_records(embeddings):
    """One single-chunk record per row, so each record's mean embedding is the row itself."""
    return [ChunkEmbeddings(f"u{i}", row[None, :]) for i, row in enumerate(embeddings)]


def test_asnorm_score_matches_manual_pipeline(small_synth, np_rng):
    records, speaker_map = small_synth
    cohort = build_cohort(records, speaker_map, per_speaker=2, seed=1)
    e_emb = np_rng.normal(size=8)
    t_emb = np_rng.normal(size=8)
    raw = 0.37
    sides = _single_chunk_records([e_emb, t_emb])
    got = asnorm_trials(np.array([raw]), trial_list([("u0", "u1")]), sides, cohort, top_n=4)
    e_scores = np.array([cosine(e_emb, row) for row in _rows(cohort)])
    t_scores = np.array([cosine(t_emb, row) for row in _rows(cohort)])
    expected = normalize_from_cohort_scores(raw, e_scores, t_scores, 4)
    assert got[0] == expected


def test_asnorm_score_requires_enough_cohort(small_synth, np_rng):
    records, speaker_map = small_synth
    cohort = build_cohort(records, speaker_map, per_speaker=2)
    sides = _single_chunk_records(np_rng.normal(size=(2, 8)))
    with pytest.raises(ToolkitError, match=f"cohort has {len(cohort)} speakers, need >= top_n=100"):
        asnorm_trials(np.array([0.1]), trial_list([("u0", "u1")]), sides, cohort, top_n=100)
    with pytest.raises(ToolkitError, match="cohort has 0 speakers, need >= top_n=4"):
        asnorm_trials(np.array([0.1]), trial_list([("u0", "u1")]), sides, [], top_n=4)


def test_asnorm_trials_aligns_and_vectorizes(small_synth, np_rng):
    records, speaker_map = small_synth
    cohort = build_cohort(records, speaker_map, per_speaker=3, seed=2)
    raw = np_rng.normal(size=5) * 0.2
    e = np_rng.normal(size=(5, 8))
    t = np_rng.normal(size=(5, 8))
    sides = _single_chunk_records(np.concatenate([e, t]))
    pairs = trial_list((f"u{i}", f"u{i + 5}") for i in range(5))
    out = asnorm_trials(raw, pairs, sides, cohort, top_n=4)
    for i in range(5):
        assert out[i] == _manual_asnorm(float(raw[i]), e[i], t[i], cohort, 4)
    with pytest.raises(ToolkitError, match="equal length"):
        asnorm_trials(raw[:3], pairs, sides, cohort, top_n=4)


def test_asnorm_trials_names_the_first_side_of_another_dim(small_synth, np_rng):
    """Trial sides of two dims name the first side the store gives and the
    first of another dim, as score does; a record no trial names is passed
    over."""
    records, speaker_map = small_synth
    cohort = build_cohort(records, speaker_map, per_speaker=2)
    sides = [ChunkEmbeddings(u, np_rng.normal(size=(n, d)))
             for u, n, d in [("x2", 1, 2), ("a4", 2, 4), ("b4", 1, 4), ("c8", 2, 8), ("d8", 1, 8)]]
    pairs = trial_list([("b4", "c8"), ("a4", "d8")])
    with pytest.raises(ToolkitError, match=r"^embedding dim mismatch: 'a4' has 4, 'c8' has 8$"):
        asnorm_trials(np.zeros(2), pairs, sides, cohort, top_n=4)


def test_asnorm_trials_repeated_utterances_match_manual_oracle(small_synth, np_rng):
    """Utterances shared across trials, multi-chunk sides and self-trials all
    match the per-trial oracle bit for bit."""
    records, speaker_map = small_synth
    cohort = build_cohort(records, speaker_map, per_speaker=2, seed=3)
    sides = [ChunkEmbeddings(f"s{i}", np_rng.normal(size=(3, 8))) for i in range(4)]
    pairs = trial_list([*((f"s{int(a)}", f"s{int(b)}") for a, b in np_rng.integers(0, 4, size=(12, 2))), ("s2", "s2")])
    raw = np_rng.normal(size=len(pairs)) * 0.3
    by_id = {rec.utt_id: rec for rec in sides}
    out = asnorm_trials(raw, pairs, sides + records[:2], cohort, top_n=4)
    for i, (e, t) in enumerate(zip(pairs.enroll, pairs.test)):
        expected = _manual_asnorm(float(raw[i]), by_id[e].mean_embedding(), by_id[t].mean_embedding(), cohort, 4)
        assert out[i] == expected


def test_asnorm_trials_swap_symmetry_is_bitwise(small_synth, np_rng):
    records, speaker_map = small_synth
    cohort = build_cohort(records, speaker_map, per_speaker=2, seed=4)
    sides = [ChunkEmbeddings(f"s{i}", np_rng.normal(size=(2, 8))) for i in range(5)]
    pairs = trial_list((f"s{int(a)}", f"s{int(b)}") for a, b in np_rng.integers(0, 5, size=(15, 2)))
    raw = np_rng.normal(size=len(pairs)) * 0.3
    forward = asnorm_trials(raw, pairs, sides, cohort, top_n=4)
    swapped = asnorm_trials(raw, TrialList(pairs.test, pairs.enroll), sides, cohort, top_n=4)
    assert forward.tobytes() == swapped.tobytes()


def test_asnorm_trials_missing_utterance(small_synth, np_rng):
    records, speaker_map = small_synth
    cohort = build_cohort(records, speaker_map, per_speaker=2)
    with pytest.raises(ToolkitError, match="'ghost' missing from embedding store"):
        asnorm_trials(np.array([0.1]), trial_list([(records[0].utt_id, "ghost")]), records, cohort, top_n=2)


def test_asnorm_trials_multi_chunk_cohort_equals_store_of_its_means(small_synth, np_rng):
    """A cohort store read from disk may hold several chunks per record; its
    rows are the records' mean embeddings."""
    records, _ = small_synth
    cohort = [ChunkEmbeddings(f"c{k}", np_rng.normal(size=(int(np_rng.integers(1, 4)), 8))) for k in range(6)]
    means = [ChunkEmbeddings(rec.utt_id, rec.mean_embedding()[None, :]) for rec in cohort]
    drawn = np_rng.integers(0, len(records), size=(10, 2))
    pairs = trial_list((records[i].utt_id, records[j].utt_id) for i, j in drawn)
    raw = np_rng.normal(size=len(pairs)) * 0.3
    got = asnorm_trials(raw, pairs, records, cohort, top_n=4)
    assert got.tobytes() == asnorm_trials(raw, pairs, records, means, top_n=4).tobytes()


def test_config_validation(small_synth):
    records, speaker_map = small_synth
    cohort = build_cohort(records, speaker_map)
    with pytest.raises(ValueError, match="top_n must be >= 1, got 0"):
        asnorm_trials(np.array([0.1]), trial_list([(records[0].utt_id, records[1].utt_id)]), records, cohort, top_n=0)
    with pytest.raises(ValueError, match="per_speaker must be >= 1, got 0"):
        build_cohort(records, speaker_map, per_speaker=0)
    assert inspect.signature(asnorm_trials).parameters["top_n"].default == 100
    assert inspect.signature(build_cohort).parameters["per_speaker"].default == 20
