"""Distractor-speaker selection against exhaustive recomputation."""

import math

import numpy as np
import pytest

from svbackend.curation import (
    DdfConfig,
    DdfSelection,
    SpeakerProfile,
    ddf_select,
    median_profile,
    profiles_from_store,
)
from svbackend.dataio import ChunkEmbeddings
from svbackend.errors import ToolkitError
from svbackend.scoring import cosine


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / math.sqrt(float(v @ v))


def test_median_profile_odd_count_lower_middle():
    means = [np.array([0.0, 1.0]), np.array([0.0, 3.0]), np.array([0.0, 100.0])]
    profile = median_profile("s", means)
    assert np.array_equal(profile.median_embedding, np.array([0.0, 1.0]))


def test_median_profile_even_count_takes_lower_middle():
    means = [np.array([1.0, 0.0]), np.array([3.0, 0.0])]
    profile = median_profile("s", means)
    assert np.array_equal(profile.median_embedding, np.array([1.0, 0.0]))


def test_median_profile_is_component_wise():
    means = [np.array([0.0, 5.0, 2.0]), np.array([4.0, 1.0, 2.0]), np.array([8.0, 3.0, 2.0])]
    profile = median_profile("s", means)
    assert np.allclose(profile.median_embedding, unit([4.0, 3.0, 2.0]), rtol=0, atol=1e-15)


def test_median_profile_output_is_unit_norm(np_rng):
    means = [np_rng.normal(size=6) for _ in range(5)]
    profile = median_profile("s", means)
    assert abs(float(profile.median_embedding @ profile.median_embedding) - 1.0) <= 1e-12


def test_median_profile_rejects_degenerate():
    with pytest.raises(ToolkitError, match="no utterances"):
        median_profile("s", [])
    # component-wise lower medians cancel to the zero vector
    means = [np.array([0.0, 1.0]), np.array([1.0, 0.0])]
    with pytest.raises(ToolkitError, match="zero-norm"):
        median_profile("s", means)


def test_profiles_from_store_sorted_by_speaker(small_synth):
    records, speaker_map = small_synth
    profiles = profiles_from_store(records, speaker_map)
    ids = [p.speaker_id for p in profiles]
    assert ids == sorted(set(speaker_map.values()))
    by_speaker = {}
    for rec in records:
        by_speaker.setdefault(speaker_map[rec.utt_id], []).append(rec.mean_embedding())
    for profile in profiles:
        expected = median_profile(profile.speaker_id, by_speaker[profile.speaker_id])
        assert profile.median_embedding.tobytes() == expected.median_embedding.tobytes()


def test_profiles_from_store_missing_speaker(small_synth):
    records, speaker_map = small_synth
    partial = dict(speaker_map)
    partial.pop(records[0].utt_id)
    with pytest.raises(ToolkitError, match="missing from speaker map"):
        profiles_from_store(records, partial)


def test_profiles_from_store_refuses_a_median_its_mean_overflowed():
    # the mean of two finite 1e308 chunks is inf, and inf over its inf norm is NaN
    records = [ChunkEmbeddings("u", np.array([[1e308, 1.0], [1e308, 1.0]]))]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="^non-finite profile embedding$"):
            profiles_from_store(records, {"u": "s"})


def angled_source(sim: float, speaker_id: str) -> SpeakerProfile:
    """Source profile at a chosen cosine to the target direction (1, 0)."""
    return SpeakerProfile(speaker_id, np.array([sim, math.sqrt(1.0 - sim * sim)]))


def test_ddf_example_top2_threshold_08():
    target = SpeakerProfile("tgt", np.array([1.0, 0.0]))
    source = [angled_source(0.5, "a"), angled_source(0.6, "b"), angled_source(0.9, "c")]
    kept = ddf_select(source, [target], DdfConfig(top_k=2, dedup_threshold=0.8))
    assert [s.speaker_id for s in kept] == ["b"]
    assert abs(kept[0].max_similarity - 0.6) <= 1e-12
    assert kept[0].nearest_target_id == "tgt"


def test_ddf_keeps_everything_with_loose_settings():
    target = SpeakerProfile("tgt", np.array([1.0, 0.0]))
    source = [angled_source(s, f"s{i}") for i, s in enumerate([0.1, 0.4, 0.7, 1.0])]
    kept = ddf_select(source, [target], DdfConfig(top_k=50, dedup_threshold=1.0))
    assert [s.speaker_id for s in kept] == ["s0", "s1", "s2", "s3"]


def oracle_ddf(source, targets, config):
    source = sorted(source, key=lambda p: p.speaker_id)
    targets = sorted(targets, key=lambda p: p.speaker_id)
    sims = {
        (t.speaker_id, s.speaker_id): cosine(t.median_embedding, s.median_embedding)
        for t in targets
        for s in source
    }
    candidates = set()
    k = min(config.top_k, len(source))
    for t in targets:
        ranked = sorted(source, key=lambda s: (-sims[(t.speaker_id, s.speaker_id)], s.speaker_id))
        candidates.update(s.speaker_id for s in ranked[:k])
    kept = []
    for s in source:
        if s.speaker_id not in candidates:
            continue
        best = max(targets, key=lambda t: sims[(t.speaker_id, s.speaker_id)])
        # first target on exact ties
        best_sim = sims[(best.speaker_id, s.speaker_id)]
        for t in targets:
            if sims[(t.speaker_id, s.speaker_id)] == best_sim:
                best = t
                break
        if best_sim > config.dedup_threshold:
            continue
        kept.append(DdfSelection(s.speaker_id, best_sim, best.speaker_id))
    return kept


def random_profiles(np_rng, prefix, count, dim=8):
    return [
        SpeakerProfile(f"{prefix}{i:02d}", unit(np_rng.normal(size=dim))) for i in range(count)
    ]


def test_ddf_matches_exhaustive_oracle(np_rng):
    for _ in range(15):
        source = random_profiles(np_rng, "src", int(np_rng.integers(3, 12)))
        targets = random_profiles(np_rng, "tgt", int(np_rng.integers(1, 5)))
        config = DdfConfig(top_k=int(np_rng.integers(1, 8)), dedup_threshold=0.8)
        got = ddf_select(source, targets, config)
        expected = oracle_ddf(source, targets, config)
        assert [(s.speaker_id, s.nearest_target_id) for s in got] == [
            (s.speaker_id, s.nearest_target_id) for s in expected
        ]
        for g, e in zip(got, expected):
            assert g.max_similarity == e.max_similarity
        for s in got:
            assert s.max_similarity <= config.dedup_threshold


def test_ddf_input_order_invariance(np_rng):
    source = random_profiles(np_rng, "src", 9)
    targets = random_profiles(np_rng, "tgt", 3)
    config = DdfConfig(top_k=4, dedup_threshold=0.9)
    baseline = ddf_select(source, targets, config)
    for _ in range(5):
        shuffled_src = list(source)
        shuffled_tgt = list(targets)
        np_rng.shuffle(shuffled_src)
        np_rng.shuffle(shuffled_tgt)
        assert ddf_select(shuffled_src, shuffled_tgt, config) == baseline


def test_ddf_selection_grows_with_top_k(np_rng):
    source = random_profiles(np_rng, "src", 12)
    targets = random_profiles(np_rng, "tgt", 2)
    previous: set[str] = set()
    for k in (1, 2, 4, 8, 12):
        kept = {s.speaker_id for s in ddf_select(source, targets, DdfConfig(top_k=k, dedup_threshold=1.0))}
        assert previous <= kept
        previous = kept


def test_ddf_validation(np_rng):
    profiles = random_profiles(np_rng, "p", 3)
    with pytest.raises(ToolkitError, match="nonempty"):
        ddf_select([], profiles)
    with pytest.raises(ToolkitError, match="nonempty"):
        ddf_select(profiles, [])
    duped = profiles + [SpeakerProfile("p00", unit(np.ones(8)))]
    with pytest.raises(ToolkitError, match="duplicate source"):
        ddf_select(duped, random_profiles(np_rng, "t", 1))
    with pytest.raises(ToolkitError, match="dim mismatch"):
        ddf_select(profiles, [SpeakerProfile("t0", unit(np.ones(4)))])


def test_ddf_config_validation():
    with pytest.raises(ValueError):
        DdfConfig(top_k=0)
    with pytest.raises(ValueError):
        DdfConfig(dedup_threshold=0.0)
    with pytest.raises(ValueError):
        DdfConfig(dedup_threshold=1.1)
    assert DdfConfig().top_k == 50
    assert DdfConfig().dedup_threshold == 0.8