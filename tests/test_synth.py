"""Seeded synthetic data: determinism, structure, and attribute ranges."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from svbackend.dataio import ChunkEmbeddings, TrialList
from svbackend.errors import ToolkitError
from svbackend.rng import SplitMix64, derive_seed
from svbackend.synth import (
    DEFAULT_SCHEMA,
    SynthConfig,
    gen_attributes,
    gen_dataset,
    gen_trials,
    speaker_id,
    utt_id,
)

CFG = SynthConfig(
    n_speakers=5,
    utts_per_speaker=3,
    chunks_per_utt=2,
    dim=8,
    within_spread=0.2,
    between_spread=1.0,
    seed=3,
)


def test_id_formats():
    assert speaker_id(7) == "spk0007"
    assert utt_id("spk0007", 12) == "spk0007_utt012"


def test_dataset_structure():
    records, speaker_map = gen_dataset(CFG)
    assert len(records) == 15
    assert all(r.chunks.shape == (2, 8) for r in records)
    assert set(speaker_map.values()) == {speaker_id(i) for i in range(5)}
    for rec in records:
        assert rec.utt_id.startswith(speaker_map[rec.utt_id])
        norms = np.sqrt((rec.chunks * rec.chunks).sum(axis=1))
        assert np.allclose(norms, 1.0, rtol=0, atol=1e-12)


def test_dataset_is_deterministic():
    a_records, a_map = gen_dataset(CFG)
    b_records, b_map = gen_dataset(CFG)
    assert a_map == b_map
    for a, b in zip(a_records, b_records):
        assert a.utt_id == b.utt_id
        assert a.chunks.tobytes() == b.chunks.tobytes()


def test_different_seeds_differ():
    a_records, _ = gen_dataset(CFG)
    b_records, _ = gen_dataset(SynthConfig(**{**CFG.__dict__, "seed": 4}))
    assert a_records[0].chunks.tobytes() != b_records[0].chunks.tobytes()


def test_within_spread_variants_share_speaker_structure():
    tight, tight_map = gen_dataset(SynthConfig(**{**CFG.__dict__, "within_spread": 1e-6}))
    loose, loose_map = gen_dataset(SynthConfig(**{**CFG.__dict__, "within_spread": 0.5}))
    assert tight_map == loose_map
    assert [r.utt_id for r in tight] == [r.utt_id for r in loose]
    # with negligible chunk noise the tight chunks sit on the speaker means;
    # the loose variant scatters around those same directions, so on average
    # a loose chunk is far closer to its own speaker mean than to others
    anchors = {
        rec.utt_id: rec.chunks[0] / np.linalg.norm(rec.chunks[0]) for rec in tight
    }
    own, cross = [], []
    for rec in loose:
        for other_id, anchor in anchors.items():
            sims = rec.chunks @ anchor
            same = tight_map[other_id] == loose_map[rec.utt_id]
            (own if same else cross).extend(sims.tolist())
    assert np.mean(own) > np.mean(cross) + 0.1


def test_tighter_within_spread_scores_better():
    def mean_cos(records, speaker_map, same):
        total, count = 0.0, 0
        by_id = {r.utt_id: r for r in records}
        ids = sorted(by_id)
        for a, b in itertools.combinations(ids, 2):
            if (speaker_map[a] == speaker_map[b]) != same:
                continue
            u = by_id[a].chunks.mean(axis=0)
            v = by_id[b].chunks.mean(axis=0)
            total += float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
            count += 1
        return total / count

    tight, tmap = gen_dataset(SynthConfig(**{**CFG.__dict__, "within_spread": 0.05}))
    loose, lmap = gen_dataset(SynthConfig(**{**CFG.__dict__, "within_spread": 0.6}))
    tight_gap = mean_cos(tight, tmap, True) - mean_cos(tight, tmap, False)
    loose_gap = mean_cos(loose, lmap, True) - mean_cos(loose, lmap, False)
    assert tight_gap > loose_gap > 0.0


def test_trials_counts_labels_and_determinism():
    records, speaker_map = gen_dataset(CFG)
    trials = gen_trials(records, speaker_map, n_pos=10, n_neg=20, seed=5)
    assert len(trials) == 30
    assert int(trials.labels.sum()) == 10
    for e, t, label in zip(trials.enroll, trials.test, trials.labels):
        assert (speaker_map[e] == speaker_map[t]) == label
    assert gen_trials(records, speaker_map, 10, 20, seed=5) == trials
    assert gen_trials(records, speaker_map, 10, 20, seed=6) != trials
    pairs = set(zip(trials.enroll, trials.test))
    assert len(pairs) == 30


def test_trials_insufficient_pairs():
    records, speaker_map = gen_dataset(CFG)
    # 5 speakers x C(3,2) = 15 same-speaker pairs available
    with pytest.raises(ToolkitError, match="same-speaker"):
        gen_trials(records, speaker_map, n_pos=16, n_neg=0, seed=0)
    with pytest.raises(ToolkitError, match="cross-speaker"):
        gen_trials(records, speaker_map, n_pos=0, n_neg=10**6, seed=0)
    with pytest.raises(ToolkitError, match="nonnegative"):
        gen_trials(records, speaker_map, n_pos=-1, n_neg=0, seed=0)


def listed_gen_trials(records, speaker_map, n_pos, n_neg, seed):
    """The generator as it was before pairs were unranked lazily: every pair
    of sorted utterances listed, split by speaker, then sampled."""
    if n_pos < 0 or n_neg < 0:
        raise ToolkitError("trial counts must be nonnegative")
    utts = sorted(rec.utt_id for rec in records)
    for utt in utts:
        if utt not in speaker_map:
            raise ToolkitError(f"utterance {utt!r} missing from speaker map")
    pos_pairs, neg_pairs = [], []
    for a, b in itertools.combinations(utts, 2):
        (pos_pairs if speaker_map[a] == speaker_map[b] else neg_pairs).append((a, b))
    if n_pos > len(pos_pairs):
        raise ToolkitError(f"requested {n_pos} same-speaker pairs, only {len(pos_pairs)} available")
    if n_neg > len(neg_pairs):
        raise ToolkitError(f"requested {n_neg} cross-speaker pairs, only {len(neg_pairs)} available")
    rng = SplitMix64(derive_seed(seed, "trials"))
    trials = [(a, b, True) for a, b in rng.take(pos_pairs, n_pos)]
    trials += [(a, b, False) for a, b in rng.take(neg_pairs, n_neg)]
    rng.shuffle(trials)
    return TrialList([e for e, _, _ in trials], [t for _, t, _ in trials],
                     np.array([y for _, _, y in trials], dtype=bool))


def outcome(fn, *args):
    try:
        return fn(*args)
    except ToolkitError as exc:
        return ("error", str(exc))


@st.composite
def speaker_shapes(draw):
    """A store of 1-24 utterances whose speakers interleave in sorted order,
    and trial counts from 0 to one past the number of pairs available."""
    labels = draw(st.lists(st.integers(0, 5), min_size=1, max_size=24))
    # ids sort in list order, so speakers are scattered through the sorted list
    records = [ChunkEmbeddings(f"u{i:02d}", np.ones((1, 1))) for i in range(len(labels))]
    speaker_map = {rec.utt_id: f"s{label}" for rec, label in zip(records, labels)}
    if draw(st.booleans()):  # insertion order must not matter
        records = records[::-1]
    sizes = [labels.count(label) for label in set(labels)]
    n_same = sum(c * (c - 1) // 2 for c in sizes)
    n_cross = len(labels) * (len(labels) - 1) // 2 - n_same
    n_pos = draw(st.integers(0, n_same + 1))
    n_neg = draw(st.integers(0, n_cross + 1))
    return records, speaker_map, n_pos, n_neg, draw(st.integers(0, 2**32))


@given(speaker_shapes())
def test_trials_match_listed_pairs_reference(shape):
    records, speaker_map, n_pos, n_neg, seed = shape
    assert outcome(gen_trials, records, speaker_map, n_pos, n_neg, seed) == outcome(
        listed_gen_trials, records, speaker_map, n_pos, n_neg, seed
    )


def test_trials_at_maximum_counts_and_past_them():
    labels = [0, 1, 0, 2, 1, 0, 2, 2, 0, 1]  # non-contiguous speakers: 4 + 3 + 3 utterances
    records = [ChunkEmbeddings(f"u{i:02d}", np.ones((1, 1))) for i in range(len(labels))]
    speaker_map = {rec.utt_id: f"s{label}" for rec, label in zip(records, labels)}
    n_same, n_cross = 6 + 3 + 3, 45 - 12
    full = gen_trials(records, speaker_map, n_same, n_cross, seed=4)
    assert full == listed_gen_trials(records, speaker_map, n_same, n_cross, 4)
    assert len(set(zip(full.enroll, full.test))) == 45
    with pytest.raises(ToolkitError, match=f"requested 13 same-speaker pairs, only {n_same} available"):
        gen_trials(records, speaker_map, n_same + 1, 0, seed=4)
    with pytest.raises(ToolkitError, match=f"requested 34 cross-speaker pairs, only {n_cross} available"):
        gen_trials(records, speaker_map, 0, n_cross + 1, seed=4)


def test_trials_memory_stays_bounded_on_many_speakers(traced_peak):
    # 640 speakers x 2 utterances: 818 560 pairs, of which 2 000 are sampled
    records = [ChunkEmbeddings(utt_id(speaker_id(s), u), np.ones((1, 1))) for s in range(640) for u in range(2)]
    speaker_map = {rec.utt_id: rec.utt_id.split("_")[0] for rec in records}
    trials, peak = traced_peak(gen_trials, records, speaker_map, n_pos=500, n_neg=1500, seed=1)
    assert len(trials) == 2000
    assert peak < 1 << 20


def test_attributes_cover_schema_and_ranges():
    records, speaker_map = gen_dataset(CFG)
    table = gen_attributes(records, speaker_map, CFG)
    assert table.columns == tuple(col.name for col in DEFAULT_SCHEMA)
    assert set(table.rows) == {r.utt_id for r in records}
    for row in table.rows.values():
        assert row["gender"] in ("m", "f")
        assert isinstance(row["language"], str) and len(row["language"]) == 2
        assert 0.0 <= row["snr_db"] < 30.0
        assert 1.0 <= row["mos"] <= 5.0
        assert row["file_length"] >= 0.1
        assert 0.01 <= row["speech_length"] <= row["file_length"]
        assert 0.0 <= row["liveness"] <= 1.0
        assert 0.0 <= row["bnd"] <= 1.0


def test_attributes_speaker_consistent_categoricals():
    records, speaker_map = gen_dataset(CFG)
    table = gen_attributes(records, speaker_map, CFG)
    per_speaker: dict[str, set] = {}
    for utt, row in table.rows.items():
        per_speaker.setdefault(speaker_map[utt], set()).add((row["gender"], row["language"]))
    assert all(len(combos) == 1 for combos in per_speaker.values())


def test_attributes_deterministic_and_noise_perturbs():
    records, speaker_map = gen_dataset(CFG)
    base_a = gen_attributes(records, speaker_map, CFG)
    base_b = gen_attributes(records, speaker_map, CFG)
    assert base_a.rows == base_b.rows
    noisy_cfg = SynthConfig(**{**CFG.__dict__, "attribute_noise": 0.5})
    noisy = gen_attributes(records, speaker_map, noisy_cfg)
    changed = sum(
        1 for utt in base_a.rows if noisy.rows[utt]["snr_db"] != base_a.rows[utt]["snr_db"]
    )
    assert changed == len(base_a.rows)
    for utt in base_a.rows:
        assert noisy.rows[utt]["gender"] == base_a.rows[utt]["gender"]
        assert noisy.rows[utt]["language"] == base_a.rows[utt]["language"]


def test_attributes_missing_speaker_entry():
    records, speaker_map = gen_dataset(CFG)
    partial = dict(speaker_map)
    partial.pop(records[0].utt_id)
    with pytest.raises(ToolkitError, match="missing from speaker map"):
        gen_attributes(records, partial, CFG)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(0, 1, 1, 8, 0.1, 1.0, 0)
    with pytest.raises(ValueError):
        SynthConfig(1, 1, 1, 1, 0.1, 1.0, 0)
    with pytest.raises(ValueError):
        SynthConfig(1, 1, 1, 8, 0.0, 1.0, 0)
    with pytest.raises(ValueError):
        SynthConfig(1, 1, 1, 8, 0.1, 1.0, 0, attribute_noise=-0.5)
    with pytest.raises(TypeError, match="n_speakers must be an integer, got 3.5"):
        SynthConfig(3.5, 1, 1, 8, 0.1, 1.0, 0)


def test_default_schema_shape():
    kinds = [(c.name, c.kind, c.transform) for c in DEFAULT_SCHEMA]
    assert ("gender", "categorical", "match") in kinds
    assert ("speech_length", "real", "log1p") in kinds
    assert ("file_length", "real", "log1p") in kinds
    assert len(kinds) == 8
