"""Property tests for the trial-side kernels: QMF gathers, blocked AS-Norm side
statistics and blocked ddf, each against its per-trial or per-row reference
copy in ``trial_side_reference``; input-order invariance of ``build_cohort``
and ``ddf``; and bounded memory of the blocked AS-Norm and ddf."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import trial_side_reference as reference
from conftest import trial_list
from svbackend import qmf, scoring
from svbackend.asnorm import asnorm_trials, build_cohort, top_n_stats
from svbackend.curation import DdfConfig, SpeakerProfile, ddf_select, profiles_from_store
from svbackend.dataio import AttributeTable, ChunkEmbeddings, SchemaColumn
from svbackend.errors import DegenerateCohortError, ToolkitError
from svbackend.scoring import COSINE_BLOCK_BYTES
from test_curation import unit
from test_dataio_properties import ids, moderate, nonzero_rows

# chunk values and real attributes with ties, signed zeros and exact small values
values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]), moderate)
reals = st.one_of(st.none(), st.sampled_from([0.0, -0.0, 1.5, -0.5, 3.0]), st.floats(-0.99, 1e6))
categories = st.one_of(st.none(), st.sampled_from(["a", "b", "c"]))
columns = st.sampled_from([("categorical", "match"), ("real", "identity"), ("real", "log1p")])


def bits(array) -> np.ndarray:
    return np.asarray(array, dtype=np.float64).view(np.uint64)


@st.composite
def qmf_inputs(draw):
    """Records of mixed chunk counts (and two dims), a drawn schema, an attribute
    table with missing cells, and trials that repeat utterances."""
    kinds = draw(st.lists(columns, max_size=4))
    schema = [SchemaColumn(f"c{i}", kind, transform) for i, (kind, transform) in enumerate(kinds)]
    utts = draw(st.lists(ids, min_size=1, max_size=7, unique=True))
    dim = draw(st.integers(1, 4))
    records = []
    for u in utts:
        n_chunks, d = draw(st.integers(1, 4)), draw(st.sampled_from([dim, dim + 1]))
        chunk_values = draw(st.lists(values, min_size=n_chunks * d, max_size=n_chunks * d))
        records.append(ChunkEmbeddings(u, np.array(chunk_values).reshape(n_chunks, d)))
    table = AttributeTable(columns=tuple(col.name for col in schema))
    for u in utts:
        table.rows[u] = {col.name: draw(categories if col.kind == "categorical" else reals) for col in schema}
    side = st.sampled_from(utts)
    trials = draw(st.lists(st.tuples(side, side), min_size=1, max_size=12).map(trial_list))
    return trials, records, table, schema


@given(qmf_inputs(), st.integers(8, 4096))
def test_trial_feature_matrix_matches_per_trial_reference(inputs, budget):
    trials, records, table, schema = inputs
    with mock.patch.object(scoring, "COSINE_BLOCK_BYTES", budget):
        names, got = qmf.trial_feature_matrix(trials, records, table, schema)
    ref_names, forward = reference.trial_feature_matrix(trials, records, table, schema)
    _, swapped = reference.trial_feature_matrix(trials, records, table, schema, swap=True)
    assert names == ref_names
    # where the per-trial bytes did not depend on side order, they are kept
    same = bits(forward) == bits(swapped)
    assert np.array_equal(bits(got)[same], bits(forward)[same])
    # elsewhere only a tie of 0.0 and -0.0 differed: min takes -0.0, max +0.0
    differ = ~same
    assert np.all(forward[differ] == 0.0)
    is_min = np.broadcast_to(np.array([name.endswith("_min") for name in names]), got.shape)
    assert np.array_equal(bits(got)[differ], bits(np.where(is_min, -0.0, 0.0))[differ])


@given(qmf_inputs(), st.data())
def test_trial_feature_matrix_missing_attribute_row_error(inputs, data):
    trials, records, table, schema = inputs
    used = sorted({*trials.enroll, *trials.test})
    del table.rows[data.draw(st.sampled_from(used))]
    with pytest.raises(ToolkitError) as expected:
        reference.trial_feature_matrix(trials, records, table, schema)
    with pytest.raises(ToolkitError) as got:
        qmf.trial_feature_matrix(trials, records, table, schema)
    assert "missing from attribute table" in str(got.value)
    assert str(got.value) == str(expected.value)


@given(qmf_inputs(), st.data())
def test_trial_feature_matrix_log1p_domain_error(inputs, data):
    trials, records, table, schema = inputs
    schema = schema + [SchemaColumn("len", "real", "log1p")]
    used = sorted({*trials.enroll, *trials.test})
    bad = data.draw(st.sampled_from(used))
    for u, row in table.rows.items():
        row["len"] = data.draw(st.floats(-1e6, -1.0)) if u == bad else data.draw(reals)
    with pytest.raises(ToolkitError) as expected:
        reference.trial_feature_matrix(trials, records, table, schema)
    with pytest.raises(ToolkitError) as got:
        qmf.trial_feature_matrix(trials, records, table, schema)
    assert "log1p undefined for len=" in str(got.value)
    assert str(got.value) == str(expected.value)


# ---------------------------------------------------------------------------
# AS-Norm side statistics


@given(st.data())
def test_top_n_stats_equals_per_row_reference(data):
    n = data.draw(st.integers(1, 40))
    row = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
    top_n = data.draw(st.integers(1, n))
    assert top_n_stats(row, top_n) == reference.top_n_stats(row, top_n)


@given(st.data())
def test_asnorm_trials_blocks_equal_whole_matrix_reference(data):
    dim = data.draw(st.integers(1, 6))
    rows = st.lists(values, min_size=dim, max_size=dim)
    utts = data.draw(st.lists(ids, min_size=1, max_size=8, unique=True))
    records = [ChunkEmbeddings(u, nonzero_rows(data.draw(st.lists(rows, min_size=1, max_size=3)))) for u in utts]
    assume(all(np.any(rec.mean_embedding()) for rec in records))
    side = st.sampled_from(utts)
    trials = data.draw(st.lists(st.tuples(side, side), min_size=1, max_size=15).map(trial_list))
    n_cohort = data.draw(st.integers(1, 12))
    cohort_rows = nonzero_rows(data.draw(st.lists(rows, min_size=n_cohort, max_size=n_cohort)))
    cohort = [ChunkEmbeddings(f"spk{k}", row[None, :]) for k, row in enumerate(cohort_rows)]
    top_n = data.draw(st.integers(1, n_cohort))
    raw = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(trials), max_size=len(trials))))
    budget = data.draw(st.integers(1, 8 * n_cohort * 4))  # from under one row to four rows per block
    try:
        with mock.patch.object(scoring, "COSINE_BLOCK_BYTES", budget):
            got = asnorm_trials(raw, trials, records, cohort, top_n)
    except DegenerateCohortError:
        assume(False)
    by_id = {rec.utt_id: rec for rec in records}
    side_ids = list(dict.fromkeys(u for pair in zip(trials.enroll, trials.test) for u in pair))
    mu, sd = reference.side_stats(np.stack([by_id[u].mean_embedding() for u in side_ids]), cohort_rows, top_n)
    e = np.array([side_ids.index(u) for u in trials.enroll])
    t = np.array([side_ids.index(u) for u in trials.test])
    expected = 0.5 * ((raw - mu[e]) / sd[e] + (raw - mu[t]) / sd[t])
    assert np.array_equal(bits(got), bits(expected))


# ---------------------------------------------------------------------------
# ddf


@st.composite
def ddf_inputs(draw):
    """Profiles drawn from a small pool of directions, so that duplicate
    profiles make exact similarity ties, under ids in no particular order."""
    dim = draw(st.integers(1, 4))
    grid = st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]), min_size=dim, max_size=dim)
    pool = [unit(v) for v in nonzero_rows(draw(st.lists(grid, min_size=1, max_size=4)))]
    pool_index = st.integers(0, len(pool) - 1)
    source_ids = draw(st.lists(ids, min_size=1, max_size=12, unique=True))
    target_ids = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
    source = [SpeakerProfile(s, pool[draw(pool_index)]) for s in source_ids]
    targets = [SpeakerProfile(t, pool[draw(pool_index)]) for t in target_ids]
    config = DdfConfig(top_k=draw(st.integers(1, len(source) + 1)),
                       dedup_threshold=draw(st.sampled_from([0.3, 0.8, 1.0])))
    return source, targets, config


@given(ddf_inputs(), st.integers(1, 8 * 12 * 3))
def test_ddf_select_matches_sort_key_reference(inputs, budget):
    source, targets, config = inputs
    with mock.patch.object(scoring, "COSINE_BLOCK_BYTES", budget):
        got = ddf_select(source, targets, config)
    assert got == reference.ddf_select(source, targets, config)


@given(st.data())
def test_ddf_does_not_depend_on_input_order(data):
    """Shuffled records and speaker map give the same profiles, and shuffled
    profile lists give the same selection."""
    dim = data.draw(st.integers(1, 4))
    rows = st.lists(values, min_size=dim, max_size=dim)

    def corpus(prefix):
        speakers = data.draw(st.lists(ids, min_size=1, max_size=6, unique=True))
        records, speaker_map = [], {}
        for s in speakers:
            for k in range(data.draw(st.integers(1, 3))):
                utt = f"{prefix}{s}/{k}"
                speaker_map[utt] = f"{prefix}{s}"
                records.append(ChunkEmbeddings(utt, nonzero_rows(data.draw(st.lists(rows, min_size=1, max_size=2)))))
        return records, speaker_map

    def shuffled_profiles(records, speaker_map, baseline):
        order = data.draw(st.permutations(records))
        shuffled_map = dict(data.draw(st.permutations(list(speaker_map.items()))))
        profiles = profiles_from_store(order, shuffled_map)
        assert [(p.speaker_id, p.median_embedding.tobytes()) for p in profiles] == [
            (p.speaker_id, p.median_embedding.tobytes()) for p in baseline
        ]
        return data.draw(st.permutations(profiles))

    source, targets = corpus("s"), corpus("t")
    try:
        base_source, base_targets = profiles_from_store(*source), profiles_from_store(*targets)
    except ToolkitError:
        assume(False)  # a zero-norm median profile
    config = DdfConfig(top_k=data.draw(st.integers(1, 7)), dedup_threshold=data.draw(st.sampled_from([0.5, 1.0])))
    baseline = ddf_select(base_source, base_targets, config)
    shuffled = ddf_select(shuffled_profiles(*source, base_source), shuffled_profiles(*targets, base_targets), config)
    assert shuffled == baseline


@given(st.data())
def test_build_cohort_does_not_depend_on_input_order(data):
    dim = data.draw(st.integers(1, 4))
    rows = st.lists(values, min_size=dim, max_size=dim)
    speakers = data.draw(st.lists(ids, min_size=1, max_size=5, unique=True))
    records, speaker_map = [], {}
    for s in speakers:
        for k in range(data.draw(st.integers(1, 4))):
            speaker_map[f"{s}/{k}"] = s
            records.append(ChunkEmbeddings(f"{s}/{k}", np.array(data.draw(st.lists(rows, min_size=1, max_size=3)))))
    per_speaker = data.draw(st.integers(1, 4))
    seed = data.draw(st.integers(0, 2**32))
    baseline = build_cohort(records, speaker_map, per_speaker, seed)
    shuffled = build_cohort(
        data.draw(st.permutations(records)), dict(data.draw(st.permutations(list(speaker_map.items())))),
        per_speaker, seed,
    )
    assert [rec.utt_id for rec in shuffled] == [rec.utt_id for rec in baseline]
    assert [rec.chunks.tobytes() for rec in shuffled] == [rec.chunks.tobytes() for rec in baseline]


# ---------------------------------------------------------------------------
# Memory


def test_asnorm_and_ddf_peaks_stay_within_block_budget(traced_peak):
    """3000 sides against 600 cohort rows (dim 16): the whole similarity matrix
    would be 14 MiB (and the unblocked kernels peaked at 15 and 28 MiB); the
    blocked kernels stay within a few blocks."""
    rng = np.random.default_rng(5)
    n_sides, n_cohort, dim = 3000, 600, 16
    full_matrix = n_sides * n_cohort * 8
    records = [ChunkEmbeddings(f"u{i}", rng.normal(size=(1, dim))) for i in range(n_sides)]
    trials = trial_list((f"u{2 * i}", f"u{2 * i + 1}") for i in range(n_sides // 2))
    raw = rng.uniform(-1.0, 1.0, size=len(trials))
    cohort = [ChunkEmbeddings(f"spk{k}", rng.normal(size=(1, dim))) for k in range(n_cohort)]
    normalized, peak = traced_peak(asnorm_trials, raw, trials, records, cohort, 100)
    assert peak < 5 * COSINE_BLOCK_BYTES + normalized.nbytes
    assert peak < full_matrix / 3

    targets = [SpeakerProfile(f"t{i:04d}", unit(rng.normal(size=dim))) for i in range(n_sides)]
    source = [SpeakerProfile(f"s{i:03d}", unit(rng.normal(size=dim))) for i in range(n_cohort)]
    kept, peak = traced_peak(ddf_select, source, targets, DdfConfig(top_k=20, dedup_threshold=0.9))
    assert kept
    assert peak < 5 * COSINE_BLOCK_BYTES
    assert peak < full_matrix / 3


def test_ddf_stacks_target_rows_a_block_at_a_time(traced_peak):
    """20 000 targets (dim 64) against 512 sources: the target profiles stacked
    whole would take 9.8 MiB (ddf peaked at 13.6 MiB when it stacked them up
    front); stacking each block of target rows as it is scored keeps the peak
    within a few blocks."""
    rng = np.random.default_rng(6)
    n_targets, n_source, dim = 20000, 512, 64
    targets = [SpeakerProfile(f"t{i:05d}", unit(rng.normal(size=dim))) for i in range(n_targets)]
    source = [SpeakerProfile(f"s{i:03d}", unit(rng.normal(size=dim))) for i in range(n_source)]
    kept, peak = traced_peak(ddf_select, source, targets, DdfConfig(top_k=5, dedup_threshold=0.99))
    assert kept
    assert peak < n_targets * dim * 8 / 2
    assert peak < 5 * COSINE_BLOCK_BYTES
