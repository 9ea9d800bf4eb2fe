"""Per-trial quality features: embedding stats, attribute pairing, scaling."""

import math

import numpy as np
import pytest

import trial_side_reference as reference
from conftest import trial_list
from svbackend.dataio import AttributeTable, ChunkEmbeddings, SchemaColumn, TrialList
from svbackend.errors import ToolkitError
from svbackend.qmf import (
    EMBEDDING_STAT_NAMES,
    feature_names,
    minmax_apply,
    minmax_fit,
    trial_feature_matrix,
)
from svbackend.scoring import COSINE_BLOCK_BYTES

SCHEMA = [
    SchemaColumn("gender", "categorical", "match"),
    SchemaColumn("snr", "real", "identity"),
    SchemaColumn("length", "real", "log1p"),
]


def features(records, attrs, trials, schema=SCHEMA):
    """trial_feature_matrix on a small input, as one name -> value dict per trial."""
    table = AttributeTable(columns=tuple(col.name for col in schema))
    table.rows.update(attrs)
    names, matrix = trial_feature_matrix(trials, records, table, schema)
    return [dict(zip(names, row)) for row in matrix]


def stats_of(record):
    """The record's embedding statistics, read from a trial of the record with itself."""
    (row,) = features([record], {record.utt_id: {}}, trial_list([(record.utt_id, record.utt_id)]), schema=[])
    assert all(row[f"{stat}_min"] == row[f"{stat}_max"] for stat in EMBEDDING_STAT_NAMES)
    return {stat: row[f"{stat}_min"] for stat in EMBEDDING_STAT_NAMES}


def test_embedding_stats_single_chunk():
    rec = ChunkEmbeddings("u", np.array([[3.0, 4.0]]))
    stats = stats_of(rec)
    assert stats["emb_l1_norm"] == 7.0
    assert stats["emb_l2_norm"] == 5.0
    assert stats["emb_std_across_dims"] == 0.5
    assert stats["emb_mean_of_dim_stds"] == 0.0
    assert stats["emb_std_of_dim_stds"] == 0.0


def test_embedding_stats_two_opposed_chunks():
    rec = ChunkEmbeddings("u", np.array([[1.0, 0.0], [-1.0, 0.0]]))
    stats = stats_of(rec)
    # mean embedding is the origin; per-dim stds are (1, 0)
    assert stats["emb_l1_norm"] == 0.0
    assert stats["emb_l2_norm"] == 0.0
    assert stats["emb_std_across_dims"] == 0.0
    assert stats["emb_mean_of_dim_stds"] == 0.5
    assert stats["emb_std_of_dim_stds"] == 0.5


def test_embedding_stats_match_numpy_oracle(np_rng):
    for _ in range(20):
        chunks = np_rng.normal(size=(int(np_rng.integers(1, 6)), 7))
        rec = ChunkEmbeddings("u", chunks)
        stats = stats_of(rec)
        mean = chunks.mean(axis=0)
        dim_stds = chunks.std(axis=0)
        assert abs(stats["emb_l1_norm"] - np.abs(mean).sum()) <= 1e-12
        assert abs(stats["emb_l2_norm"] - np.sqrt((mean * mean).sum())) <= 1e-12
        assert abs(stats["emb_std_across_dims"] - mean.std()) <= 1e-12
        assert abs(stats["emb_mean_of_dim_stds"] - dim_stds.mean()) <= 1e-12
        assert abs(stats["emb_std_of_dim_stds"] - dim_stds.std()) <= 1e-12


def test_embedding_stats_ignore_memory_layout(np_rng):
    """A Fortran-ordered record gives the bytes of its C-ordered copy."""
    chunks = np_rng.normal(size=(11, 5))
    c_order = ChunkEmbeddings("u", np.ascontiguousarray(chunks))
    f_order = ChunkEmbeddings("u", np.asfortranarray(chunks))
    assert not f_order.chunks.flags.c_contiguous
    assert stats_of(f_order) == stats_of(c_order)
    assert list(stats_of(c_order).values()) == list(reference.embedding_qmf(c_order))


def test_feature_names_layout():
    names = feature_names(SCHEMA)
    assert names[:5] == ["gender_match", "snr_min", "snr_max", "length_min", "length_max"]
    for stat in EMBEDDING_STAT_NAMES:
        assert f"{stat}_min" in names and f"{stat}_max" in names
    assert len(names) == 5 + 2 * len(EMBEDDING_STAT_NAMES)


def make_records(np_rng):
    return [ChunkEmbeddings("e", np_rng.normal(size=(3, 6))), ChunkEmbeddings("t", np_rng.normal(size=(2, 6)))]


def vector_for(np_rng, e_attrs, t_attrs):
    """Features of one trial between two random records with the given attributes."""
    (row,) = features(make_records(np_rng), {"e": e_attrs, "t": t_attrs}, trial_list([("e", "t")]))
    return row


def test_categorical_match_values(np_rng):
    base = {"snr": 1.0, "length": 1.0}
    cases = [
        (dict(base, gender="m"), dict(base, gender="m"), 1.0),
        (dict(base, gender="m"), dict(base, gender="f"), 0.0),
        (dict(base, gender=None), dict(base, gender="m"), 0.0),
        (dict(base, gender="m"), dict(base, gender=None), 0.0),
        (dict(base, gender=None), dict(base, gender=None), 0.0),
    ]
    for e_attrs, t_attrs, expected in cases:
        vec = vector_for(np_rng, e_attrs, t_attrs)
        assert vec["gender_match"] == expected


def test_log1p_transform_values(np_rng):
    e_attrs = {"gender": "m", "snr": 3.0, "length": math.e - 1.0}
    t_attrs = {"gender": "m", "snr": 7.0, "length": math.e**2 - 1.0}
    vec = vector_for(np_rng, e_attrs, t_attrs)
    assert abs(vec["length_min"] - 1.0) <= 1e-12
    assert abs(vec["length_max"] - 2.0) <= 1e-12
    assert vec["snr_min"] == 3.0
    assert vec["snr_max"] == 7.0


def test_one_missing_side_fills_both_halves(np_rng):
    e_attrs = {"gender": "m", "snr": 4.5, "length": None}
    t_attrs = {"gender": "m", "snr": None, "length": None}
    vec = vector_for(np_rng, e_attrs, t_attrs)
    assert vec["snr_min"] == 4.5
    assert vec["snr_max"] == 4.5
    assert math.isnan(vec["length_min"])
    assert math.isnan(vec["length_max"])


def test_side_symmetry_is_exact(np_rng):
    records = make_records(np_rng)
    attrs = {
        "e": {"gender": "f", "snr": 12.0, "length": 30.0},
        "t": {"gender": "m", "snr": 3.0, "length": None},
    }
    fwd, bwd = features(records, attrs, trial_list([("e", "t"), ("t", "e")]))
    assert list(fwd) == list(bwd)
    assert np.array(list(fwd.values())).tobytes() == np.array(list(bwd.values())).tobytes()


def test_zero_ties_pair_by_sign_not_side_order(np_rng):
    """min is -0.0 if either side is -0.0, max is +0.0 if either is +0.0."""
    records = make_records(np_rng)
    cases = [
        ((0.0, -0.0), (-0.0, 0.0)),
        ((-0.0, 0.0), (-0.0, 0.0)),
        ((-0.0, -0.0), (-0.0, -0.0)),
        ((0.0, 0.0), (0.0, 0.0)),
        ((-0.0, None), (-0.0, -0.0)),
        ((None, 0.0), (0.0, 0.0)),
    ]
    for (e_snr, t_snr), expected in cases:
        attrs = {"e": {"gender": "m", "snr": e_snr, "length": 0.0}, "t": {"gender": "m", "snr": t_snr, "length": -0.0}}
        for row in features(records, attrs, trial_list([("e", "t"), ("t", "e")])):
            got = (row["snr_min"], row["snr_max"])
            assert np.array(got).tobytes() == np.array(expected).tobytes(), (e_snr, t_snr, got)
            # log1p keeps the sign of a zero
            assert np.array([row["length_min"], row["length_max"]]).tobytes() == np.array([-0.0, 0.0]).tobytes()
    # the per-trial reference kept whichever side came first on (0.0, -0.0), and the unchanged
    # (-0.0, -0.0) case agrees with it
    stats = reference.embedding_qmf(records[0])
    for e_snr, t_snr in ((0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)):
        row = reference.build_trial_qmf({"snr": e_snr}, stats, {"snr": t_snr}, stats, SCHEMA[1:2])
        assert row[:2].tobytes() == np.array([e_snr, e_snr]).tobytes()


def test_embedding_stats_paired_min_max(np_rng):
    records = make_records(np_rng)
    attrs = {"gender": "m", "snr": 1.0, "length": 1.0}
    (vec,) = features(records, {"e": attrs, "t": attrs}, trial_list([("e", "t")]))
    e_stats, t_stats = stats_of(records[0]), stats_of(records[1])
    for stat in EMBEDDING_STAT_NAMES:
        assert vec[f"{stat}_min"] == min(e_stats[stat], t_stats[stat])
        assert vec[f"{stat}_max"] == max(e_stats[stat], t_stats[stat])


def test_log1p_rejects_out_of_domain(np_rng):
    e_attrs = {"gender": "m", "snr": 1.0, "length": -1.5}
    t_attrs = {"gender": "m", "snr": 1.0, "length": 2.0}
    with pytest.raises(ToolkitError, match="log1p"):
        vector_for(np_rng, e_attrs, t_attrs)


def test_trial_feature_matrix_matches_per_trial_loop(np_rng):
    records = [ChunkEmbeddings(f"u{i}", np_rng.normal(size=(2, 6))) for i in range(4)]
    table = AttributeTable(columns=("gender", "snr", "length"))
    for i, rec in enumerate(records):
        table.rows[rec.utt_id] = {
            "gender": "m" if i % 2 else "f",
            "snr": float(i),
            "length": 10.0 * i + 1.0,
        }
    trials = trial_list([("u0", "u1"), ("u2", "u3"), ("u1", "u1")])
    names, matrix = trial_feature_matrix(trials, records, table, SCHEMA)
    assert names == feature_names(SCHEMA)
    assert matrix.shape == (3, len(names))
    expected_names, expected = reference.trial_feature_matrix(trials, records, table, SCHEMA)
    assert names == expected_names
    assert matrix.tobytes() == expected.tobytes()


def test_trial_feature_matrix_missing_inputs(np_rng):
    records = [ChunkEmbeddings("u0", np_rng.normal(size=(1, 4)))]
    table = AttributeTable(columns=("gender", "snr", "length"))
    table.rows["u0"] = {"gender": "m", "snr": 1.0, "length": 1.0}
    # known to the attribute table but absent from the store
    table.rows["nope"] = {"gender": "f", "snr": 2.0, "length": 1.0}
    with pytest.raises(ToolkitError, match="embedding store"):
        trial_feature_matrix(trial_list([("u0", "nope")]), records, table, SCHEMA)
    table.rows.pop("u0")
    with pytest.raises(ToolkitError, match="attribute table"):
        trial_feature_matrix(trial_list([("u0", "u0")]), records, table, SCHEMA)


def test_trial_feature_matrix_empty_trial_list(np_rng):
    table = AttributeTable(columns=("gender", "snr", "length"))
    names, matrix = trial_feature_matrix(TrialList([], []), make_records(np_rng), table, SCHEMA)
    assert matrix.shape == (0, len(names))


def test_trial_feature_matrix_peak_stays_within_a_few_blocks(np_rng, traced_peak):
    """20 000 trials among 2 000 utterances: gathering both sides' rows for
    every trial at once held about three matrices; gathering them a block of
    trials at a time holds the matrix plus a few budgets."""
    n_utts, n_trials = 2000, 20_000
    records = [ChunkEmbeddings(f"u{i:04d}", np_rng.normal(size=(4, 32))) for i in range(n_utts)]
    table = AttributeTable(columns=tuple(col.name for col in SCHEMA))
    for rec in records:
        table.rows[rec.utt_id] = {"gender": str(np_rng.integers(2)), "snr": float(np_rng.normal()),
                                  "length": float(np_rng.uniform(1.0, 9.0))}
    pick = np_rng.integers(0, n_utts, size=(n_trials, 2)).tolist()
    trials = TrialList([f"u{e:04d}" for e, _ in pick], [f"u{t:04d}" for _, t in pick])
    (names, matrix), peak = traced_peak(trial_feature_matrix, trials, records, table, SCHEMA)
    assert matrix.shape == (n_trials, len(names))
    assert peak < matrix.nbytes + 4 * COSINE_BLOCK_BYTES


# ---------------------------------------------------------------------------
# Min-max scaling


def test_minmax_basic_scaling():
    matrix = np.array([[0.0], [5.0], [10.0]])
    params = minmax_fit(matrix, ["f"])
    assert params.lo[0] == 0.0 and params.hi[0] == 10.0 and params.median[0] == 5.0
    scaled = minmax_apply(matrix, params)
    assert scaled.tolist() == [[0.0], [0.5], [1.0]]


def test_minmax_imputes_median_then_scales():
    matrix = np.array([[0.0], [np.nan], [10.0], [2.0]])
    params = minmax_fit(matrix, ["f"])
    assert params.median[0] == 2.0
    scaled = minmax_apply(matrix, params)
    assert scaled[1, 0] == 0.2


def test_minmax_clamps_out_of_range():
    params = minmax_fit(np.array([[0.0], [10.0]]), ["f"])
    scaled = minmax_apply(np.array([[-5.0], [15.0]]), params)
    assert scaled.tolist() == [[0.0], [1.0]]


def test_minmax_constant_feature_maps_to_half():
    params = minmax_fit(np.array([[3.0], [3.0]]), ["f"])
    scaled = minmax_apply(np.array([[3.0], [99.0]]), params)
    assert scaled.tolist() == [[0.5], [0.5]]


def test_minmax_vector_input_round_trip():
    params = minmax_fit(np.array([[0.0, 2.0], [4.0, 6.0]]), ["a", "b"])
    one = minmax_apply(np.array([[2.0, 4.0]]), params)
    assert one.shape == (1, 2)
    assert one.tolist() == [[0.5, 0.5]]
    # a bare feature vector is not a matrix of rows
    with pytest.raises(ToolkitError, match="2-D"):
        minmax_apply(np.array([2.0, 4.0]), params)


def test_minmax_all_missing_feature_rejected():
    with pytest.raises(ToolkitError, match="no observed values"):
        minmax_fit(np.array([[np.nan], [np.nan]]), ["f"])


def test_minmax_fit_shape_errors():
    with pytest.raises(ToolkitError):
        minmax_fit(np.array([[1.0, 2.0]]), ["only"])
    with pytest.raises(ToolkitError):
        minmax_fit(np.empty((0, 1)), ["f"])


def test_scaled_output_always_in_unit_interval(np_rng):
    fit_matrix = np_rng.normal(size=(30, 4)) * 100.0
    params = minmax_fit(fit_matrix, ["a", "b", "c", "d"])
    apply_matrix = np_rng.normal(size=(50, 4)) * 1000.0
    scaled = minmax_apply(apply_matrix, params)
    assert scaled.min() >= 0.0 and scaled.max() <= 1.0
