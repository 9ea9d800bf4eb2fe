"""Cosine and chunked pairwise trial scoring against double-loop oracles."""

import importlib
import math
import pkgutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import svbackend
from conftest import trial_list
from svbackend import scoring
from svbackend.dataio import ChunkEmbeddings, TrialList
from svbackend.errors import ToolkitError
from svbackend.scoring import (
    COSINE_BLOCK_BYTES,
    cosine,
    cosine_matrix,
    mean_rows,
    pairwise_score,
    row_norms,
    score_trials,
    trial_sides,
    vector_norm,
)


def oracle_cosine(u, v):
    num = math.fsum(float(a) * float(b) for a, b in zip(u, v))
    nu = math.sqrt(math.fsum(float(a) * float(a) for a in u))
    nv = math.sqrt(math.fsum(float(b) * float(b) for b in v))
    return max(-1.0, min(1.0, num / (nu * nv)))


def test_cosine_hand_values():
    assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert cosine([2.0, 0.0], [5.0, 0.0]) == 1.0
    assert cosine([1.0, 0.0], [-3.0, 0.0]) == -1.0
    assert abs(cosine([1.0, 0.0], [1.0, 1.0]) - 1.0 / math.sqrt(2.0)) < 1e-15


def test_cosine_is_clamped(np_rng):
    for _ in range(200):
        u = np_rng.normal(size=4)
        v = u * np_rng.uniform(0.1, 10.0)
        assert -1.0 <= cosine(u, v) <= 1.0


def test_cosine_rejects_degenerate_inputs():
    with pytest.raises(ToolkitError):
        cosine([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ToolkitError):
        cosine([1.0, 0.0], [0.0, 0.0])
    with pytest.raises(ToolkitError):
        cosine([1.0, 0.0], [1.0, 0.0, 0.0])


def test_cosine_matrix_bit_identical_to_scalar(np_rng):
    a = np_rng.normal(size=(7, 5))
    b = np_rng.normal(size=(9, 5))
    matrix = cosine_matrix(a, b)
    assert matrix.shape == (7, 9)
    for i in range(7):
        for j in range(9):
            assert matrix[i, j] == cosine(a[i], b[j])


def test_cosine_matrix_transpose_symmetry(np_rng):
    a = np_rng.normal(size=(6, 4))
    b = np_rng.normal(size=(8, 4))
    forward = cosine_matrix(a, b)
    backward = cosine_matrix(b, a)
    assert forward.tobytes() == backward.T.copy().tobytes()


def test_cosine_matrix_spanning_row_blocks_bit_identical(np_rng):
    # 13 rows of 700 similarities take over four budgets of 16 KiB, so the
    # forward direction is scored in blocks of 2 rows; the transpose's 700
    # rows of 13 similarities are scored in blocks of 157. Both end with a
    # partial last block.
    budget = 16384
    a = np_rng.normal(size=(13, 64))
    b = np_rng.normal(size=(700, 64))
    assert a.shape[0] * b.shape[0] * 8 > 4 * budget
    with mock.patch.object(scoring, "COSINE_BLOCK_BYTES", budget):
        forward = cosine_matrix(a, b)
        backward = cosine_matrix(b, a)
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            assert forward[i, j] == cosine(a[i], b[j])
    assert forward.tobytes() == backward.T.copy().tobytes()


def test_cosine_matrix_scores_row_blocks_within_the_budget(np_rng, traced_peak):
    # a row's 300 similarities take 2 400 bytes, so at an 8 KiB budget the 5
    # rows are scored in blocks of 3, the last one partial; no (rows, cols,
    # dim) product is formed, so the peak stays under the output plus 3 budgets
    budget = 8192
    a = np_rng.normal(size=(5, 32))
    b = np_rng.normal(size=(300, 32))
    assert a.shape[0] * b.shape[0] * 8 > budget
    with mock.patch.object(scoring, "COSINE_BLOCK_BYTES", budget):
        sims, peak = traced_peak(cosine_matrix, a, b, row_norms(b))
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            assert sims[i, j] == cosine(a[i], b[j])
    assert peak < sims.nbytes + 3 * budget


def test_score_trials_peak_stays_within_a_few_blocks(np_rng, traced_peak):
    """20 000 trials among 2 000 utterances of 4 chunks (dim 32): grouping the
    trials by shape with ``np.unique(..., axis=0)`` peaked near 2.5 MB (10
    budgets); one integer shape code per trial keeps the kernel within a few
    budgets beyond its scores."""
    n_utts, n_trials = 2000, 20_000
    records = [ChunkEmbeddings(f"u{i:04d}", np_rng.normal(size=(4, 32))) for i in range(n_utts)]
    pick = np_rng.integers(0, n_utts, size=(n_trials, 2)).tolist()
    trials = TrialList([f"u{e:04d}" for e, _ in pick], [f"u{t:04d}" for _, t in pick])
    scores, peak = traced_peak(score_trials, records, trials)
    assert scores.shape == (n_trials,)
    assert peak < 5 * COSINE_BLOCK_BYTES + scores.nbytes


def test_vector_norm_and_mean_embedding():
    assert vector_norm(np.array([3.0, 4.0])) == 5.0
    rec = ChunkEmbeddings("u", np.array([[1.0, 2.0], [3.0, 6.0]]))
    assert np.array_equal(rec.mean_embedding(), np.array([2.0, 4.0]))


def test_pairwise_score_matches_double_loop_oracle(np_rng):
    for _ in range(100):
        n_a = int(np_rng.integers(1, 7))
        n_b = int(np_rng.integers(1, 7))
        a = ChunkEmbeddings("a", np_rng.normal(size=(n_a, 8)))
        b = ChunkEmbeddings("b", np_rng.normal(size=(n_b, 8)))
        got = pairwise_score(a, b)
        sims = [cosine(u, v) for u in a.chunks for v in b.chunks]
        expected = math.fsum(sims) / len(sims)
        assert got.n_pairs == n_a * n_b
        assert abs(got.value - expected) <= 1e-12
        assert got.value == expected


def test_pairwise_score_ten_by_ten_has_hundred_pairs(np_rng):
    a = ChunkEmbeddings("a", np_rng.normal(size=(10, 8)))
    b = ChunkEmbeddings("b", np_rng.normal(size=(10, 8)))
    assert pairwise_score(a, b).n_pairs == 100


def test_pairwise_score_symmetry_is_bitwise(np_rng):
    for _ in range(25):
        a = ChunkEmbeddings("a", np_rng.normal(size=(int(np_rng.integers(1, 6)), 8)))
        b = ChunkEmbeddings("b", np_rng.normal(size=(int(np_rng.integers(1, 6)), 8)))
        fwd = pairwise_score(a, b).value
        bwd = pairwise_score(b, a).value
        assert np.float64(fwd).tobytes() == np.float64(bwd).tobytes()


def test_single_chunk_pair_equals_cosine(np_rng):
    u = np_rng.normal(size=8)
    v = np_rng.normal(size=8)
    a = ChunkEmbeddings("a", u[None, :])
    b = ChunkEmbeddings("b", v[None, :])
    assert pairwise_score(a, b).value == cosine(u, v)


def test_pairwise_score_within_bounds(np_rng):
    a = ChunkEmbeddings("a", np_rng.normal(size=(4, 8)))
    b = ChunkEmbeddings("b", np_rng.normal(size=(5, 8)))
    assert -1.0 <= pairwise_score(a, b).value <= 1.0


def test_pairwise_score_rejects_zero_norm_chunk():
    a = ChunkEmbeddings("a", np.array([[0.0, 0.0]]))
    b = ChunkEmbeddings("b", np.array([[1.0, 0.0]]))
    with pytest.raises(ToolkitError):
        pairwise_score(a, b)


def test_pairwise_score_rejects_dim_mismatch(np_rng):
    a = ChunkEmbeddings("a", np_rng.normal(size=(2, 4)))
    b = ChunkEmbeddings("b", np_rng.normal(size=(2, 5)))
    with pytest.raises(ToolkitError):
        pairwise_score(a, b)


def test_score_trials_order_and_values(np_rng):
    records = [ChunkEmbeddings(f"u{i}", np_rng.normal(size=(2, 6))) for i in range(4)]
    trials = trial_list([("u2", "u0"), ("u1", "u3"), ("u0", "u0")])
    scores = score_trials(records, trials)
    by_id = {r.utt_id: r for r in records}
    for e, t, value in zip(trials.enroll, trials.test, scores):
        assert value == pairwise_score(by_id[e], by_id[t]).value


def test_score_trials_scores_mixed_dims_and_reports_the_first_bad_trial(np_rng):
    records = [
        ChunkEmbeddings("a4", np_rng.normal(size=(2, 4))),
        ChunkEmbeddings("b4", np_rng.normal(size=(3, 4))),
        ChunkEmbeddings("c8", np_rng.normal(size=(1, 8))),
        ChunkEmbeddings("d8", np_rng.normal(size=(2, 8))),
        ChunkEmbeddings("zero", np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])),
    ]
    by_id = {r.utt_id: r for r in records}
    good = [("a4", "b4"), ("d8", "c8"), ("b4", "b4"), ("c8", "d8")]
    scores = score_trials(records, trial_list(good))
    assert scores.tolist() == [pairwise_score(by_id[e], by_id[t]).value for e, t in good]

    mismatch, zero = ("a4", "c8"), ("zero", "a4")
    with pytest.raises(ToolkitError, match=r"^embedding dim mismatch: 'a4' has 4, 'c8' has 8$"):
        score_trials(records, trial_list(good + [mismatch, zero]))
    with pytest.raises(ToolkitError, match=r"^cosine undefined for zero-norm vector$"):
        score_trials(records, trial_list(good + [zero, mismatch]))


def test_score_trials_missing_utterance(np_rng):
    records = [ChunkEmbeddings("u0", np_rng.normal(size=(1, 4)))]
    with pytest.raises(ToolkitError, match="ghost"):
        score_trials(records, trial_list([("u0", "ghost")]))


def test_trial_sides_indexes_unique_utterances_in_first_appearance_order(np_rng):
    records = [ChunkEmbeddings(f"u{i}", np_rng.normal(size=(1, 4))) for i in range(5)]
    trials = trial_list([("u3", "u1"), ("u1", "u3"), ("u0", "u0"), ("u3", "u0")])
    ids, enroll, test, sides = trial_sides(records, trials)
    assert ids == ["u3", "u1", "u0"]
    assert enroll.tolist() == [0, 1, 2, 0]
    assert test.tolist() == [1, 0, 2, 2]
    assert dict(sides)[0] is records[3]


# Dims 1-130, where a dot product is one einsum piece, and one past 8 192, where einsum
# alone would split its sum where its buffer ends and the fixed pieces must not.
DIMS = st.one_of(st.integers(1, 130), st.just(8193))
# One-row blocks, then blocks near the program's own size.
BUDGETS = st.sampled_from([8, 1 << 12, COSINE_BLOCK_BYTES])


def bits(array) -> bytes:
    return np.asarray(array, dtype=np.float64).tobytes()


def random_rows(rng, n_rows, dim):
    """Rows with signed zeros and values over twelve orders of magnitude,
    each with a nonzero entry."""
    rows = rng.normal(size=(n_rows, dim)) * 10.0 ** rng.integers(-6, 7)
    rows[rng.random(rows.shape) < 0.05] = -0.0
    rows[~rows.any(axis=1), 0] = 1.0
    return rows


@st.composite
def row_pairs(draw):
    dim = draw(DIMS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_rows(rng, draw(st.integers(1, 6)), dim), random_rows(rng, draw(st.integers(1, 6)), dim)


@given(row_pairs(), BUDGETS)
def test_cosine_matrix_entries_are_cosine_bits_in_any_block_and_order(pair, budget):
    a, b = pair
    with mock.patch.object(scoring, "COSINE_BLOCK_BYTES", budget):
        forward = cosine_matrix(a, b)
        backward = cosine_matrix(b, a)
        columns = np.hstack([cosine_matrix(a, b[j:j + 1]) for j in range(len(b))])
    assert bits(forward) == bits([[cosine(u, v) for v in b] for u in a])
    assert bits(backward.T) == bits(forward)
    assert bits(columns) == bits(forward)


@st.composite
def scored_stores(draw):
    """Records of 1-4 chunks of one dim and 1-12 trials among them."""
    dim = draw(DIMS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    records = [ChunkEmbeddings(f"u{i}", random_rows(rng, n, dim)) for i, n in enumerate(counts)]
    side = st.integers(0, len(records) - 1)
    pairs = draw(st.lists(st.tuples(side, side), min_size=1, max_size=12))
    return records, trial_list((f"u{e}", f"u{t}") for e, t in pairs)


@given(scored_stores(), BUDGETS)
def test_score_trials_are_per_trial_cosine_means_across_blocks(case, budget):
    records, trials = case
    with mock.patch.object(scoring, "COSINE_BLOCK_BYTES", budget):
        scores = score_trials(records, trials)
    by_id = {rec.utt_id: rec.chunks for rec in records}
    expected = []
    for e, t in zip(trials.enroll, trials.test):
        sims = [cosine(u, v) for u in by_id[e] for v in by_id[t]]
        expected.append(math.fsum(sims) / len(sims))
    assert bits(scores) == bits(expected)


# ---------------------------------------------------------------------------
# The one block budget


def test_only_scoring_binds_the_block_budget():
    """Every blocked kernel reads scoring's budget, so patching it splits them
    all; a module holding its own copy would run at the default instead."""
    for info in pkgutil.iter_modules(svbackend.__path__):
        module = importlib.import_module(f"svbackend.{info.name}")
        assert info.name == "scoring" or not hasattr(module, "COSINE_BLOCK_BYTES"), info.name


@given(st.integers(0, 200), st.integers(0, 4096), st.integers(1, 1 << 14))
def test_blocks_cover_the_range_in_order_within_the_patched_budget(n, item_bytes, budget):
    with mock.patch.object(scoring, "COSINE_BLOCK_BYTES", budget):
        parts = [list(range(n))[part] for part in scoring.blocks(n, item_bytes)]
    assert [i for part in parts for i in part] == list(range(n))
    assert all(parts)
    # a block of more than one item fits, and every block but the last is as full as fits
    assert all(len(part) == 1 or len(part) * item_bytes <= budget for part in parts)
    assert all((len(part) + 1) * max(1, item_bytes) > budget for part in parts[:-1])


def test_mean_rows_names_the_first_record_of_another_dim(np_rng):
    records = [
        ChunkEmbeddings("a4", np_rng.normal(size=(2, 4))),
        ChunkEmbeddings("b4", np_rng.normal(size=(1, 4))),
        ChunkEmbeddings("c8", np_rng.normal(size=(3, 8))),
        ChunkEmbeddings("d8", np_rng.normal(size=(1, 8))),
    ]
    with pytest.raises(ToolkitError, match=r"^embedding dim mismatch: 'a4' has 4, 'c8' has 8$"):
        mean_rows(enumerate(records))
