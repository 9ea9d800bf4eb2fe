"""Property tests: the store reader against its token-by-token oracle, writer
round trips, and the batched trial scorer against the one-trial scorer."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from svbackend import dataio, scoring
from svbackend.asnorm import AsNormConfig, Cohort, asnorm_trials
from svbackend.dataio import ChunkEmbeddings, Trial
from svbackend.errors import DataFormatError, DegenerateCohortError

ID_CHARS = "abcxyz019_-.:"
finite = st.floats(allow_nan=False, allow_infinity=False)
# Spellings float() accepts; none rounds a finite value past the largest double.
value_tokens = st.one_of(
    finite.map(repr),
    finite.map("{:.17g}".format),
    finite.map("{:.6e}".format),
    st.sampled_from(["1_0", "+.5", "5.", "-0", "0e0", "1E-400", "１２", "٣", "7"]),
)
ids = st.text(ID_CHARS, min_size=1, max_size=6)


def token_read_embeddings(path):
    """The store reader as it was before its numpy fast path: every value parsed
    token by token. Kept here as the oracle for records and error text."""
    path = str(path)
    lines = dataio._data_lines(dataio.read_text(path), path)
    if not lines:
        raise DataFormatError("missing 'dim=<D>' header", path=path, line=1)
    header_no, header = lines[0]
    header = header.strip()
    if not header.startswith("dim="):
        raise DataFormatError(f"malformed header {header!r}, expected 'dim=<D>'", path=path, line=header_no)
    try:
        dim = int(header[len("dim="):])
    except ValueError:
        raise DataFormatError(f"malformed header {header!r}, expected 'dim=<D>'", path=path, line=header_no) from None
    if dim < 1:
        raise DataFormatError(f"dimension must be >= 1, got {dim}", path=path, line=header_no)
    records = []
    seen = set()
    for lineno, raw in lines[1:]:
        tokens = raw.split()
        if len(tokens) < 2:
            raise DataFormatError("expected 'utt_id n_chunks v1 ...'", path=path, line=lineno)
        utt_id = tokens[0]
        try:
            n_chunks = int(tokens[1])
        except ValueError:
            raise DataFormatError(f"invalid chunk count {tokens[1]!r}", path=path, line=lineno) from None
        if n_chunks < 1:
            raise DataFormatError(f"chunk count must be >= 1, got {n_chunks}", path=path, line=lineno)
        expected = n_chunks * dim
        values = tokens[2:]
        if len(values) != expected:
            raise DataFormatError(
                f"expected {expected} values for {n_chunks} chunks of dim {dim}, found {len(values)}",
                path=path,
                line=lineno,
            )
        if utt_id in seen:
            raise DataFormatError(f"duplicate utt_id {utt_id!r}", path=path, line=lineno)
        seen.add(utt_id)
        flat = np.array([dataio._parse_float(tok, path, lineno) for tok in values], dtype=np.float64)
        records.append(ChunkEmbeddings(utt_id, flat.reshape(n_chunks, dim)))
    return records


def outcome(reader, path):
    """Records as (id, shape, bytes), or the error text."""
    try:
        return [(r.utt_id, r.chunks.shape, r.chunks.tobytes()) for r in reader(path)]
    except DataFormatError as exc:
        return ("DataFormatError", str(exc))


@st.composite
def store_lines(draw, tokens=value_tokens):
    """Header plus record lines, each a token list: ragged chunk counts, dims 1-16."""
    dim = draw(st.integers(1, 16))
    utts = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
    records = []
    for utt in utts:
        n = draw(st.integers(1, 4))
        count = draw(st.sampled_from([str(n), f"+{n}", f"0{n}"]))
        records.append([utt, count] + draw(st.lists(tokens, min_size=n * dim, max_size=n * dim)))
    return f"dim={dim}", records


def render(header, records, lead="", sep=" ", trail=""):
    return header + "\n" + "".join(lead + sep.join(tokens) + trail + "\n" for tokens in records)


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    return tmp_path_factory.mktemp("stores") / "embeddings.txt"


@given(store_lines(), st.data())
def test_reader_returns_the_token_path_records_bit_for_bit(store_path, store, data):
    header, records = store
    lead, sep, trail = (data.draw(st.sampled_from(choices)) for choices in (["", " "], [" ", "  ", "\t"], ["", " \t"]))
    store_path.write_text(render(header, records, lead, sep, trail), encoding="utf-8")
    expected = outcome(token_read_embeddings, store_path)
    assert expected[0] != "DataFormatError"
    assert outcome(dataio.read_embeddings, store_path) == expected


@given(store_lines(tokens=finite.map(repr)), st.data())
def test_mutated_store_raises_the_token_path_error(store_path, store, data):
    header, records = store
    i = data.draw(st.integers(0, len(records) - 1))
    line = records[i]
    kind = data.draw(st.sampled_from(["value", "drop", "add", "duplicate", "count", "blank"]))
    j = data.draw(st.integers(2, len(line) - 1))
    if kind == "value":
        line[j] = data.draw(st.sampled_from(["nan", "inf", "-inf", "1e999", "x"]))
    elif kind == "drop":
        del line[j]
    elif kind == "add":
        line.insert(j, "0.5")
    elif kind == "duplicate":
        records.insert(data.draw(st.integers(i + 1, len(records))), list(line))
    elif kind == "count":
        line[1] = data.draw(st.sampled_from(["0", "2.0", "x"]))
    text = render(header, records)
    if kind == "blank":
        lines = text.splitlines(keepends=True)
        lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(["\n", "  \n"])))
        text = "".join(lines)
    store_path.write_text(text, encoding="utf-8")
    expected = outcome(token_read_embeddings, store_path)
    assert expected[0] == "DataFormatError"
    assert outcome(dataio.read_embeddings, store_path) == expected


def chunk_matrices(dim, max_chunks=4):
    rows = st.lists(finite, min_size=dim, max_size=dim)
    return st.lists(rows, min_size=1, max_size=max_chunks).map(lambda m: np.array(m, dtype=np.float64))


@given(st.integers(1, 16).flatmap(lambda dim: st.lists(chunk_matrices(dim), min_size=1, max_size=6)), st.data())
def test_write_then_read_embeddings_is_identity(store_path, matrices, data):
    utts = data.draw(st.lists(ids, min_size=len(matrices), max_size=len(matrices), unique=True))
    records = [ChunkEmbeddings(u, m) for u, m in zip(utts, matrices)]
    dataio.write_embeddings(records, store_path)
    back = dataio.read_embeddings(store_path)
    assert [(r.utt_id, r.chunks.shape, r.chunks.tobytes()) for r in back] == [
        (r.utt_id, r.chunks.shape, r.chunks.tobytes()) for r in records
    ]


@given(st.lists(st.tuples(ids, ids, finite), max_size=20))
def test_write_then_read_scores_is_identity(store_path, rows):
    trials = [Trial(e, t) for e, t, _ in rows]
    scores = np.array([s for _, _, s in rows], dtype=np.float64)
    dataio.write_scores(trials, scores, store_path)
    back_trials, back_scores = dataio.read_scores(store_path)
    assert back_trials == trials
    assert back_scores.tobytes() == scores.tobytes()


@given(st.booleans().flatmap(lambda labeled: st.lists(
    st.builds(Trial, ids, ids, st.booleans() if labeled else st.none()), max_size=20)))
def test_write_then_read_trials_is_identity(store_path, trials):
    labeled = any(t.label is not None for t in trials)
    dataio.write_trials(trials, store_path)
    assert dataio.read_trials(store_path, expect_labels=labeled) == trials


# ---------------------------------------------------------------------------
# Batched scoring

moderate = st.floats(-1e3, 1e3).filter(lambda v: v == 0.0 or abs(v) > 1e-100)


def nonzero_rows(matrix):
    matrix = np.array(matrix, dtype=np.float64)
    matrix[~matrix.any(axis=1), 0] = 1.0
    return matrix


@st.composite
def scored_store(draw, min_trials=1):
    """A ragged store of one dim with nonzero chunks, and trials over it."""
    dim = draw(st.integers(1, 16))
    utts = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
    rows = st.lists(moderate, min_size=dim, max_size=dim)
    # some records Fortran-ordered, whose chunk rows are not contiguous
    order = st.sampled_from([np.ascontiguousarray, np.asfortranarray])
    records = [
        ChunkEmbeddings(u, draw(order)(nonzero_rows(draw(st.lists(rows, min_size=1, max_size=4))))) for u in utts
    ]
    side = st.sampled_from(utts)
    trials = draw(st.lists(st.builds(Trial, side, side), min_size=min_trials, max_size=30))
    return records, trials


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@given(scored_store(min_trials=2), st.data())
def test_score_trials_equals_pairwise_score_across_blocks(store, data):
    records, trials = store
    by_id = dataio.embeddings_by_id(records)
    pairs = [(by_id[t.enroll_id], by_id[t.test_id]) for t in trials]
    # at most one trial's products per block, and often a fraction of one
    smallest = min(e.n_chunks * t.n_chunks * e.dim * 8 for e, t in pairs)
    budget = data.draw(st.integers(1, smallest))
    with mock.patch.object(scoring, "COSINE_BLOCK_BYTES", budget):
        batched = scoring.score_trials(records, trials)
        single = [scoring.pairwise_score(e, t).value for e, t in pairs]
        per_trial = [math.fsum(scoring.cosine_matrix(e.chunks, t.chunks).ravel()) / (e.n_chunks * t.n_chunks)
                     for e, t in pairs]
    assert bits(batched) == bits(single) == bits(per_trial)
    assert bits(scoring.score_trials(records, trials)) == bits(batched)


@given(scored_store(), st.data())
def test_score_and_asnorm_trials_are_swap_symmetric(store, data):
    records, trials = store
    swapped = [Trial(t.test_id, t.enroll_id) for t in trials]
    raw = scoring.score_trials(records, trials)
    assert bits(scoring.score_trials(records, swapped)) == bits(raw)

    dim = records[0].dim
    n_cohort = data.draw(st.integers(2, 6))
    cohort = Cohort(
        tuple(f"spk{k}" for k in range(n_cohort)),
        nonzero_rows(data.draw(st.lists(st.lists(moderate, min_size=dim, max_size=dim),
                                        min_size=n_cohort, max_size=n_cohort))),
    )
    config = AsNormConfig(top_n=data.draw(st.integers(2, n_cohort)))
    try:
        forward = asnorm_trials(raw, trials, records, cohort, config)
    except DegenerateCohortError:
        assume(False)
    assert bits(asnorm_trials(raw, swapped, records, cohort, config)) == bits(forward)
