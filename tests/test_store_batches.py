"""Property tests for the store's batch path: records read a batch of lines
at a time, from pieces and batches that split records of 1 to 12 chunks
(dims 1-130) mixed in one store, and the per-utterance summaries reduced a
block of same-shape records at a time, each against its per-record
reference: a record's mean, qmf's five statistics on a lone record, a
record's chunk norms and each speaker's median profile."""

import contextlib
from unittest import mock

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import trial_side_reference as reference
from svbackend import dataio, qmf, scoring
from svbackend.curation import median_profile, profiles_from_store
from svbackend.dataio import ChunkEmbeddings
from svbackend.errors import ToolkitError
from svbackend.scoring import gather_blocks, mean_rows, row_norms, speaker_rows

# (bytes of a line-source piece, block budget): pieces that split every line, and store
# batches of one line (a budget of 1 or 16 fields) or of a few (256 fields), then sizes near
# the program's own
SIZES = st.tuples(st.sampled_from([1024, dataio._BLOCK_BYTES]),
                  st.sampled_from([8, 1 << 12, 256 * dataio._FIELD_BYTES, scoring.COSINE_BLOCK_BYTES]))


@st.composite
def stores(draw):
    """Records of 1 to 12 chunks of one dim from 1 to 130, with signed zeros
    and values over twelve orders of magnitude."""
    dim = draw(st.integers(1, 130))
    counts = draw(st.lists(st.integers(1, 12), min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    records = []
    for i, n_chunks in enumerate(counts):
        chunks = rng.normal(size=(n_chunks, dim)) * 10.0 ** rng.integers(-6, 7)
        chunks[rng.random((n_chunks, dim)) < 0.05] = -0.0
        records.append(ChunkEmbeddings(f"u{i:02d}", chunks))
    return records


@contextlib.contextmanager
def sized(sizes):
    """Run the block with the line-source pieces and block budget of ``sizes``."""
    block, budget = sizes
    with mock.patch.object(dataio, "_BLOCK_BYTES", block), mock.patch.object(scoring, "COSINE_BLOCK_BYTES", budget):
        yield


def store(records, tmp_path_factory) -> str:
    path = str(tmp_path_factory.mktemp("store") / "emb.txt")
    dataio.write_embeddings(records, path)
    return path


def bits(array) -> bytes:
    return np.asarray(array, dtype=np.float64).tobytes()


@given(stores(), SIZES, st.integers(0, 2**32 - 1))
def test_mean_rows_are_each_records_mean(tmp_path_factory, records, sizes, seed):
    """Each record's mean goes into its row, whether the rows come in stream
    order, with the ids speaker_rows gives, or, as asnorm's trial sides do,
    in any order."""
    path = store(records, tmp_path_factory)
    rows = np.random.default_rng(seed).permutation(len(records)).tolist()
    with sized(sizes):
        ids, in_order, _ = speaker_rows(dataio.iter_embeddings(path), {rec.utt_id: "spk" for rec in records})
        shuffled = mean_rows(zip(rows, dataio.iter_embeddings(path)), len(records))
    expected = [bits(rec.chunks.mean(axis=0)) for rec in records]
    assert ids == [rec.utt_id for rec in records]
    assert [bits(row) for row in in_order] == expected
    assert [bits(shuffled[row]) for row in rows] == expected


@given(stores(), SIZES)
def test_side_stats_are_the_lone_record_statistics(tmp_path_factory, records, sizes):
    path = store(records, tmp_path_factory)
    rows = np.random.default_rng(len(records)).permutation(len(records))  # sides come in any row order
    out = np.full((len(records), len(qmf.EMBEDDING_STAT_NAMES)), np.nan)
    with sized(sizes):
        qmf._side_stats(zip(rows.tolist(), dataio.iter_embeddings(path)), out)
    assert [bits(out[row]) for row in rows] == [bits(reference.embedding_qmf(rec)) for rec in records]


@given(stores(), SIZES)
def test_gathered_blocks_give_each_records_chunk_norms(tmp_path_factory, records, sizes):
    """score's side norms are ``row_norms`` of gathered blocks."""
    path = store(records, tmp_path_factory)
    norms = {}
    with sized(sizes):
        for rows, block in gather_blocks(enumerate(dataio.iter_embeddings(path))):
            assert block.flags.c_contiguous
            n_sides, n_chunks, dim = block.shape
            for row, side_norms in zip(rows.tolist(), row_norms(block.reshape(-1, dim)).reshape(n_sides, n_chunks)):
                assert row not in norms
                norms[row] = bits(side_norms)
    assert [norms[row] for row in range(len(records))] == [bits(row_norms(rec.chunks)) for rec in records]


@given(stores(), SIZES, st.data())
def test_profiles_are_each_speakers_median_profile(tmp_path_factory, records, sizes, data):
    """Speakers of one to twelve utterances, grouped by utterance count into blocks
    that the budget splits, each get ``median_profile``'s bits."""
    path = store(records, tmp_path_factory)
    speakers = data.draw(st.lists(st.sampled_from("abcdef"), min_size=len(records), max_size=len(records)))
    speaker_map = {rec.utt_id: f"s{speaker}" for rec, speaker in zip(records, speakers)}

    def outcome(profiles):
        try:
            return [(p.speaker_id, bits(p.median_embedding)) for p in profiles()]
        except ToolkitError as exc:
            return str(exc)

    def per_speaker():
        means = {}
        for rec in records:
            means.setdefault(speaker_map[rec.utt_id], []).append(rec.chunks.mean(axis=0))
        return [median_profile(spk, means[spk]) for spk in sorted(means)]

    with sized(sizes):
        got = outcome(lambda: profiles_from_store(dataio.iter_embeddings(path), speaker_map))
    assert got == outcome(per_speaker)
