"""The kernels that read an embedding store take a list or a stream of its
records. Fed ``dataio.iter_embeddings`` they give the bits and the errors of
the list ``dataio.read_embeddings`` returns, a store fault comes before any
check that needs the store's contents, and they keep a summary per
utterance, not the store's chunks."""

from pathlib import Path

import numpy as np
import pytest

from svbackend import dataio
from svbackend.asnorm import asnorm_trials, build_cohort
from svbackend.curation import profiles_from_store
from svbackend.dataio import AttributeTable, ChunkEmbeddings, SchemaColumn, TrialList
from svbackend.errors import DataFormatError, ToolkitError
from svbackend.qmf import trial_feature_matrix
from svbackend.scoring import COSINE_BLOCK_BYTES, score_trials
from svbackend.synth import DEFAULT_SCHEMA, SynthConfig, gen_attributes, gen_trials

TOP_N = 3


@pytest.fixture()
def pipeline_inputs(small_synth, synth_store, tmp_path):
    """(store path, cohort path, speaker map, trials, attribute table) over ``small_synth``."""
    records, speaker_map = small_synth
    cohort_path = str(tmp_path / "cohort.txt")
    dataio.write_embeddings(build_cohort(records, speaker_map, 2, 5), cohort_path)
    trials = gen_trials(records, speaker_map, n_pos=10, n_neg=20, seed=3)
    config = SynthConfig(n_speakers=6, utts_per_speaker=4, chunks_per_utt=2, dim=8,
                         within_spread=0.2, between_spread=1.0, seed=11)
    return synth_store, cohort_path, speaker_map, trials, gen_attributes(records, speaker_map, config)


def kernel_outputs(read, store, cohort_path, speaker_map, trials, table):
    """Each kernel's result as bytes, with every store read by ``read``."""
    raw = score_trials(read(store), trials)
    return {
        "score": raw.tobytes(),
        "cohort": [(rec.utt_id, rec.chunks.tobytes()) for rec in build_cohort(read(store), speaker_map, 2, 5)],
        "asnorm": asnorm_trials(raw, trials, read(store), read(cohort_path), TOP_N).tobytes(),
        "qmf": trial_feature_matrix(trials, read(store), table, DEFAULT_SCHEMA)[1].tobytes(),
        "profiles": [(p.speaker_id, p.median_embedding.tobytes()) for p in profiles_from_store(read(store), speaker_map)],
    }


def test_stream_and_list_give_the_same_bits(pipeline_inputs):
    streamed = kernel_outputs(dataio.iter_embeddings, *pipeline_inputs)
    assert streamed == kernel_outputs(dataio.read_embeddings, *pipeline_inputs)


def with_ghost_sides(trials):
    """``trials`` with a side that no store holds in two places; ``ghost-b`` appears first."""
    enroll, test = list(trials.enroll), list(trials.test)
    enroll[3], test[1] = "ghost-a", "ghost-b"
    return TrialList(enroll, test)


@pytest.mark.parametrize("kernel", ["score", "asnorm", "qmf"])
def test_stream_and_list_name_the_same_missing_side(pipeline_inputs, kernel):
    store, cohort_path, _, trials, table = pipeline_inputs
    ghosts = with_ghost_sides(trials)
    calls = {
        "score": lambda read: score_trials(read(store), ghosts),
        "asnorm": lambda read: asnorm_trials(np.zeros(len(ghosts)), ghosts, read(store), read(cohort_path), TOP_N),
        "qmf": lambda read: trial_feature_matrix(ghosts, read(store), table, DEFAULT_SCHEMA),
    }
    for read in (dataio.iter_embeddings, dataio.read_embeddings):
        with pytest.raises(ToolkitError, match=r"^utterance 'ghost-b' missing from embedding store$"):
            calls[kernel](read)


def test_a_store_fault_comes_before_the_checks_on_its_contents(pipeline_inputs, tmp_path):
    """Every kernel below would fail its own check on the store's contents (a
    missing side, an utterance missing from the speaker map, a cohort smaller
    than top-N); the fault on the store's last line is raised first."""
    store, cohort_path, speaker_map, trials, table = pipeline_inputs
    bad = tmp_path / "bad.txt"
    bad.write_text(Path(store).read_text() + "late 1 nan" + " 0.5" * 7 + "\n")
    n_lines = len(bad.read_text().splitlines())
    ghosts = with_ghost_sides(trials)
    partial_map = dict(list(speaker_map.items())[1:])
    calls = [
        lambda: score_trials(dataio.iter_embeddings(bad), ghosts),
        lambda: asnorm_trials(np.zeros(len(ghosts)), ghosts, dataio.iter_embeddings(bad),
                              dataio.iter_embeddings(cohort_path), 100),
        lambda: asnorm_trials(np.zeros(len(ghosts)), ghosts, dataio.iter_embeddings(store),
                              dataio.iter_embeddings(bad), 1),
        lambda: trial_feature_matrix(ghosts, dataio.iter_embeddings(bad), AttributeTable(()), DEFAULT_SCHEMA),
        lambda: build_cohort(dataio.iter_embeddings(bad), partial_map, 2, 5),
        lambda: profiles_from_store(dataio.iter_embeddings(bad), partial_map),
    ]
    for call in calls:
        with pytest.raises(DataFormatError, match=rf"bad\.txt:{n_lines}: non-finite value 'nan'"):
            call()


def test_asnorm_names_a_missing_side_before_a_small_cohort(pipeline_inputs):
    """The store's sides are checked as it ends, the cohort's size once both are read."""
    store, cohort_path, _, trials, _ = pipeline_inputs
    ghosts = with_ghost_sides(trials)
    for read in (dataio.iter_embeddings, dataio.read_embeddings):
        with pytest.raises(ToolkitError, match=r"^utterance 'ghost-b' missing from embedding store$"):
            asnorm_trials(np.zeros(len(ghosts)), ghosts, read(store), read(cohort_path), 100)


def test_asnorm_reads_the_cohort_before_the_store(pipeline_inputs, tmp_path):
    """Both streams end in a malformed line, and the cohort's is raised. (A
    list is read whole before the call, so only streams can order the two.)"""
    store, cohort_path, _, trials, _ = pipeline_inputs
    bad = {}
    for name, path in (("store", store), ("cohort", cohort_path)):
        bad[name] = tmp_path / f"bad-{name}.txt"
        bad[name].write_text(Path(path).read_text() + "late 1 nan" + " 0.5" * 7 + "\n")
    n_lines = len(bad["cohort"].read_text().splitlines())
    with pytest.raises(DataFormatError, match=rf"bad-cohort\.txt:{n_lines}: non-finite value 'nan'"):
        asnorm_trials(np.zeros(len(trials)), trials, dataio.iter_embeddings(bad["store"]),
                      dataio.iter_embeddings(bad["cohort"]), TOP_N)


# ---------------------------------------------------------------------------
# Memory


N_UTTS, N_CHUNKS, DIM = 2000, 4, 64
CHUNK_BYTES = N_UTTS * N_CHUNKS * DIM * 8  # 4 MB of chunks
MEAN_BYTES = N_UTTS * DIM * 8  # one mean row per utterance


def record_stream(seed: int, n: int = N_UTTS, prefix: str = "u"):
    rng = np.random.default_rng(seed)
    return (ChunkEmbeddings(f"{prefix}{i:04d}", rng.normal(size=(N_CHUNKS, DIM))) for i in range(n))


def test_store_kernels_fed_a_stream_keep_summaries_not_chunks(traced_peak):
    """Over 2 000 utterances of 4 chunks (dim 64), every kernel fed a stream
    peaks at its summaries plus a few budgets, well below the chunks it reads;
    holding the store, as they did before they took streams, costs all of them."""
    speaker_map = {f"u{i:04d}": f"s{i // 4:03d}" for i in range(N_UTTS)}
    trials = TrialList([f"u{2 * i:04d}" for i in range(N_UTTS // 2)], [f"u{2 * i + 1:04d}" for i in range(N_UTTS // 2)])
    budgets = 4 * COSINE_BLOCK_BYTES

    cohort, peak = traced_peak(build_cohort, record_stream(1), speaker_map, 2, 0)
    assert len(cohort) == N_UTTS // 4
    assert peak < MEAN_BYTES + budgets
    assert peak < CHUNK_BYTES / 2

    profiles, peak = traced_peak(profiles_from_store, record_stream(2), speaker_map)
    assert len(profiles) == N_UTTS // 4
    assert peak < MEAN_BYTES + budgets
    assert peak < CHUNK_BYTES / 2

    raw = np.zeros(len(trials))
    normalized, peak = traced_peak(asnorm_trials, raw, trials, record_stream(3), record_stream(4, 100, "c"), 10)
    assert normalized.shape == raw.shape
    assert peak < MEAN_BYTES + budgets
    assert peak < CHUNK_BYTES / 2

    schema = [SchemaColumn("snr", "real", "identity")]
    table = AttributeTable(columns=("snr",), rows={f"u{i:04d}": {"snr": float(i)} for i in range(N_UTTS)})
    (names, matrix), peak = traced_peak(trial_feature_matrix, trials, record_stream(5), table, schema)
    assert matrix.shape == (len(trials), len(names))
    assert peak < matrix.nbytes + budgets
    assert peak < CHUNK_BYTES / 2
