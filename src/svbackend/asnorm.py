"""Adaptive symmetric score normalization.

The cohort is an embedding store: one record per cohort speaker, whose mean
embedding is that speaker's cohort row. :func:`build_cohort` makes it as
single-chunk records, which is what ``svbackend cohort`` writes, and
:func:`asnorm_trials` takes it or any store read back from disk.

Each trial side is scored against the cohort rows, the top N cohort scores
per side give that side's mean and population standard deviation (computed
once per unique trial-side utterance, from its mean embedding), and the
normalized score is the average of the two z-normalized raw scores:

    0.5 * ((raw - mu_e) / sd_e + (raw - mu_t) / sd_t)

Swapping enroll and test swaps the two summands, so the result is exactly
symmetric.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .dataio import ChunkEmbeddings, TrialList
from .errors import DegenerateCohortError, ToolkitError
from .rng import SplitMix64, derive_seed
from .scoring import blocks, cosine_matrix, mean_rows, row_norms, speaker_rows, trial_sides


def build_cohort(
    records: Iterable[ChunkEmbeddings],
    speaker_map: dict[str, str],
    per_speaker: int = 20,
    seed: int = 0,
) -> list[ChunkEmbeddings]:
    """Cohort store of one single-chunk record per speaker, sorted by speaker id.

    For each speaker, up to ``per_speaker`` utterances are chosen by a seeded
    shuffle of the speaker's sorted utterance list (substream derived from
    the speaker id, so the choice is independent of input order), and the
    speaker's row is the mean of the chosen utterances' mean embeddings.
    ``records`` is a list or a stream, consumed once into one mean row per
    utterance before the speaker map is consulted.
    """
    if per_speaker < 1:
        raise ValueError(f"per_speaker must be >= 1, got {per_speaker}")
    if not speaker_map:
        raise ToolkitError("empty speaker map")
    ids, means, by_speaker = speaker_rows(records, speaker_map)
    for speaker_id in speaker_map.values():
        if speaker_id not in by_speaker:
            raise ToolkitError(f"speaker {speaker_id!r} has no utterances in the store")

    cohort = []
    for speaker_id in sorted(by_speaker):
        rows = sorted(by_speaker[speaker_id], key=ids.__getitem__)
        rng = SplitMix64(derive_seed(seed, f"cohort/{speaker_id}"))
        chosen = rng.take(rows, min(per_speaker, len(rows)))
        cohort.append(ChunkEmbeddings(speaker_id, means[chosen].mean(axis=0)[None, :]))
    return cohort


def _top_n_rows(sims: np.ndarray, top_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population std of the ``top_n`` largest entries of each row,
    summed in ascending order. A sum's bits follow its order, and the order
    ``partition`` leaves a top slice in depends on the kernel numpy
    dispatches to for the CPU; a sorted row does not. ``sims`` is sorted in
    place, so the caller must own it."""
    sims.sort(axis=1)
    top = sims[:, sims.shape[1] - top_n:]
    return top.mean(axis=1), top.std(axis=1)


def top_n_stats(cohort_scores: np.ndarray, top_n: int) -> tuple[float, float]:
    """Mean and population std of the ``top_n`` largest cohort scores; the
    caller's array is left as it was."""
    scores = np.array(cohort_scores, dtype=np.float64)  # a copy, sorted in place below
    if scores.ndim != 1 or scores.shape[0] < top_n:
        raise ToolkitError(f"need at least top_n={top_n} cohort scores, got shape {scores.shape}")
    mu, sd = _top_n_rows(scores[None, :], top_n)
    return float(mu[0]), float(sd[0])


def _normalize(raw, mu_e, sd_e, mu_t, sd_t):
    """The AS-Norm formula over scalars or aligned arrays, after checking that
    every raw score is finite and every side's spread is usable."""
    raw, sd_e, sd_t = (np.asarray(v, dtype=np.float64) for v in (raw, sd_e, sd_t))
    if not np.all(np.isfinite(raw)):
        raise ToolkitError(f"non-finite raw score {float(raw[~np.isfinite(raw)][0])!r}")
    small = (sd_e <= 1e-12) | (sd_t <= 1e-12)
    if np.any(small):
        raise DegenerateCohortError(
            f"cohort score spread too small (enroll {float(sd_e[small][0])}, test {float(sd_t[small][0])})"
        )
    return 0.5 * ((raw - mu_e) / sd_e + (raw - mu_t) / sd_t)


def normalize_from_cohort_scores(
    raw: float,
    enroll_cohort_scores: np.ndarray,
    test_cohort_scores: np.ndarray,
    top_n: int,
) -> float:
    """AS-Norm given precomputed per-side cohort score vectors."""
    mu_e, sd_e = top_n_stats(enroll_cohort_scores, top_n)
    mu_t, sd_t = top_n_stats(test_cohort_scores, top_n)
    return float(_normalize(raw, mu_e, sd_e, mu_t, sd_t))


def asnorm_trials(
    raw_scores: np.ndarray,
    pairs: TrialList,
    records: Iterable[ChunkEmbeddings],
    cohort: Iterable[ChunkEmbeddings],
    top_n: int = 100,
) -> np.ndarray:
    """AS-Norm of each scored pair, with the sides' embeddings looked up in
    ``records`` and the cohort rows the mean embeddings of ``cohort``'s records.

    Each is a list or a stream, consumed once, ``cohort`` first: one mean row
    per cohort record is kept, then only the mean embedding of each trial
    side, in the order :func:`~svbackend.scoring.trial_sides` gives, both by
    :func:`~svbackend.scoring.mean_rows`. So a malformed cohort is raised
    before a malformed store, which is raised before a missing side, and the
    cohort's size is checked last. Side rows are scored against the cohort in
    :func:`~svbackend.scoring.blocks` whose similarities fit in
    ``COSINE_BLOCK_BYTES`` (at least one row each), and each block is sorted
    in place and reduced to its rows' top-N mean and std before the next is
    scored.
    """
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    raw_scores = np.asarray(raw_scores, dtype=np.float64)
    if raw_scores.shape != (len(pairs),):
        raise ToolkitError("raw scores and trial pairs must have equal length")
    cohort_rows = mean_rows(enumerate(cohort))
    ids, enroll, test, sides = trial_sides(records, pairs)
    means = mean_rows(sides, len(ids))
    if len(cohort_rows) < top_n:
        raise ToolkitError(f"cohort has {len(cohort_rows)} speakers, need >= top_n={top_n}")
    if not pairs:
        return raw_scores
    mu = np.empty(len(means), dtype=np.float64)
    sd = np.empty(len(means), dtype=np.float64)
    cohort_norms = row_norms(cohort_rows)
    for block in blocks(len(means), 8 * len(cohort_rows)):
        mu[block], sd[block] = _top_n_rows(cosine_matrix(means[block], cohort_rows, cohort_norms), top_n)
    return _normalize(raw_scores, mu[enroll], sd[enroll], mu[test], sd[test])
