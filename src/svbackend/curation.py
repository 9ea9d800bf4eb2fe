"""Distractor-driven filtering of candidate training speakers.

Each speaker is summarized by the component-wise median of their utterance
mean embeddings (lower-middle element for even counts), L2 normalized. For
every target speaker the top-k most similar source speakers are kept; the
union of those lists is then deduplicated by dropping any source speaker
whose best similarity to a target exceeds the threshold (likely the same
identity). Inputs are canonicalized by speaker id before any computation, so
the output does not depend on input ordering.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .dataio import ChunkEmbeddings, unchecked
from .errors import ToolkitError
from .scoring import blocks, cosine_matrix, row_norms, speaker_rows, vector_norm


@dataclass(frozen=True)
class DdfConfig:
    top_k: int = 50
    dedup_threshold: float = 0.8

    def __post_init__(self):
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if not 0.0 < self.dedup_threshold <= 1.0:
            raise ValueError(f"dedup_threshold must lie in (0, 1], got {self.dedup_threshold}")


@dataclass(frozen=True)
class SpeakerProfile:
    """Unit-norm median embedding for one speaker."""

    speaker_id: str
    median_embedding: np.ndarray

    def __post_init__(self):
        emb = np.asarray(self.median_embedding, dtype=np.float64)
        if emb.ndim != 1 or emb.shape[0] < 1:
            raise ValueError(f"median_embedding must be a 1-D vector, got shape {emb.shape}")
        if not np.all(np.isfinite(emb)):
            raise ValueError("non-finite profile embedding")
        object.__setattr__(self, "median_embedding", emb)


def _lower_median(matrix: np.ndarray) -> np.ndarray:
    """Component-wise lower-middle median over rows ((n-1)//2 after sorting)."""
    ordered = np.sort(matrix, axis=0)
    return ordered[(matrix.shape[0] - 1) // 2]


def median_profile(speaker_id: str, utterance_means) -> SpeakerProfile:
    """Median-of-means speaker profile, L2 normalized, from a list of mean
    embeddings or a matrix of them as rows."""
    if len(utterance_means) == 0:
        raise ToolkitError(f"speaker {speaker_id!r} has no utterances")
    matrix = np.asarray(utterance_means, dtype=np.float64)
    median = _lower_median(matrix)
    norm = vector_norm(median)
    if not norm > 0.0:
        raise ToolkitError(f"zero-norm median embedding for speaker {speaker_id!r}")
    return SpeakerProfile(speaker_id=speaker_id, median_embedding=median / norm)


def profiles_from_store(records: Iterable[ChunkEmbeddings], speaker_map: dict[str, str]) -> list[SpeakerProfile]:
    """One profile per speaker from an embedding store, sorted by speaker id,
    each what :func:`median_profile` gives on the speaker's utterance means.
    ``records`` is a list or a stream, consumed once into one mean row per
    utterance before the speaker map is consulted. Speakers with the same
    utterance count are profiled together, in blocks whose gathered means and
    their sorted copy fit in ``COSINE_BLOCK_BYTES``: one sort along the
    utterance axis and one :func:`~svbackend.scoring.row_norms` per block."""
    _, means, by_speaker = speaker_rows(records, speaker_map)
    speakers = sorted(by_speaker)
    sizes = np.array([len(by_speaker[spk]) for spk in speakers], dtype=np.intp)
    medians = np.empty((len(speakers), means.shape[1]), dtype=np.float64)
    norms = np.empty(len(speakers), dtype=np.float64)
    for size in np.flatnonzero(np.bincount(sizes)).tolist():  # np.unique would import numpy.ma
        members = np.flatnonzero(sizes == size)
        for part in blocks(len(members), 2 * size * means.shape[1] * 8):
            block = members[part]
            utts = np.array([by_speaker[speakers[k]] for k in block.tolist()], dtype=np.intp)
            medians[block] = np.sort(means[utts], axis=1)[:, (size - 1) // 2]  # as _lower_median
            norms[block] = row_norms(medians[block])
    zero = ~(norms > 0.0)
    if zero.any():
        raise ToolkitError(f"zero-norm median embedding for speaker {speakers[int(np.argmax(zero))]!r}")
    medians /= norms[:, None]
    if not np.all(np.isfinite(medians)):  # an overflowed mean; the one SpeakerProfile check these can fail
        raise ValueError("non-finite profile embedding")
    return [unchecked(SpeakerProfile, speaker_id=spk, median_embedding=row) for spk, row in zip(speakers, medians)]


@dataclass(frozen=True)
class DdfSelection:
    speaker_id: str
    max_similarity: float
    nearest_target_id: str


def ddf_select(
    source: list[SpeakerProfile],
    targets: list[SpeakerProfile],
    config: DdfConfig = DdfConfig(),
) -> list[DdfSelection]:
    """Distractor speakers from ``source`` for the given ``targets``.

    Returns the kept selections sorted by speaker id, each with its best
    cosine to any target and the id of that nearest target (lexicographic
    tie break). Every kept similarity is <= the dedup threshold.
    """
    if not source or not targets:
        raise ToolkitError("source and target profile lists must be nonempty")
    source = sorted(source, key=lambda p: p.speaker_id)
    targets = sorted(targets, key=lambda p: p.speaker_id)
    for profiles, role in ((source, "source"), (targets, "target")):
        if any(p.speaker_id == q.speaker_id for p, q in itertools.pairwise(profiles)):  # equal ids sort together
            raise ToolkitError(f"duplicate {role} speaker ids")
    src_matrix = np.stack([p.median_embedding for p in source])
    for p in targets:
        if p.median_embedding.shape[0] != src_matrix.shape[1]:
            raise ToolkitError(
                f"profile dim mismatch: source {src_matrix.shape[1]}, target {p.median_embedding.shape[0]}"
            )

    # Target rows are stacked and scored a block at a time, so the targets are never copied
    # whole, with blocks whose similarities fit in COSINE_BLOCK_BYTES. A block's
    # best only replaces a strictly smaller one, so the first (smallest-id) target wins ties.
    # Index order is id order, so a stable sort of each negated row ranks ties by source id;
    # the block is negated in place, after its maxima are taken, to hold no second copy, and
    # released before the next block is scored.
    k = min(config.top_k, len(source))
    candidate = np.zeros(len(source), dtype=bool)
    best_sim = np.full(len(source), -np.inf)
    nearest = np.zeros(len(source), dtype=np.intp)
    src_norms = row_norms(src_matrix)
    for rows in blocks(len(targets), 8 * len(source)):
        block = np.stack([p.median_embedding for p in targets[rows]])
        sims = cosine_matrix(block, src_matrix, src_norms)
        block_best = sims.max(axis=0)
        better = block_best > best_sim
        best_sim[better] = block_best[better]
        nearest[better] = rows.start + sims.argmax(axis=0)[better]
        candidate[np.argsort(np.negative(sims, out=sims), axis=1, kind="stable")[:, :k]] = True
        del sims
    return [
        DdfSelection(
            speaker_id=source[j].speaker_id,
            max_similarity=float(best_sim[j]),
            nearest_target_id=targets[nearest[j]].speaker_id,
        )
        for j in np.flatnonzero(candidate & (best_sim <= config.dedup_threshold))
    ]
