"""Trial scoring from per-chunk embeddings.

A trial score is the mean cosine similarity over the full cross product of
enroll chunks and test chunks. The mean uses ``math.fsum`` (exact compensated
summation), and each pair's cosine is computed with the same elementwise
multiply + axis sum on both sides, so swapping enroll and test yields the
identical double, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dataio
from .dataio import ChunkEmbeddings, Trial
from .errors import ToolkitError

# Bytes of elementwise products cosine_matrix forms at once; larger blocks raise peak memory.
COSINE_BLOCK_BYTES = 1 << 20


def vector_norm(v: np.ndarray) -> float:
    """Euclidean norm via sum of squares (no BLAS, deterministic)."""
    return math.sqrt(float(np.sum(v * v)))


def cosine(u, v) -> float:
    """Cosine similarity of two 1-D vectors, clamped to [-1, 1]."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.ndim != 1 or v.ndim != 1 or u.shape != v.shape:
        raise ToolkitError(f"cosine requires two equal-length vectors, got shapes {u.shape} and {v.shape}")
    nu = vector_norm(u)
    nv = vector_norm(v)
    if not (nu > 0.0 and nv > 0.0):
        raise ToolkitError("cosine undefined for zero-norm vector")
    value = float(np.sum(u * v)) / (nu * nv)
    return min(1.0, max(-1.0, value))


def cosine_matrix(rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
    """Cosines between every row of ``rows_a`` and every row of ``rows_b``.

    Entry (i, j) is bit-identical to ``cosine(rows_a[i], rows_b[j])`` because
    the reduction runs over the contiguous last axis exactly as in the scalar
    path, and the result is symmetric under swapping the two inputs (entry
    (i, j) becomes entry (j, i) with the same value).

    Products are formed for blocks of ``rows_a`` within ``COSINE_BLOCK_BYTES``
    (at least one row each). Blocking splits only the row axis, so each entry
    is still the same last-axis sum and stays bit-identical.
    """
    a = np.ascontiguousarray(rows_a, dtype=np.float64)
    b = np.ascontiguousarray(rows_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ToolkitError(f"cosine_matrix requires matching row dims, got shapes {a.shape} and {b.shape}")
    norms_a = np.sqrt(np.sum(a * a, axis=1))
    norms_b = np.sqrt(np.sum(b * b, axis=1))
    if not (np.all(norms_a > 0.0) and np.all(norms_b > 0.0)):
        raise ToolkitError("cosine undefined for zero-norm vector")
    sims = np.empty((a.shape[0], b.shape[0]), dtype=np.float64)
    step = max(1, COSINE_BLOCK_BYTES // max(1, b.size * 8))
    for start in range(0, a.shape[0], step):
        rows = slice(start, start + step)
        dots = (a[rows, None, :] * b[None, :, :]).sum(axis=2)
        sims[rows] = dots / (norms_a[rows, None] * norms_b[None, :])
    np.clip(sims, -1.0, 1.0, out=sims)
    return sims


def mean_embedding(record: ChunkEmbeddings) -> np.ndarray:
    """Component-wise mean of the chunk embeddings, not renormalized."""
    return record.chunks.mean(axis=0)


@dataclass(frozen=True)
class PairwiseScore:
    value: float
    n_pairs: int


def pairwise_score(enroll: ChunkEmbeddings, test: ChunkEmbeddings) -> PairwiseScore:
    """Mean cosine over all (enroll chunk, test chunk) pairs.

    Exactly symmetric: ``pairwise_score(a, b).value == pairwise_score(b, a).value``
    as doubles, since per-pair cosines are swap-invariant and ``math.fsum`` is
    order independent.
    """
    if enroll.dim != test.dim:
        raise ToolkitError(
            f"embedding dim mismatch: {enroll.utt_id!r} has {enroll.dim}, {test.utt_id!r} has {test.dim}"
        )
    sims = cosine_matrix(enroll.chunks, test.chunks)
    n_pairs = sims.size
    value = math.fsum(sims.ravel()) / n_pairs
    return PairwiseScore(value=value, n_pairs=n_pairs)


def trial_sides(
    records: list[ChunkEmbeddings], trials: list[Trial]
) -> tuple[list[ChunkEmbeddings], np.ndarray, np.ndarray]:
    """The records the trials reference, each once in order of first
    appearance, and each trial's enroll and test row in that list."""
    store = dataio.embeddings_by_id(records)  # through the module, so perfbench's tracer sees the call
    rows: dict[str, int] = {}
    sides = np.empty((2, len(trials)), dtype=np.intp)
    for i, trial in enumerate(trials):
        for side, utt_id in enumerate((trial.enroll_id, trial.test_id)):
            if utt_id not in rows:
                if utt_id not in store:
                    raise ToolkitError(f"utterance {utt_id!r} missing from embedding store")
                rows[utt_id] = len(rows)
            sides[side, i] = rows[utt_id]
    return [store[utt_id] for utt_id in rows], sides[0], sides[1]


def score_trials(records: list[ChunkEmbeddings], trials: list[Trial]) -> np.ndarray:
    """Pairwise scores for a trial list, in trial order."""
    side_records, enroll, test = trial_sides(records, trials)
    return np.array([pairwise_score(side_records[e], side_records[t]).value for e, t in zip(enroll, test)])
