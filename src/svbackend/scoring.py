"""Trial scoring from per-chunk embeddings.

A trial score is the mean cosine similarity over the full cross product of
enroll chunks and test chunks. The mean uses ``math.fsum`` (exact compensated
summation). Every dot product, in :func:`cosine`, :func:`cosine_matrix` and
:func:`score_trials`, is one kernel, :func:`dots`: ``np.einsum`` summing the
contiguous last axis in fixed pieces, so a pair's dot product is the same
double in every form and on every CPU this was checked on, and swapping
enroll and test yields the identical double, bit for bit. :func:`score_trials`
scores a whole trial list with one batched kernel, and :func:`pairwise_score`
is that kernel on one trial. :func:`trial_sides`, the one lookup of trial
sides in a store, serves scoring, AS-Norm and QMF. :func:`gather_blocks`
stacks a stream of records into blocks of one chunk shape, so the store
kernels reduce each block, not each record, to its per-utterance summaries,
as :func:`mean_rows` does.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .dataio import ChunkEmbeddings, RowBuffer, TrialList
from .errors import ToolkitError

# Bytes one block of temporaries may hold, the one budget of every blocked kernel: the
# similarities of cosine_matrix and score_trials (and, in score_trials, the chunks gathered
# for them), asnorm's and curation's blocks of similarity rows, the records gather_blocks
# stacks, curation's blocks of speaker means, qmf's gathered side rows, the feature
# writer's blocks of rows, the score and feature readers' blocks of tokens, and the pieces
# of fusion's sum of squares. The dot products themselves make no temporary. A stage
# peaks at its inputs and outputs plus a few such blocks; larger blocks raise that peak.
COSINE_BLOCK_BYTES = 1 << 18


def per_block(item_bytes: int) -> int:
    """Items of ``item_bytes`` bytes each that one block holds within
    ``COSINE_BLOCK_BYTES``, read when called, and at least one."""
    return max(1, COSINE_BLOCK_BYTES // max(1, item_bytes))


def blocks(n: int, item_bytes: int) -> Iterator[slice]:
    """The slices that split ``range(n)`` in order into blocks of
    :func:`per_block` items."""
    step = per_block(item_bytes)
    for start in range(0, n, step):
        yield slice(start, start + step)


# Columns one einsum call sums. Past about 8 192 columns einsum's iterator splits a sum
# where its buffer ends, so the split, and the bits, would follow the operands' shapes.
DOT_PIECE = 4096


def dots(spec: str, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None):
    """``np.einsum(spec, a, b, out=out)`` for a ``spec`` that sums over the
    last axis of ``a`` and ``b``, such as ``"ij,kj->ik"``, taken over pieces of
    ``DOT_PIECE`` columns whose sums are added in order.

    einsum's inner loop sums one pair's products along the contiguous last
    axis with the same instructions whatever the other axes hold, so each dot
    product is the same double in every form: the 1-D one, a block of rows
    against another, and a batch of blocks, with either operand first. No
    (rows, cols, dim) product is formed."""
    out = np.einsum(spec, a[..., :DOT_PIECE], b[..., :DOT_PIECE], out=out)
    for start in range(DOT_PIECE, a.shape[-1], DOT_PIECE):
        piece = slice(start, start + DOT_PIECE)
        out += np.einsum(spec, a[..., piece], b[..., piece])
    return out


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
    value = float(dots("j,j->", u, v)) / (nu * nv)
    return min(1.0, max(-1.0, value))


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, as a sum of squares over the contiguous last axis."""
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    return np.sqrt(np.sum(rows * rows, axis=1))


def cosine_matrix(rows_a: np.ndarray, rows_b: np.ndarray, norms_b: np.ndarray | None = None) -> np.ndarray:
    """Cosines between every row of ``rows_a`` and every row of ``rows_b``.

    Entry (i, j) is bit-identical to ``cosine(rows_a[i], rows_b[j])``, since
    both take the dot product with :func:`dots` and the norms as sums of
    squares over the contiguous last axis, and the result is symmetric under
    swapping the two inputs (entry (i, j) becomes entry (j, i) with the same
    value).

    The dot products are written straight into the result, a block of
    ``rows_a`` at a time, so that each block's norm products, the one
    temporary, fit in ``COSINE_BLOCK_BYTES`` (at least one row).

    A caller that scores many blocks of rows against one ``rows_b`` passes
    ``norms_b = row_norms(rows_b)`` so that they are computed once.
    """
    a = np.ascontiguousarray(rows_a, dtype=np.float64)
    b = np.ascontiguousarray(rows_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ToolkitError(f"cosine_matrix requires matching row dims, got shapes {a.shape} and {b.shape}")
    norms_a = row_norms(a)
    norms_b = row_norms(b) if norms_b is None else norms_b
    if not (np.all(norms_a > 0.0) and np.all(norms_b > 0.0)):
        raise ToolkitError("cosine undefined for zero-norm vector")
    sims = np.empty((a.shape[0], b.shape[0]), dtype=np.float64)
    for rows in blocks(a.shape[0], 8 * b.shape[0]):
        block = dots("ij,kj->ik", a[rows], b, out=sims[rows])
        block /= norms_a[rows, None] * norms_b
    np.clip(sims, -1.0, 1.0, out=sims)
    return sims


@dataclass(frozen=True)
class PairwiseScore:
    value: float
    n_pairs: int


def pairwise_score(enroll: ChunkEmbeddings, test: ChunkEmbeddings) -> PairwiseScore:
    """Mean cosine over all (enroll chunk, test chunk) pairs: :func:`score_trials`
    for one trial.

    Exactly symmetric: ``pairwise_score(a, b).value == pairwise_score(b, a).value``
    as doubles, since per-pair cosines are swap-invariant and ``math.fsum`` is
    order independent.
    """
    sides = np.array([0], dtype=np.intp), np.array([1], dtype=np.intp)
    value = float(_score_sides([enroll, test], *sides)[0])
    return PairwiseScore(value=value, n_pairs=enroll.n_chunks * test.n_chunks)


def trial_sides(
    records: Iterable[ChunkEmbeddings], trials: TrialList
) -> tuple[list[str], np.ndarray, np.ndarray, Iterator[tuple[int, ChunkEmbeddings]]]:
    """The utterances the trials reference, each once in order of first
    appearance (enroll before test within a trial), each trial's enroll and
    test row in that list, and a stream of (row, record) for the first record
    of each, taken from ``records`` (a list or a stream, consumed once) as it
    gives them. Once ``records`` ends, the stream raises for the first
    utterance, in row order, that it did not find."""
    order = dict.fromkeys(itertools.chain.from_iterable(zip(trials.enroll, trials.test)))
    rows = {utt_id: row for row, utt_id in enumerate(order)}
    enroll, test = (np.fromiter(map(rows.__getitem__, ids), dtype=np.intp, count=len(ids))
                    for ids in (trials.enroll, trials.test))

    def sides():
        for rec in records:
            row = rows.pop(rec.utt_id, None)  # what stays in rows is missing
            if row is not None:
                yield row, rec
        for utt_id in rows:
            raise ToolkitError(f"utterance {utt_id!r} missing from embedding store")

    return list(rows), enroll, test, sides()


def gather_blocks(sides: Iterable[tuple[int, ChunkEmbeddings]]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(rows, block) for the records of ``sides``, a stream of (row, record)
    pairs: ``block`` is the C-ordered (len(rows), n_chunks, dim) stack of the
    chunks of the records given with ``rows``, which share one shape.

    Records are gathered by chunk shape as they come. Whenever one more
    record's chunks and a temporary of their size would pass
    ``COSINE_BLOCK_BYTES`` (at least one record each), each shape's records
    are stacked and yielded, in the order of their first record, and let go.
    A reduction over a block's chunk axis or its contiguous last axis gives
    each record the bits it gives on the record alone, whatever else is in
    the block."""
    pending: dict[tuple[int, int], tuple[list[int], list[np.ndarray]]] = {}
    held = 0
    for row, rec in sides:
        chunks = rec.chunks
        if held and 2 * (held + chunks.nbytes) > COSINE_BLOCK_BYTES:
            for rows, stack in pending.values():
                yield np.array(rows, dtype=np.intp), np.array(stack)  # np.array stacks C-ordered
            pending, held = {}, 0
        rows, stack = pending.setdefault(chunks.shape, ([], []))
        rows.append(row)
        stack.append(chunks)
        held += chunks.nbytes
    for rows, stack in pending.values():
        yield np.array(rows, dtype=np.intp), np.array(stack)


def mean_rows(sides: Iterable[tuple[int, ChunkEmbeddings]], n_rows: int = 0) -> np.ndarray:
    """The mean embedding of each record of ``sides``, a stream of (row,
    record) pairs, in that row of one matrix, made for ``n_rows`` rows. The
    means of a block of :func:`gather_blocks` are taken with one call and
    written into their rows of the matrix, which grows in place, so no more
    than one block of records is held. The records must share one dim; the
    first that does not is raised with the stream's first record."""

    def checked():
        first = None
        for row, rec in sides:
            if first is None:
                first = rec
            elif rec.dim != first.dim:
                raise ToolkitError(
                    f"embedding dim mismatch: {first.utt_id!r} has {first.dim}, {rec.utt_id!r} has {rec.dim}")
            yield row, rec

    means = None
    for rows, block in gather_blocks(checked()):
        if means is None:
            means = RowBuffer(block.shape[2], rows=n_rows)
        means.grow(int(rows.max()) + 1)[rows] = block.mean(axis=1)
    return np.empty((0, 0)) if means is None else means.take()


def speaker_rows(
    records: Iterable[ChunkEmbeddings], speaker_map: dict[str, str]
) -> tuple[list[str], np.ndarray, dict[str, list[int]]]:
    """The ids of ``records`` and their :func:`mean_rows`, both in stream
    order, and each speaker's rows, in that order. ``records`` is a list or
    a stream, consumed once before the speaker map is consulted."""
    ids: list[str] = []

    def numbered():
        for rec in records:
            ids.append(rec.utt_id)
            yield len(ids) - 1, rec

    means = mean_rows(numbered())
    by_speaker: dict[str, list[int]] = {}
    for row, utt_id in enumerate(ids):
        if utt_id not in speaker_map:
            raise ToolkitError(f"utterance {utt_id!r} missing from speaker map")
        by_speaker.setdefault(speaker_map[utt_id], []).append(row)
    return ids, means, by_speaker


def score_trials(records: Iterable[ChunkEmbeddings], trials: TrialList) -> np.ndarray:
    """Pairwise scores for a trial list, in trial order, from a list or a
    stream of records of which only those the trials reference are kept.
    ``trials`` may also be a sequence of ``dataio.Trial`` records, the form
    the benchmark's swap-symmetry check passes; no other function takes it."""
    if not isinstance(trials, TrialList):
        trials = TrialList([t.enroll_id for t in trials], [t.test_id for t in trials])
    ids, enroll, test, sides = trial_sides(records, trials)
    side_records: list = [None] * len(ids)
    for row, rec in sides:
        side_records[row] = rec
    return _score_sides(side_records, enroll, test)


def _score_sides(side_records: list[ChunkEmbeddings], enroll: np.ndarray, test: np.ndarray) -> np.ndarray:
    """Mean chunk-pair cosine of ``side_records[enroll[i]]`` against
    ``side_records[test[i]]`` for every trial i.

    Each side's chunk norms are computed once. Trials are grouped by their
    (enroll chunks, test chunks, dim) shape, and each group is scored in
    blocks of trials whose gathered chunks and similarities fit in
    ``COSINE_BLOCK_BYTES`` (at least one trial), with one batched
    :func:`dots` per block. Every cosine is the same dot product, division
    and clip as in :func:`cosine_matrix`, and every score the same
    ``math.fsum`` over them divided by the pair count, so a trial's score is
    the same double whatever else is scored with it.
    """
    if not side_records:
        return np.empty(0, dtype=np.float64)
    # every side's chunk norms in one vector, side k's from offsets[k]
    counts = np.array([rec.n_chunks for rec in side_records], dtype=np.intp)
    offsets = np.cumsum(counts) - counts
    norms = np.empty(int(counts.sum()), dtype=np.float64)
    for sides, block in gather_blocks(enumerate(side_records)):
        n_sides, n_chunks, dim = block.shape
        norms[offsets[sides, None] + np.arange(n_chunks)] = row_norms(block.reshape(-1, dim)).reshape(n_sides, n_chunks)
    dims = np.array([rec.dim for rec in side_records], dtype=np.intp)
    zero = ~(np.minimum.reduceat(norms, offsets) > 0.0)
    bad = (dims[enroll] != dims[test]) | zero[enroll] | zero[test]
    if bad.any():
        first = int(np.argmax(bad))
        e, t = side_records[enroll[first]], side_records[test[first]]
        if e.dim != t.dim:
            raise ToolkitError(f"embedding dim mismatch: {e.utt_id!r} has {e.dim}, {t.utt_id!r} has {t.dim}")
        raise ToolkitError("cosine undefined for zero-norm vector")

    scores = np.empty(len(enroll), dtype=np.float64)
    # each side's (chunks, dim) shape as a code, and each trial's as the pair of its sides'
    # codes: one integer per trial, whose groups are the (n_e, n_t, dim) shapes
    shapes, side_code = np.unique(np.stack([counts, dims], axis=1), axis=0, return_inverse=True)
    side_code = side_code.ravel()
    trial_code = side_code[enroll] * len(shapes)
    trial_code += side_code[test]
    for code in np.flatnonzero(np.bincount(trial_code, minlength=len(shapes) ** 2)).tolist():
        members = np.flatnonzero(trial_code == code)
        (n_e, dim), (n_t, _) = shapes[code // len(shapes)].tolist(), shapes[code % len(shapes)].tolist()
        for part in blocks(members.size, ((n_e + n_t) * dim + n_e * n_t) * 8):
            block = members[part]
            # np.array builds C-ordered blocks (np.stack would keep a Fortran-ordered record's
            # layout), so every dot product below runs over a contiguous last axis
            e_chunks = np.array([side_records[i].chunks for i in enroll[block].tolist()])
            t_chunks = np.array([side_records[i].chunks for i in test[block].tolist()])
            e_norms = norms[offsets[enroll[block], None] + np.arange(n_e)]
            t_norms = norms[offsets[test[block], None] + np.arange(n_t)]
            sims = dots("bij,bkj->bik", e_chunks, t_chunks)
            sims /= e_norms[:, :, None] * t_norms[:, None, :]
            np.clip(sims, -1.0, 1.0, out=sims)
            n_pairs = n_e * n_t
            scores[block] = [math.fsum(row) / n_pairs for row in sims.reshape(block.size, n_pairs).tolist()]
    return scores

