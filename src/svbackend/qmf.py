"""Quality measure features for trials.

Per-utterance inputs are side attributes (signal quality, demographics,
lengths and so on) plus statistics of the utterance's own chunk embeddings.
Each trial feature must not depend on which side is enroll and which is
test: real-valued side quantities are paired as (min, max) over the two
sides and categorical ones become match indicators.

Feature layout for a schema: attribute columns in schema order
(``<name>_match`` for categorical columns, ``<name>_min`` and ``<name>_max``
for real ones), then the five embedding statistics, each paired as min/max.
Real features can be missing (NaN); they are imputed with stored medians
when scaling. A match feature is 0 unless both sides are present and equal,
so it is never missing.

Min and max are byte-symmetric too: on a tie of zeros the min is -0.0 if
either side is -0.0 and the max is +0.0 if either side is +0.0.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from .dataio import AttributeTable, ChunkEmbeddings, MinMaxParams, SchemaColumn, TrialList
from .errors import ToolkitError
from .scoring import blocks, gather_blocks, row_norms, trial_sides

EMBEDDING_STAT_NAMES = (
    "emb_l1_norm",
    "emb_l2_norm",
    "emb_std_across_dims",
    "emb_mean_of_dim_stds",
    "emb_std_of_dim_stds",
)


def feature_names(schema: list[SchemaColumn]) -> list[str]:
    names = []
    for col in schema:
        if col.kind == "categorical":
            names.append(f"{col.name}_match")
        else:
            names.append(f"{col.name}_min")
            names.append(f"{col.name}_max")
    for stat in EMBEDDING_STAT_NAMES:
        names.append(f"{stat}_min")
        names.append(f"{stat}_max")
    return names


def _transform_value(value: float, col: SchemaColumn) -> float:
    if col.transform == "identity":
        return value
    # log1p: defined for value > -1, used for nonnegative lengths
    if value <= -1.0:
        raise ToolkitError(f"log1p undefined for {col.name}={value}")
    return math.log1p(value)


def _side_stats(sides: Iterable[tuple[int, ChunkEmbeddings]], out: np.ndarray) -> None:
    """Write the statistics of ``EMBEDDING_STAT_NAMES`` of each (row, record)
    of ``sides`` into that row of ``out``: L1/L2 norm and component std of the
    mean embedding, then the mean and std of the per-dimension stds across
    chunks (population stds throughout).

    Each block of records of one shape that
    :func:`~svbackend.scoring.gather_blocks` stacks is reduced with one call
    per statistic. Every statistic is a reduction over the chunk axis or the
    contiguous last axis, as it would be on a lone record, so a row does not
    depend on what else is in its block.
    """
    for rows, block in gather_blocks(sides):
        mean = block.mean(axis=1)
        dim_stds = block.std(axis=1)
        out[rows, 0] = np.abs(mean).sum(axis=1)
        out[rows, 1] = row_norms(mean)
        out[rows, 2] = mean.std(axis=1)
        out[rows, 3] = dim_stds.mean(axis=1)
        out[rows, 4] = dim_stds.std(axis=1)


def _min_max(e: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial (min, max) of two aligned side columns, NaN meaning missing:
    one present side fills both halves and two missing sides stay NaN. On a
    tie of zeros the min is -0.0 if either side is -0.0 and the max is +0.0
    if either side is +0.0, so the bytes do not depend on side order."""
    lo, hi = np.fmin(e, t), np.fmax(e, t)
    zeros = (e == 0.0) & (t == 0.0)
    lo[zeros] = np.where(np.signbit(e[zeros]) | np.signbit(t[zeros]), -0.0, 0.0)
    hi[zeros] = np.where(np.signbit(e[zeros]) & np.signbit(t[zeros]), -0.0, 0.0)
    return lo, hi


def trial_feature_matrix(
    trials: TrialList,
    records: Iterable[ChunkEmbeddings],
    table: AttributeTable,
    schema: list[SchemaColumn],
) -> tuple[list[str], np.ndarray]:
    """Raw (unscaled) QMF matrix for a trial list, one row per trial.

    Each unique trial side gets one row of transformed reals (NaN when
    missing), categorical codes (-1 when missing) and embedding statistics;
    the trial columns are gathers of its two sides' rows, made for blocks of
    trials whose two gathered side rows fit in ``COSINE_BLOCK_BYTES``.
    ``records`` is a list or a stream, consumed once; only the embedding
    statistics of each side are kept.
    """
    side_ids, enroll, test, sides = trial_sides(records, trials)
    side = np.empty((len(side_ids), len(schema) + len(EMBEDDING_STAT_NAMES)), dtype=np.float64)
    _side_stats(sides, side[:, len(schema):])
    rows = []
    for utt_id in side_ids:
        if utt_id not in table.rows:
            raise ToolkitError(f"utterance {utt_id!r} missing from attribute table")
        rows.append(table.rows[utt_id])
    for c, col in enumerate(schema):
        values = [row.get(col.name) for row in rows]
        if col.kind == "categorical":
            codes: dict[float | str, int] = {}
            side[:, c] = [-1 if v is None else codes.setdefault(v, len(codes)) for v in values]
        else:
            side[:, c] = [math.nan if v is None else _transform_value(v, col) for v in values]
    names = feature_names(schema)
    matrix = np.empty((len(enroll), len(names)), dtype=np.float64)
    kinds = [col.kind for col in schema] + ["real"] * len(EMBEDDING_STAT_NAMES)
    for rows in blocks(len(enroll), 2 * side.shape[1] * 8):
        _pair_sides(matrix[rows], side[enroll[rows]], side[test[rows]], kinds)
    return names, matrix


def _pair_sides(out: np.ndarray, e: np.ndarray, t: np.ndarray, kinds: list[str]) -> None:
    """Write the trial columns of aligned enroll and test side rows into ``out``:
    a match flag per categorical side column and a (min, max) pair per real one."""
    j = 0
    for c, kind in enumerate(kinds):
        if kind == "categorical":
            out[:, j] = (e[:, c] == t[:, c]) & (e[:, c] >= 0)
            j += 1
        else:
            out[:, j], out[:, j + 1] = _min_max(e[:, c], t[:, c])
            j += 2


# ---------------------------------------------------------------------------
# Min-max scaling with median imputation


def minmax_fit(matrix: np.ndarray, names: list[str]) -> MinMaxParams:
    """Per-feature (lo, hi) range and median over the observed (non-NaN) values."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != len(names):
        raise ToolkitError(f"matrix shape {matrix.shape} does not match {len(names)} features")
    if matrix.shape[0] < 1:
        raise ToolkitError("cannot fit scaling on an empty matrix")
    lo = np.empty(len(names))
    hi = np.empty(len(names))
    median = np.empty(len(names))
    for j, name in enumerate(names):
        column = matrix[:, j]
        observed = column[np.isfinite(column)]
        if observed.shape[0] == 0:
            raise ToolkitError(f"feature {name!r} has no observed values")
        lo[j] = observed.min()
        hi[j] = observed.max()
        median[j] = _median(observed)
    return MinMaxParams(names=tuple(names), lo=lo, hi=hi, median=median)


def _median(observed: np.ndarray) -> float:
    """``np.median`` of a finite vector, bit for bit: the same partition and
    mean, without the NaN check on the partition that imports numpy.ma."""
    half = observed.shape[0] // 2
    if observed.shape[0] % 2:
        return np.mean(np.partition(observed, [half, -1])[half:half + 1])
    return np.mean(np.partition(observed, [half - 1, half, -1])[half - 1:half + 1])


def minmax_apply(matrix: np.ndarray, params: MinMaxParams) -> np.ndarray:
    """Impute NaNs with the fitted medians, then map each feature to [0, 1],
    in place: a float64 array given is scaled and returned, its raw values
    used up, so the matrix is never copied.

    Values outside the fitted range clamp to 0 or 1; a constant feature
    (lo == hi) maps to 0.5 everywhere.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != len(params.names):
        raise ToolkitError(f"expected a 2-D matrix of {len(params.names)} features, got shape {matrix.shape}")
    np.copyto(matrix, params.median[None, :], where=np.isnan(matrix))
    if not np.all(np.isfinite(matrix)):
        raise ToolkitError("non-finite feature value")
    span = params.hi - params.lo
    constant = span == 0.0
    matrix -= params.lo[None, :]
    matrix /= np.where(constant, 1.0, span)[None, :]
    np.clip(matrix, 0.0, 1.0, out=matrix)
    matrix[:, constant] = 0.5
    return matrix
