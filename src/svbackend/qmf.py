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
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .dataio import AttributeTable, ChunkEmbeddings, MinMaxParams, SchemaColumn, Trial
from .errors import ToolkitError
from .scoring import trial_sides, vector_norm

EMBEDDING_STAT_NAMES = (
    "emb_l1_norm",
    "emb_l2_norm",
    "emb_std_across_dims",
    "emb_mean_of_dim_stds",
    "emb_std_of_dim_stds",
)


@dataclass(frozen=True)
class EmbeddingQmf:
    """Quality statistics of one utterance's chunk embeddings."""

    l1_norm: float
    l2_norm: float
    std_across_dims: float
    mean_of_dim_stds: float
    std_of_dim_stds: float

    def as_tuple(self) -> tuple[float, ...]:
        return (
            self.l1_norm,
            self.l2_norm,
            self.std_across_dims,
            self.mean_of_dim_stds,
            self.std_of_dim_stds,
        )


def embedding_qmf(record: ChunkEmbeddings) -> EmbeddingQmf:
    """L1/L2 norm and component std of the mean embedding, plus the mean and
    std of the per-dimension stds across chunks (population stds throughout)."""
    mean = record.mean_embedding()
    dim_stds = record.chunks.std(axis=0)
    return EmbeddingQmf(
        l1_norm=float(np.abs(mean).sum()),
        l2_norm=vector_norm(mean),
        std_across_dims=float(mean.std()),
        mean_of_dim_stds=float(dim_stds.mean()),
        std_of_dim_stds=float(dim_stds.std()),
    )


@dataclass(frozen=True)
class QmfVector:
    """Named per-trial feature values, post-transform, pre-scaling."""

    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.shape[0] != len(self.names):
            raise ValueError(f"values shape {values.shape} does not match {len(self.names)} names")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate feature names")
        object.__setattr__(self, "values", values)


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


def build_trial_qmf(
    enroll_attrs: Mapping[str, float | str | None],
    enroll_qmf: EmbeddingQmf,
    test_attrs: Mapping[str, float | str | None],
    test_qmf: EmbeddingQmf,
    schema: list[SchemaColumn],
) -> QmfVector:
    """Per-trial quality feature vector. Symmetric in the two sides.

    Categorical columns yield a 0/1 match flag (0 when either side is
    missing). Real columns yield the transformed per-side values paired as
    (min, max); one present side fills both halves, and both sides missing
    yields NaN to be imputed downstream.
    """
    values: list[float] = []
    for col in schema:
        e_val = enroll_attrs.get(col.name)
        t_val = test_attrs.get(col.name)
        if col.kind == "categorical":
            both = e_val is not None and t_val is not None
            values.append(1.0 if both and e_val == t_val else 0.0)
        else:
            present = [_transform_value(v, col) for v in (e_val, t_val) if v is not None]
            if present:
                values.append(min(present))
                values.append(max(present))
            else:
                values.append(math.nan)
                values.append(math.nan)
    for e_stat, t_stat in zip(enroll_qmf.as_tuple(), test_qmf.as_tuple()):
        values.append(min(e_stat, t_stat))
        values.append(max(e_stat, t_stat))
    return QmfVector(names=tuple(feature_names(schema)), values=np.asarray(values))


def trial_feature_matrix(
    trials: list[Trial],
    records: list[ChunkEmbeddings],
    table: AttributeTable,
    schema: list[SchemaColumn],
) -> tuple[list[str], np.ndarray]:
    """Raw (unscaled) QMF matrix for a trial list, one row per trial."""
    names = feature_names(schema)
    side_records, enroll, test = trial_sides(records, trials)
    side_qmf = [embedding_qmf(rec) for rec in side_records]
    matrix = np.empty((len(trials), len(names)), dtype=np.float64)
    for i, trial in enumerate(trials):
        for utt_id in (trial.enroll_id, trial.test_id):
            if utt_id not in table.rows:
                raise ToolkitError(f"utterance {utt_id!r} missing from attribute table")
        vector = build_trial_qmf(
            table.rows[trial.enroll_id],
            side_qmf[enroll[i]],
            table.rows[trial.test_id],
            side_qmf[test[i]],
            schema,
        )
        matrix[i] = vector.values
    return names, matrix


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
        median[j] = np.median(observed)
    return MinMaxParams(names=tuple(names), lo=lo, hi=hi, median=median)


def minmax_apply(matrix: np.ndarray, params: MinMaxParams) -> np.ndarray:
    """Impute NaNs with the fitted medians, then map each feature to [0, 1].

    Values outside the fitted range clamp to 0 or 1; a constant feature
    (lo == hi) maps to 0.5 everywhere.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != len(params.names):
        raise ToolkitError(f"expected a 2-D matrix of {len(params.names)} features, got shape {matrix.shape}")
    filled = np.where(np.isnan(matrix), params.median[None, :], matrix)
    if not np.all(np.isfinite(filled)):
        raise ToolkitError("non-finite feature value")
    span = params.hi - params.lo
    constant = span == 0.0
    safe_span = np.where(constant, 1.0, span)
    scaled = np.clip((filled - params.lo[None, :]) / safe_span[None, :], 0.0, 1.0)
    return np.where(constant[None, :], 0.5, scaled)
