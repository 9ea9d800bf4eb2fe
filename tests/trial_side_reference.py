"""Reference copies of the trial-side stages as they were before they became
array kernels: QMF built one trial at a time from per-record statistics,
AS-Norm side statistics one cohort row at a time, and ddf ranking each target
row with a Python sort key. The tests compare the kernels against these."""

import itertools
import math

import numpy as np

from svbackend.curation import DdfSelection
from svbackend.errors import ToolkitError
from svbackend.qmf import feature_names
from svbackend.scoring import cosine_matrix, vector_norm


def embedding_qmf(record) -> tuple[float, ...]:
    """L1/L2 norm and component std of the mean embedding, plus the mean and
    std of the per-dimension stds across chunks (population stds throughout)."""
    mean = record.chunks.mean(axis=0)
    dim_stds = record.chunks.std(axis=0)
    return (
        float(np.abs(mean).sum()),
        vector_norm(mean),
        float(mean.std()),
        float(dim_stds.mean()),
        float(dim_stds.std()),
    )


def _transform_value(value, col):
    if col.transform == "identity":
        return value
    if value <= -1.0:
        raise ToolkitError(f"log1p undefined for {col.name}={value}")
    return math.log1p(value)


def build_trial_qmf(enroll_attrs, enroll_qmf, test_attrs, test_qmf, schema) -> np.ndarray:
    """One trial's feature row. Python's min/max keep the first of two equal
    values, so a tie of 0.0 and -0.0 gives bytes that follow side order."""
    values = []
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
    for e_stat, t_stat in zip(enroll_qmf, test_qmf):
        values.append(min(e_stat, t_stat))
        values.append(max(e_stat, t_stat))
    return np.asarray(values, dtype=np.float64)


def trial_feature_matrix(trials, records, table, schema, swap=False):
    """The per-trial loop over the first record of each id in ``records``;
    ``swap`` builds every row with its sides exchanged."""
    names = feature_names(schema)
    by_id = {}
    for rec in records:
        by_id.setdefault(rec.utt_id, rec)
    for utt_id in itertools.chain.from_iterable(zip(trials.enroll, trials.test)):
        if utt_id not in by_id:
            raise ToolkitError(f"utterance {utt_id!r} missing from embedding store")
    matrix = np.empty((len(trials), len(names)), dtype=np.float64)
    for i, (e, t) in enumerate(zip(trials.enroll, trials.test)):
        for utt_id in (e, t):
            if utt_id not in table.rows:
                raise ToolkitError(f"utterance {utt_id!r} missing from attribute table")
        sides = [(table.rows[e], embedding_qmf(by_id[e])), (table.rows[t], embedding_qmf(by_id[t]))]
        if swap:
            sides.reverse()
        matrix[i] = build_trial_qmf(*sides[0], *sides[1], schema)
    return names, matrix


def top_n_stats(scores, top_n):
    """Mean and population std of the ``top_n`` largest entries of one row,
    in ascending order."""
    if top_n < scores.shape[0]:
        top = np.sort(np.partition(scores, scores.shape[0] - top_n)[-top_n:])
    else:
        top = np.sort(scores)
    return float(top.mean()), float(top.std())


def side_stats(side_means, cohort_embeddings, top_n):
    """Per-side (mu, sd) from the whole side-by-cohort matrix, one row at a time."""
    sims = cosine_matrix(side_means, cohort_embeddings)
    mu, sd = np.array([top_n_stats(row, top_n) for row in sims]).T
    return mu, sd


def ddf_select(source, targets, config):
    """ddf with the whole target-by-source matrix and a sort key per target row."""
    source = sorted(source, key=lambda p: p.speaker_id)
    targets = sorted(targets, key=lambda p: p.speaker_id)
    sims = cosine_matrix(np.stack([p.median_embedding for p in targets]),
                         np.stack([p.median_embedding for p in source]))
    src_ids = [p.speaker_id for p in source]
    candidate_idx = set()
    k = min(config.top_k, len(source))
    for row in sims:
        ranked = sorted(range(len(source)), key=lambda j: (-row[j], src_ids[j]))
        candidate_idx.update(ranked[:k])
    best_sim = sims.max(axis=0)
    nearest = sims.argmax(axis=0)
    kept = []
    for j in sorted(candidate_idx):
        if best_sim[j] > config.dedup_threshold:
            continue
        kept.append(DdfSelection(src_ids[j], float(best_sim[j]), targets[int(nearest[j])].speaker_id))
    kept.sort(key=lambda s: s.speaker_id)
    return kept
