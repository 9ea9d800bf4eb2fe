"""Checks of every stage's output against computations made here.

Nothing in this file calls the program's maths except the swap check on
scores, which asks the program's own scorer for swapped trials and requires
the identical double (a property of the method, not a copy of its output).
Files are parsed with plain ``str.split``/``csv``/``json``; sums, norms,
top-N statistics and the fusion optimum are computed independently.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from pathlib import Path

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from workloads import DEDUP, Layout, Workload

SAMPLE = 200  # trials recomputed per sampled check
FUSION_TOL = 1e-5  # nats the fitted objective may sit above (or below) the reference optimum


class CheckFailed(Exception):
    pass


def require(condition, message: str) -> None:
    """Fail a check; unlike ``assert`` this also holds under ``python -O``."""
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Independent file parsers


def read_store(path: Path) -> dict[str, np.ndarray]:
    out = {}
    with open(path, encoding="utf-8") as handle:
        dim = int(handle.readline().strip().removeprefix("dim="))
        for line in handle:
            tokens = line.split()
            out[tokens[0]] = np.array(tokens[2:], dtype=np.float64).reshape(int(tokens[1]), dim)
    return out


def read_columns(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8") as handle:
        return [line.split() for line in handle]


def read_trials(path: Path) -> tuple[list[tuple[str, str]], np.ndarray]:
    rows = read_columns(path)
    return [(r[1], r[2]) for r in rows], np.array([r[0] == "1" for r in rows])


def read_scores(path: Path) -> tuple[list[tuple[str, str]], np.ndarray]:
    rows = read_columns(path)
    return [(r[0], r[1]) for r in rows], np.array([float(r[2]) for r in rows])


def read_speakers(path: Path) -> dict[str, str]:
    return {utt: spk for utt, spk in read_columns(path)}


def read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def read_feature_csv(path: Path) -> tuple[list[str], list[tuple[str, str]], np.ndarray]:
    rows = read_csv(path)
    matrix = np.array([[math.nan if c == "" else float(c) for c in r[2:]] for r in rows[1:]])
    return rows[0][2:], [(r[0], r[1]) for r in rows[1:]], matrix


def utterance_means(store: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {utt: chunks.sum(axis=0) / chunks.shape[0] for utt, chunks in store.items()}


def unit_rows(matrix: np.ndarray) -> np.ndarray:
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


def _close(a, b, tol: float) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all((np.isnan(a) & np.isnan(b)) | (np.abs(a - b) <= tol)))


# ---------------------------------------------------------------------------
# Per-stage checks. Each returns a short detail string and raises
# CheckFailed (or anything else) on failure.


class Oracle:
    """Checks one round's outputs; the parsed inputs are shared across checks."""

    def __init__(self, w: Workload, seed: int, layout: Layout, program_score):
        self.w, self.seed, self.layout = w, seed, layout
        self.program_score = program_score  # (store, pairs) -> scores, the program's scorer
        d = layout.data
        self.store = read_store(d / "embeddings.txt")
        self.means = utterance_means(self.store)
        self.speakers = read_speakers(d / "speakers.txt")
        self.pairs, self.labels = read_trials(d / "trials.txt")
        rng = random.Random(seed)
        self.sample = sorted(rng.sample(range(len(self.pairs)), min(SAMPLE, len(self.pairs))))

    def out(self, name: str) -> Path:
        return self.layout.out / name

    def scores(self, name: str) -> np.ndarray:
        pairs, values = read_scores(self.out(name))
        require(pairs == self.pairs, f"{name}: pairs differ from the trial list")
        return values

    def check_synth(self) -> str:
        w = self.w
        target = read_store(self.layout.target / "embeddings.txt")
        for label, store, n in (("source", self.store, w.n_utts), ("target", target, w.target_speakers * w.utts_per_speaker)):
            require(len(store) == n, f"{label} store has {len(store)} utterances, expected {n}")
            norms = np.concatenate([np.linalg.norm(c, axis=1) for c in store.values()])
            require(np.all(np.abs(norms - 1.0) <= 1e-12), f"{label} chunk norms off by {np.abs(norms - 1).max():.3g}")
            require(all(c.shape == (w.chunks_per_utt, w.dim) for c in store.values()), f"{label} chunk shape")
        seen = set()
        for (e, t), label in zip(self.pairs, self.labels):
            require(e != t and e in self.store and t in self.store, f"bad trial {e} {t}")
            key = frozenset((e, t))
            require(key not in seen, f"repeated pair {e} {t}")
            seen.add(key)
            require(label == (self.speakers[e] == self.speakers[t]), f"label disagrees with speaker map: {e} {t}")
        n_pos = int(self.labels.sum())
        require((n_pos, len(self.labels) - n_pos) == (w.n_pos, w.n_neg), f"got {n_pos} pos, {len(self.labels) - n_pos} neg")
        return f"{len(self.store)}+{len(target)} unit-norm utterances, {len(self.pairs)} distinct labelled pairs"

    def check_score(self) -> str:
        raw = self.scores("raw.txt")
        worst = 0.0
        for i in self.sample:
            e, t = self.pairs[i]
            total, count = 0.0, 0
            for a in self.store[e]:
                for b in self.store[t]:
                    total += float(np.dot(a, b)) / (math.sqrt(float(np.dot(a, a))) * math.sqrt(float(np.dot(b, b))))
                    count += 1
            worst = max(worst, abs(total / count - raw[i]))
        require(worst <= 1e-12, f"double loop differs by {worst:.3g}")
        swapped = self.program_score(self.store, [(self.pairs[i][1], self.pairs[i][0]) for i in self.sample])
        require(np.array_equal(swapped, raw[self.sample]), "swapped sides give a different double")
        return f"{len(self.sample)} trials within {worst:.2g} of a double loop; swapped sides identical"

    def cohort_rows(self) -> tuple[list[str], np.ndarray]:
        cohort = read_store(self.out("cohort.txt"))
        return list(cohort), np.stack([c[0] for c in cohort.values()])

    def check_cohort(self) -> str:
        ids, rows = self.cohort_rows()
        expected = sorted(set(self.speakers.values()))
        require(ids == expected, "cohort rows are not one per speaker in sorted id order")
        if self.w.per_speaker < self.w.utts_per_speaker:
            return f"{len(ids)} rows in speaker order (subsampled, means not checked)"
        by_spk: dict[str, list[np.ndarray]] = {}
        for utt, spk in self.speakers.items():
            by_spk.setdefault(spk, []).append(self.means[utt])
        want = np.stack([np.sum(by_spk[s], axis=0) / len(by_spk[s]) for s in ids])
        worst = float(np.abs(want - rows).max())
        require(worst <= 1e-12, f"cohort rows differ from speaker means by {worst:.3g}")
        return f"{len(ids)} rows equal the speaker means within {worst:.2g}"

    def check_asnorm(self) -> str:
        raw, norm = self.scores("raw.txt"), self.scores("norm.txt")
        _, rows = self.cohort_rows()
        cohort = unit_rows(rows)
        n = self.w.top_n

        def stats(utt: str) -> tuple[float, float]:
            m = self.means[utt]
            sims = cohort @ (m / np.linalg.norm(m))
            top = np.sort(sims)[::-1][:n]
            mu = float(np.sum(top)) / n
            return mu, math.sqrt(float(np.sum((top - mu) ** 2)) / n)

        worst = 0.0
        for i in self.sample:
            (mu_e, sd_e), (mu_t, sd_t) = (stats(u) for u in self.pairs[i])
            want = 0.5 * ((raw[i] - mu_e) / sd_e + (raw[i] - mu_t) / sd_t)
            worst = max(worst, abs(want - norm[i]))
        require(worst <= 1e-9, f"AS-Norm differs by {worst:.3g}")
        return f"{len(self.sample)} trials within {worst:.2g} (top {n} of {len(rows)} cohort rows)"

    def check_qmf(self) -> str:
        names, pairs, matrix = read_feature_csv(self.out("qmf.csv"))
        require(pairs == self.pairs, "qmf rows differ from the trial list")
        d = self.layout.data
        schema = read_columns(d / "attributes.schema")
        table = read_csv(d / "attributes.csv")
        header = table[0]
        attrs = {row[0]: dict(zip(header[1:], row[1:])) for row in table[1:]}
        want_names = []
        for name, kind, _ in schema:
            want_names += [f"{name}_match"] if kind == "categorical" else [f"{name}_min", f"{name}_max"]
        stats = ("emb_l1_norm", "emb_l2_norm", "emb_std_across_dims", "emb_mean_of_dim_stds", "emb_std_of_dim_stds")
        want_names += [f"{s}_{side}" for s in stats for side in ("min", "max")]
        require(names == want_names, "qmf columns differ from the schema layout")

        def emb_stats(utt: str) -> list[float]:
            chunks = self.store[utt]
            m = self.means[utt]
            dim_stds = np.sqrt(((chunks - m) ** 2).sum(axis=0) / chunks.shape[0])

            def pstd(v):
                return math.sqrt(float(((v - v.sum() / v.size) ** 2).sum()) / v.size)

            return [float(np.abs(m).sum()), float(np.linalg.norm(m)), pstd(m),
                    float(dim_stds.sum()) / dim_stds.size, pstd(dim_stds)]

        worst = 0.0
        for i in self.sample:
            e, t = self.pairs[i]
            row = []
            for name, kind, transform in schema:
                ve, vt = attrs[e][name], attrs[t][name]
                if kind == "categorical":
                    row.append(1.0 if ve != "" and ve == vt else 0.0)
                    continue
                vals = [float(v) for v in (ve, vt) if v != ""]
                if transform == "log1p":
                    vals = [math.log1p(v) for v in vals]
                row += [min(vals), max(vals)] if vals else [math.nan, math.nan]
            for se, st in zip(emb_stats(e), emb_stats(t)):
                row += [min(se, st), max(se, st)]
            want = np.array(row)
            require(_close(want, matrix[i], 1e-12 * max(1.0, float(np.nanmax(np.abs(want))))), f"row {i + 1} differs")
            worst = max(worst, float(np.nanmax(np.abs(want - matrix[i]))))
        return f"{len(self.sample)} rows of {len(names)} features within {worst:.2g}"

    def fusion_inputs(self, model: dict) -> np.ndarray:
        """Raw fusion features in model order: score files, then the qmf columns."""
        names, _, qmf = read_feature_csv(self.out("qmf.csv"))
        raw = np.column_stack([self.scores("raw.txt"), self.scores("norm.txt"), qmf])
        require(model["feature_names"] == ["raw", "norm"] + names, "model feature names")
        return raw

    @staticmethod
    def scale(raw: np.ndarray, model: dict) -> np.ndarray:
        lo, hi = np.array(model["minmax"]).T
        filled = np.where(np.isnan(raw), np.array(model["medians"]), raw)
        span = hi - lo
        scaled = np.clip((filled - lo) / np.where(span == 0, 1.0, span), 0.0, 1.0)
        return np.where(span == 0, 0.5, scaled)

    def check_fuse_fit(self) -> str:
        model = json.loads(self.out("model.json").read_text(encoding="utf-8"))
        raw = self.fusion_inputs(model)
        lo, hi = np.array(model["minmax"]).T
        require(np.array_equal(lo, np.nanmin(raw, axis=0)) and np.array_equal(hi, np.nanmax(raw, axis=0)), "min-max range")
        require(_close(model["medians"], np.nanmedian(raw, axis=0), 1e-12), "imputation medians")
        X = self.scale(raw, model)
        w, b, lam = np.array(model["weights"]), float(model["intercept"]), float(model["lambda"])
        fitted = objective(X, self.labels, lam, w, b)
        best = reference_optimum(X, self.labels, lam)
        gap = fitted - best
        require(abs(gap) <= FUSION_TOL, f"objective {fitted:.12g} vs reference optimum {best:.12g}")
        return f"objective {fitted:.10f} is {gap:+.2e} from the L-BFGS-B optimum (tolerance {FUSION_TOL:g})"

    def check_fuse_apply(self) -> str:
        model = json.loads(self.out("model.json").read_text(encoding="utf-8"))
        X = self.scale(self.fusion_inputs(model), model)
        want = expit(X @ np.array(model["weights"]) + float(model["intercept"]))
        got = self.scores("fused.txt")
        worst = float(np.abs(want - got).max())
        require(worst <= 1e-12, f"probabilities differ by {worst:.3g}")
        return f"{len(got)} probabilities within {worst:.2g}"

    def check_eval(self, name: str) -> str:
        printed = self.out(f"eval_{name}.txt").read_text(encoding="utf-8")
        match = re.fullmatch(r"EER=([0-9.]+)% minDCF\(p=0\.05\)=([0-9.]+) minDCF\(p=0\.01\)=([0-9.]+)\n", printed)
        require(match, f"unexpected eval output {printed!r}")
        eer_pct, dcf05, dcf01 = (float(g) for g in match.groups())
        want_eer, want_dcf = counting_oracle(self.scores(f"{name}.txt"), self.labels, (0.05, 0.01))
        require(abs(want_eer * 100 - eer_pct) <= 0.005 + 1e-9, f"EER {want_eer * 100:.4f}% vs printed {eer_pct}%")
        for want, got in zip(want_dcf, (dcf05, dcf01)):
            require(abs(want - got) <= 0.00005 + 1e-9, f"minDCF {want:.6f} vs printed {got}")
        return printed.strip()

    def check_ddf(self) -> str:
        def profiles(store_path: Path, spk_path: Path) -> tuple[list[str], np.ndarray]:
            means = utterance_means(read_store(store_path))
            by_spk: dict[str, list[np.ndarray]] = {}
            for utt, spk in read_speakers(spk_path).items():
                by_spk.setdefault(spk, []).append(means[utt])
            ids = sorted(by_spk)
            rows = [np.sort(np.stack(by_spk[s]), axis=0)[(len(by_spk[s]) - 1) // 2] for s in ids]
            return ids, unit_rows(np.stack(rows))

        d, t = self.layout.data, self.layout.target
        src_ids, src = profiles(d / "embeddings.txt", d / "speakers.txt")
        tgt_ids, tgt = profiles(t / "embeddings.txt", t / "speakers.txt")
        sims = tgt @ src.T
        k = min(self.w.top_k, len(src_ids))
        order = np.argsort(-sims, axis=1, kind="stable")  # ties keep the smaller speaker id first
        candidates = set(order[:, :k].ravel().tolist())
        best = sims.max(axis=0)
        want = {src_ids[j]: (best[j], tgt_ids[int(np.argmax(sims[:, j]))])
                for j in candidates if best[j] <= DEDUP}
        rows = read_csv(self.out("ddf.csv"))
        require(rows[0] == ["speaker_id", "max_similarity", "nearest_target"], "ddf header")
        got = {r[0]: (float(r[1]), r[2]) for r in rows[1:]}
        require([r[0] for r in rows[1:]] == sorted(got), "ddf rows not sorted by speaker id")
        require(set(got) == set(want), f"kept {len(got)} speakers, oracle keeps {len(want)}")
        require(all(sim <= DEDUP for sim, _ in got.values()), "a kept similarity exceeds the threshold")
        for spk, (sim, near) in got.items():
            require(abs(sim - want[spk][0]) <= 1e-12 and near == want[spk][1], f"{spk}: {sim} {near} vs {want[spk]}")
        dropped = len(candidates) - len(want)
        return f"{len(got)} kept of {len(candidates)} top-{k} candidates ({dropped} dropped as duplicates)"

    def checks(self):
        """(name, callable) for every output check of one round."""
        return [
            ("synth", self.check_synth),
            ("score", self.check_score),
            ("cohort", self.check_cohort),
            ("asnorm", self.check_asnorm),
            ("qmf", self.check_qmf),
            ("fuse-fit", self.check_fuse_fit),
            ("fuse-apply", self.check_fuse_apply),
            ("eval raw", lambda: self.check_eval("raw")),
            ("eval norm", lambda: self.check_eval("norm")),
            ("eval fused", lambda: self.check_eval("fused")),
            ("ddf", self.check_ddf),
        ]


# ---------------------------------------------------------------------------
# Reference maths


def objective(X: np.ndarray, labels: np.ndarray, lam: float, w: np.ndarray, b: float) -> float:
    """Mean logistic loss plus lam * ||w||_1, the objective fusion minimises."""
    sign = np.where(labels, 1.0, -1.0)
    return float(np.logaddexp(0.0, -sign * (X @ w + b)).mean()) + lam * float(np.abs(w).sum())


def reference_optimum(X: np.ndarray, labels: np.ndarray, lam: float) -> float:
    """Minimum of the fusion objective by L-BFGS-B with w split as p - q, p, q >= 0."""
    n, k = X.shape
    sign = np.where(labels, 1.0, -1.0)

    def f(v):
        w = v[:k] - v[k:2 * k]
        z = sign * (X @ w + v[-1])
        dz = -sign * expit(-z) / n
        gw = X.T @ dz
        value = float(np.logaddexp(0.0, -z).mean()) + lam * float(v[:2 * k].sum())
        return value, np.concatenate([gw + lam, lam - gw, [dz.sum()]])

    bounds = [(0.0, None)] * (2 * k) + [(None, None)]
    x = np.zeros(2 * k + 1)
    # zero tolerances: run until the line search can make no progress; the
    # restart clears curvature pairs that can stall the first run early
    for _ in range(2):
        x = minimize(f, x, jac=True, method="L-BFGS-B", bounds=bounds,
                     options={"maxiter": 20000, "maxcor": 50, "ftol": 0.0, "gtol": 0.0}).x
    return objective(X, labels, lam, x[:k] - x[k:2 * k], float(x[-1]))


def counting_oracle(scores: np.ndarray, labels: np.ndarray, p_targets) -> tuple[float, list[float]]:
    """EER and minDCF by counting, at every threshold, the targets below it
    and the non-targets at or above it (accept iff score >= threshold)."""
    pos, neg = scores[labels], scores[~labels]
    distinct = np.unique(scores)
    thresholds = np.append(distinct, np.nextafter(distinct[-1], np.inf))
    miss = np.empty(thresholds.size)
    fa = np.empty(thresholds.size)
    for lo in range(0, thresholds.size, 256):
        block = thresholds[lo:lo + 256, None]
        miss[lo:lo + 256] = (pos[None, :] < block).sum(axis=1) / pos.size
        fa[lo:lo + 256] = (neg[None, :] >= block).sum(axis=1) / neg.size
    diff = miss - fa
    i = int(np.flatnonzero(diff >= 0.0)[0])
    if diff[i] == 0.0:
        eer = float(miss[i])
    else:
        t = (fa[i - 1] - miss[i - 1]) / ((miss[i] - miss[i - 1]) - (fa[i] - fa[i - 1]))
        eer = float(miss[i - 1] + t * (miss[i] - miss[i - 1]))
    dcfs = [float(np.min(p * miss + (1 - p) * fa) / min(p, 1 - p)) for p in p_targets]
    return eer, dcfs
