"""Workload shapes and the CLI stage lists that run them.

Every workload is a pure function of its sizes and the seed: the synth
configs below are the only inputs the program receives, and every stage
reads files that earlier stages wrote.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


DEDUP = 0.8  # ddf's duplicate-identity threshold, the CLI default
ATTRIBUTE_NOISE = 1.0  # synth's Gaussian noise on the hash-derived attributes


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_speakers: int
    utts_per_speaker: int
    chunks_per_utt: int
    dim: int
    within_spread: float
    between_spread: float
    n_pos: int
    n_neg: int
    per_speaker: int
    top_n: int
    target_speakers: int
    top_k: int
    # fuse-fit's --lambda; None runs the CLI default (0.01)
    fusion_lambda: float | None = None

    @property
    def n_utts(self) -> int:
        return self.n_speakers * self.utts_per_speaker

    @property
    def n_trials(self) -> int:
        return self.n_pos + self.n_neg

    @property
    def chunk_pairs(self) -> int:
        """Chunk-pair cosines one scoring pass computes."""
        return self.n_trials * self.chunks_per_utt**2

    def synth_configs(self, seed: int) -> dict[str, dict]:
        """The two `svbackend synth` configs: the trial corpus and the ddf target domain.

        The target domain keeps the seed, sizes per speaker and between-speaker
        spread, so its speaker means equal those of the first
        ``target_speakers`` source speakers (synth draws them in the same
        order); only the chunk noise is wider. Those source speakers are
        re-recordings of target speakers, which ddf's dedup step must drop.
        """
        common = {
            "utts_per_speaker": self.utts_per_speaker,
            "chunks_per_utt": self.chunks_per_utt,
            "dim": self.dim,
            "between_spread": self.between_spread,
            "attribute_noise": ATTRIBUTE_NOISE,
            "seed": seed,
        }
        source = dict(
            common,
            n_speakers=self.n_speakers,
            within_spread=self.within_spread,
            trials={"n_pos": self.n_pos, "n_neg": self.n_neg, "seed": seed},
        )
        target = dict(common, n_speakers=self.target_speakers, within_spread=1.5 * self.within_spread)
        return {"source": source, "target": target}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="trials-dense",
            why="few utterances in many trials, so scoring, AS-Norm, QMF and fusion dominate",
            n_speakers=100, utts_per_speaker=5, chunks_per_utt=4, dim=128,
            within_spread=0.2, between_spread=0.1,
            n_pos=500, n_neg=1500,
            per_speaker=4, top_n=40,
            target_speakers=20, top_k=10,
        ),
        Workload(
            name="speakers-wide",
            why="many speakers with few utterances each, so store parsing, cohort building, "
                "large-cohort AS-Norm and ddf dominate",
            n_speakers=640, utts_per_speaker=2, chunks_per_utt=2, dim=128,
            within_spread=0.2, between_spread=0.1,
            n_pos=500, n_neg=1500,
            per_speaker=2, top_n=200,
            target_speakers=160, top_k=40,
            # At the CLI default ISTA's iteration count on this shape ranges
            # from 6k to 31k between seeds, so fuse-fit, meant to be a minor
            # stage here, would set pipeline_s; at 0.05 it stays near 870.
            fusion_lambda=0.05,
        ),
    )
}


@dataclass(frozen=True)
class Layout:
    """Where one set-up's data and one round's outputs live."""

    data: Path  # source corpus written by synth
    target: Path  # ddf target domain written by synth
    out: Path  # this round's stage outputs


# Output files of one pipeline round, in the order the stages write them.
OUTPUTS = (
    "raw.txt", "cohort.txt", "norm.txt", "qmf.csv", "model.json", "fused.txt",
    "eval_raw.txt", "eval_norm.txt", "eval_fused.txt", "ddf.csv",
)


@dataclass(frozen=True)
class Stage:
    name: str  # the stage's label; the three evals share one
    argv: list[str]
    stdout: str | None = None  # output file that receives the stage's stdout

    @property
    def output(self) -> Path:
        """The file (or, for synth, the directory) the stage writes."""
        return Path(self.stdout or self.argv[self.argv.index("--out") + 1])


def setup_stages(config_dir: Path, layout: Layout) -> list[Stage]:
    return [
        Stage("setup", ["synth", "--config", str(config_dir / "source.json"), "--out", str(layout.data)]),
        Stage("setup", ["synth", "--config", str(config_dir / "target.json"), "--out", str(layout.target)]),
    ]


def pipeline_stages(w: Workload, seed: int, layout: Layout) -> list[Stage]:
    d = layout.data
    emb, trials = str(d / "embeddings.txt"), str(d / "trials.txt")
    raw, norm, fused = (str(layout.out / n) for n in ("raw.txt", "norm.txt", "fused.txt"))
    cohort, qmf, model = (str(layout.out / n) for n in ("cohort.txt", "qmf.csv", "model.json"))
    lam = [] if w.fusion_lambda is None else ["--lambda", str(w.fusion_lambda)]
    stages = [
        Stage("score", ["score", "--embeddings", emb, "--trials", trials, "--out", raw]),
        Stage("cohort", ["cohort", "--embeddings", emb, "--speakers", str(d / "speakers.txt"),
                           "--per-speaker", str(w.per_speaker), "--seed", str(seed), "--out", cohort]),
        Stage("asnorm", ["asnorm", "--scores", raw, "--embeddings", emb, "--cohort", cohort,
                           "--top-n", str(w.top_n), "--out", norm]),
        Stage("qmf", ["qmf", "--embeddings", emb, "--attributes", str(d / "attributes.csv"),
                        "--schema", str(d / "attributes.schema"), "--trials", trials, "--out", qmf]),
        Stage("fuse-fit", ["fuse-fit", "--scores", raw, "--scores", norm, "--qmf", qmf,
                             "--trials", trials, *lam, "--out", model]),
        Stage("fuse-apply", ["fuse-apply", "--model", model, "--scores", raw, "--scores", norm,
                               "--qmf", qmf, "--out", fused]),
    ]
    for name, scores in (("raw", raw), ("norm", norm), ("fused", fused)):
        stages.append(Stage("eval", ["eval", "--scores", scores, "--trials", trials],
                            stdout=str(layout.out / f"eval_{name}.txt")))
    stages.append(Stage("ddf", [
        "ddf", "--source-emb", emb, "--source-spk", str(d / "speakers.txt"),
        "--target-emb", str(layout.target / "embeddings.txt"),
        "--target-spk", str(layout.target / "speakers.txt"),
        "--top-k", str(w.top_k), "--dedup", str(DEDUP), "--out", str(layout.out / "ddf.csv"),
    ]))
    return stages
