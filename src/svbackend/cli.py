"""Command-line front-end.

Subcommands wire the library into a scoring pipeline: score trials from
chunk embeddings, build a normalization cohort, apply AS-Norm, extract
quality features, fit and apply score fusion, evaluate, select distractor
speakers, print training schedules, and generate synthetic data.

Exit codes: 0 success, 1 usage error (bad flags/arguments), 2 data error
(unreadable or malformed inputs, inconsistent contents). Errors go to
stderr; all output files are written atomically.
"""

from __future__ import annotations

import math
import os
import sys

import click

from . import asnorm as asnorm_mod
from . import curation, dataio, fusion, metrics, qmf, scoring, synth, trainspec
from .errors import ToolkitError


@click.group(name="svbackend")
def cli():
    """Speaker-verification back-end toolkit."""


class _FiniteFloatRange(click.FloatRange):
    """``click.FloatRange`` that also refuses NaN and infinity."""

    def convert(self, value, param, ctx):
        value = super().convert(value, param, ctx)
        if not math.isfinite(value):
            self.fail(f"{value!r} is not a finite number.", param, ctx)
        return value


@cli.command()
@click.option("--embeddings", required=True, help="Embedding store.")
@click.option("--trials", required=True, help="Trial list, labeled or not.")
@click.option("--out", required=True, help="Output score file.")
def score(embeddings, trials, out):
    """Score trials with the chunked pairwise cosine."""
    trial_list = dataio.read_trials(trials)
    records = dataio.read_embeddings(embeddings)
    values = scoring.score_trials(records, trial_list)
    dataio.write_scores(trial_list, values, out)


@cli.command()
@click.option("--embeddings", required=True, help="Embedding store of cohort utterances.")
@click.option("--speakers", required=True, help="Speaker map (utt_id speaker_id).")
@click.option("--per-speaker", default=20, show_default=True, type=click.IntRange(min=1),
              help="Utterances subsampled per speaker.")
@click.option("--seed", default=0, show_default=True, help="Subsampling seed.")
@click.option("--out", required=True, help="Output cohort store (one row per speaker).")
def cohort(embeddings, speakers, per_speaker, seed, out):
    """Build a per-speaker cohort for AS-Norm."""
    records = dataio.iter_embeddings(embeddings)
    speaker_map = dataio.read_speaker_map(speakers)
    dataio.write_embeddings(asnorm_mod.build_cohort(records, speaker_map, per_speaker, seed), out)


@cli.command(name="asnorm")
@click.option("--scores", required=True, help="Raw score file.")
@click.option("--embeddings", required=True, help="Embedding store covering the scored utterances.")
@click.option("--cohort", "cohort_path", required=True, help="Cohort store from the cohort subcommand.")
@click.option("--top-n", default=100, show_default=True, type=click.IntRange(min=1),
              help="Cohort scores kept per trial side.")
@click.option("--out", required=True, help="Output normalized score file.")
def asnorm_cmd(scores, embeddings, cohort_path, top_n, out):
    """Apply adaptive symmetric score normalization."""
    pairs, raw = dataio.read_scores(scores)
    records = dataio.iter_embeddings(embeddings)
    cohort_records = dataio.iter_embeddings(cohort_path)
    normalized = asnorm_mod.asnorm_trials(raw, pairs, records, cohort_records, top_n)
    dataio.write_scores(pairs, normalized, out)


@cli.command(name="qmf")
@click.option("--embeddings", required=True, help="Embedding store.")
@click.option("--attributes", required=True, help="Attribute CSV.")
@click.option("--schema", required=True, help="Attribute schema sidecar.")
@click.option("--trials", required=True, help="Trial list, labeled or not.")
@click.option("--out", required=True, help="Output per-trial feature CSV.")
def qmf_cmd(embeddings, attributes, schema, trials, out):
    """Extract per-trial quality features."""
    columns = dataio.read_schema(schema)
    table = dataio.read_attributes(attributes, columns)
    trial_list = dataio.read_trials(trials)
    records = dataio.iter_embeddings(embeddings)
    names, matrix = qmf.trial_feature_matrix(trial_list, records, table, columns)
    dataio.write_trial_features(trial_list, names, matrix, out)


@cli.command(name="fuse-fit")
@click.option("--scores", multiple=True, required=True, help="Score file per system (repeatable).")
@click.option("--qmf", "qmf_path", default=None, help="Per-trial feature CSV from the qmf subcommand.")
@click.option("--trials", required=True, help="Labeled trial list.")
@click.option("--lambda", "lam", default=0.01, show_default=True, type=_FiniteFloatRange(min=0.0),
              help="L1 penalty weight.")
@click.option("--max-iters", default=100000, show_default=True, type=click.IntRange(min=1), help="Cap on Newton steps.")
@click.option("--tol", default=1e-9, show_default=True, type=_FiniteFloatRange(min=0.0),
              help="KKT residual stop threshold.")
@click.option("--out", required=True, help="Output model JSON.")
def fuse_fit(scores, qmf_path, trials, lam, max_iters, tol, out):
    """Fit L1 logistic fusion on labeled trials."""
    pairs, names, raw = dataio.read_fusion_features(scores, qmf_path, dataio.read_trials(trials, expect_labels=True))
    labels, pairs = pairs.labels, None  # the ids are not needed to fit
    model, fitted = fusion.train(raw, labels, names, lam=lam, max_iters=max_iters, tol=tol)
    if not fitted.converged:
        click.echo(f"warning: fusion stopped after {fitted.iterations} iterations with KKT residual "
                   f"{fitted.kkt_residual:.3g} > tol {tol:g}", err=True)
    dataio.save_fusion_model(model, out)


@cli.command(name="fuse-apply")
@click.option("--model", "model_path", required=True, help="Model JSON from fuse-fit.")
@click.option("--scores", multiple=True, required=True, help="Score file per system (repeatable).")
@click.option("--qmf", "qmf_path", default=None, help="Per-trial feature CSV.")
@click.option("--out", required=True, help="Output fused score file (probabilities).")
def fuse_apply(model_path, scores, qmf_path, out):
    """Apply a fitted fusion model; emits per-trial probabilities."""
    model = dataio.load_fusion_model(model_path)
    pairs, names, raw = dataio.read_fusion_features(scores, qmf_path)
    probabilities = fusion.apply_model(raw, names, model)
    dataio.write_scores(pairs, probabilities, out)


@cli.command(name="eval")
@click.option("--scores", required=True, help="Score file.")
@click.option("--trials", required=True, help="Labeled trial list aligned with the scores.")
@click.option("--p-target", "p_targets", multiple=True, default=(0.05, 0.01), show_default=True,
              type=_FiniteFloatRange(0.0, 1.0, min_open=True, max_open=True))
def eval_cmd(scores, trials, p_targets):
    """Report EER and minDCF on labeled trials."""
    trial_list = dataio.read_trials(trials, expect_labels=True)
    _, values = dataio.read_scores(scores, trial_list)
    report = metrics.evaluate(values, trial_list.labels, tuple(p_targets))
    parts = [f"EER={report['eer'] * 100.0:.2f}%"]
    for p_target in p_targets:
        parts.append(f"minDCF(p={p_target:g})={report['min_dcf'][p_target]['cost']:.4f}")
    click.echo(" ".join(parts))


@cli.command(name="ddf")
@click.option("--source-emb", required=True, help="Source-corpus embedding store.")
@click.option("--source-spk", required=True, help="Source speaker map.")
@click.option("--target-emb", required=True, help="Target-corpus embedding store.")
@click.option("--target-spk", required=True, help="Target speaker map.")
@click.option("--top-k", default=50, show_default=True, type=click.IntRange(min=1),
              help="Source speakers kept per target.")
@click.option("--dedup", default=0.8, show_default=True, type=_FiniteFloatRange(0.0, 1.0, min_open=True),
              help="Duplicate-identity similarity threshold.")
@click.option("--out", required=True, help="Output selection CSV.")
def ddf(source_emb, source_spk, target_emb, target_spk, top_k, dedup, out):
    """Select source speakers nearest the target domain."""
    source = curation.profiles_from_store(dataio.iter_embeddings(source_emb), dataio.read_speaker_map(source_spk))
    targets = curation.profiles_from_store(dataio.iter_embeddings(target_emb), dataio.read_speaker_map(target_spk))
    selections = curation.ddf_select(source, targets, curation.DdfConfig(top_k=top_k, dedup_threshold=dedup))
    dataio.write_selections(
        [(sel.speaker_id, sel.max_similarity, sel.nearest_target_id) for sel in selections], out
    )


@cli.command(name="schedule")
@click.option("--name", required=True, type=click.Choice(["base", "finetune", "staircase"]))
@click.option("--spec", "spec_text", default=None, help="gamma,warmup,plateau,epochs_per for staircase.")
@click.option("--max-lr", default=None, type=_FiniteFloatRange(), help="Peak learning rate for staircase.")
@click.option("--epochs", required=True, type=click.IntRange(min=1), help="Number of epochs to print, starting at 0.")
def schedule(name, spec_text, max_lr, epochs):
    """Print an epoch,lr[,margin] CSV for a named schedule."""
    lines = []
    if name == "staircase":
        if spec_text is None or max_lr is None:
            raise click.UsageError("staircase requires --spec and --max-lr")
        fields = spec_text.split(",")
        if len(fields) != 4:
            raise click.UsageError("--spec must be gamma,warmup,plateau,epochs_per")
        try:
            spec = trainspec.StaircaseSpec(
                gamma=float(fields[0]),
                warmup_epochs=int(fields[1]),
                plateau_epochs=int(fields[2]),
                epochs_per=int(fields[3]),
                max_lr=max_lr,
            )
        except ValueError as exc:
            raise click.UsageError(f"bad --spec/--max-lr: {exc}") from None
        lines.append("epoch,lr")
        for epoch in range(epochs):
            lines.append(f"{epoch},{dataio.format_float(trainspec.staircase_lr(spec, epoch))}")
    else:
        phase = trainspec.BASE_SCHEDULE if name == "base" else trainspec.FINETUNE_SCHEDULE
        if epochs > phase.total_epochs:
            raise ToolkitError(f"{name} schedule covers {phase.total_epochs} epochs, requested {epochs}")
        lines.append("epoch,lr,margin")
        for epoch in range(epochs):
            lr = trainspec.schedule_lr(phase, epoch)
            margin = trainspec.schedule_margin(phase, epoch)
            lines.append(f"{epoch},{dataio.format_float(lr)},{dataio.format_float(margin)}")
    click.echo("\n".join(lines))


@cli.command(name="synth")
@click.option("--config", "config_path", required=True, help="JSON config file.")
@click.option("--out", "out_dir", required=True, help="Output directory.")
def synth_cmd(config_path, out_dir):
    """Generate a synthetic dataset (store, speaker map, attributes, trials)."""
    records, speaker_map, table, trials = synth.synthesize(dataio.read_text(config_path), config_path)
    os.makedirs(out_dir, exist_ok=True)
    dataio.write_embeddings(records, os.path.join(out_dir, "embeddings.txt"))
    dataio.write_speaker_map(speaker_map, os.path.join(out_dir, "speakers.txt"))
    dataio.write_attributes(table, os.path.join(out_dir, "attributes.csv"))
    dataio.write_schema(synth.DEFAULT_SCHEMA, os.path.join(out_dir, "attributes.schema"))
    if trials is not None:
        dataio.write_trials(trials, os.path.join(out_dir, "trials.txt"))


def main(argv: list[str] | None = None) -> int:
    """Run the CLI, mapping errors to the documented exit codes."""
    try:
        cli.main(args=argv, prog_name="svbackend", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 1
    except click.Abort:
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except (ToolkitError, ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    return 0


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
