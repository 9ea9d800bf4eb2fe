"""The benchmark's tracer wraps module attributes by name; each must exist,
and the benchmark's own calls into the program must keep working.

``perfbench/spans.py`` replaces ``svbackend.<module>.<attr>`` for every key
of ``WRAPPED`` (timing pass) and ``PEAKED`` (allocation pass). A rename in
the package would make ``perfbench/run.py --trace 1`` fail, so the names
are checked here against the package itself, and a fit-then-apply run
checks that the fusion layers' calls go through those attributes.
"""

import importlib
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

from svbackend import cli, dataio, scoring

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


@pytest.mark.parametrize("table", ["WRAPPED", "PEAKED"])
def test_traced_attributes_resolve(table):
    keys = list(getattr(SPANS, table))
    assert keys
    missing = [
        f"svbackend.{module}.{attr}"
        for module, attr in keys
        if not callable(getattr(importlib.import_module(f"svbackend.{module}"), attr, None))
    ]
    assert missing == []


def test_fusion_calls_route_through_traced_attributes(tmp_path):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({
        "n_speakers": 4, "utts_per_speaker": 3, "chunks_per_utt": 2, "dim": 4,
        "within_spread": 0.3, "between_spread": 1.0, "seed": 5,
        "trials": {"n_pos": 8, "n_neg": 12, "seed": 5},
    }))
    data = tmp_path / "data"
    raw, model = tmp_path / "raw.txt", tmp_path / "model.json"
    assert cli.main(["synth", "--config", str(config), "--out", str(data)]) == 0
    assert cli.main(["score", "--embeddings", str(data / "embeddings.txt"),
                     "--trials", str(data / "trials.txt"), "--out", str(raw)]) == 0
    modules = {name: importlib.import_module(f"svbackend.{name}") for name in {m for m, _ in SPANS.WRAPPED}}
    tracer = SPANS.Tracer(modules)
    with tracer.installed():
        for argv in (
            ["fuse-fit", "--scores", str(raw), "--trials", str(data / "trials.txt"), "--out", str(model)],
            ["fuse-apply", "--model", str(model), "--scores", str(raw), "--out", str(tmp_path / "fused.txt")],
        ):
            assert tracer.stage(argv[0], lambda: cli.main(argv)) == 0
    recorded = {(span.stage, span.name) for span in tracer.spans}
    for stage, name in (("fuse-fit", "qmf.minmax_fit"), ("fuse-fit", "qmf.minmax_apply"),
                        ("fuse-fit", "fusion.fit"), ("fuse-apply", "fusion.apply_model"),
                        ("fuse-apply", "qmf.minmax_apply")):
        assert (f"cli.{stage}", name) in recorded
    fits = [span for span in tracer.spans if span.name == "fusion.fit"]
    assert len(fits) == 1
    # perfbench/run.py reads these for fusion.iterations and fusion.objective_gap
    fitted, problem = fits[0].info["fitted"], fits[0].info["problem"]
    assert isinstance(fitted.iterations, int) and isinstance(fitted.objective, float)
    assert (fitted.objective_trace[1:] <= fitted.objective_trace[:-1]).all()
    assert problem.features.ndim == 2 and problem.labels.shape == problem.features.shape[:1]
    assert isinstance(problem.lam, float)


def test_store_stages_record_the_spans_the_benchmark_reads(tmp_path):
    """``perfbench/run.py --trace 1`` divides by the store read's and the
    scorer's span times and reads the store kernels' spans, so each store
    stage must still call through those attributes."""
    data, target = tmp_path / "data", tmp_path / "target"
    for out, n_speakers, trials in ((data, 6, {"n_pos": 8, "n_neg": 12, "seed": 4}), (target, 3, None)):
        config = tmp_path / f"{out.name}.json"
        config.write_text(json.dumps({
            "n_speakers": n_speakers, "utts_per_speaker": 3, "chunks_per_utt": 2, "dim": 4,
            "within_spread": 0.3, "between_spread": 1.0, "seed": 4, **({"trials": trials} if trials else {}),
        }))
        assert cli.main(["synth", "--config", str(config), "--out", str(out)]) == 0
    emb, trials = str(data / "embeddings.txt"), str(data / "trials.txt")
    raw, cohort = str(tmp_path / "raw.txt"), str(tmp_path / "cohort.txt")
    stages = [
        ["score", "--embeddings", emb, "--trials", trials, "--out", raw],
        ["cohort", "--embeddings", emb, "--speakers", str(data / "speakers.txt"), "--per-speaker", "2",
         "--out", cohort],
        ["asnorm", "--scores", raw, "--embeddings", emb, "--cohort", cohort, "--top-n", "3",
         "--out", str(tmp_path / "norm.txt")],
        ["qmf", "--embeddings", emb, "--attributes", str(data / "attributes.csv"),
         "--schema", str(data / "attributes.schema"), "--trials", trials, "--out", str(tmp_path / "qmf.csv")],
        ["ddf", "--source-emb", emb, "--source-spk", str(data / "speakers.txt"),
         "--target-emb", str(target / "embeddings.txt"), "--target-spk", str(target / "speakers.txt"),
         "--top-k", "2", "--out", str(tmp_path / "ddf.csv")],
    ]
    modules = {name: importlib.import_module(f"svbackend.{name}") for name in {m for m, _ in SPANS.WRAPPED}}
    tracer = SPANS.Tracer(modules)
    with tracer.installed():
        for argv in stages:
            assert tracer.stage(argv[0], lambda: cli.main(argv)) == 0
    recorded = {(span.stage, span.name) for span in tracer.spans}
    for stage, name in (("score", "dataio.read_embeddings"), ("score", "scoring.score_trials"),
                        ("cohort", "asnorm.build_cohort"), ("asnorm", "asnorm.asnorm_trials"),
                        ("qmf", "qmf.trial_feature_matrix"),
                        ("ddf", "curation.profiles_from_store"), ("ddf", "curation.ddf_select")):
        assert (f"cli.{stage}", name) in recorded
    reads = [span for span in tracer.spans if span.name == "dataio.read_embeddings"]
    assert [span.info["bytes"] for span in reads] == [os.path.getsize(emb)]
    assert all(span.seconds > 0 for span in tracer.spans)


def test_scorer_takes_the_benchmark_call_form(tmp_path):
    """perfbench/run.py's swap-symmetry check scores ``[Trial(e, t), ...]``;
    that call form must give the bits of the reader's columnar trial list."""
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({
        "n_speakers": 5, "utts_per_speaker": 3, "chunks_per_utt": 3, "dim": 6,
        "within_spread": 0.3, "between_spread": 1.0, "seed": 8,
        "trials": {"n_pos": 10, "n_neg": 20, "seed": 8},
    }))
    assert cli.main(["synth", "--config", str(config), "--out", str(tmp_path / "data")]) == 0
    records = dataio.read_embeddings(str(tmp_path / "data" / "embeddings.txt"))
    trials = dataio.read_trials(str(tmp_path / "data" / "trials.txt"), expect_labels=True)
    for enroll, test in ((trials.enroll, trials.test), (trials.test, trials.enroll)):
        listed = [dataio.Trial(e, t) for e, t in zip(enroll, test)]
        columnar = dataio.TrialList(enroll, test)
        assert scoring.score_trials(records, listed).tobytes() == scoring.score_trials(records, columnar).tobytes()
