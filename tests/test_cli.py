"""Command-line pipeline: outputs, formats, determinism, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import svbackend
from svbackend import dataio
from svbackend.cli import main
from svbackend.qmf import feature_names
from svbackend.synth import DEFAULT_SCHEMA

SYNTH_CONFIG = {
    "n_speakers": 6,
    "utts_per_speaker": 4,
    "chunks_per_utt": 2,
    "dim": 8,
    "within_spread": 0.25,
    "between_spread": 1.0,
    "seed": 13,
    "trials": {"n_pos": 20, "n_neg": 40, "seed": 13},
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Runs the full command chain once; tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    cfg = root / "synth.json"
    cfg.write_text(json.dumps(SYNTH_CONFIG))
    paths = {
        "root": root,
        "config": cfg,
        "data": data,
        "embeddings": data / "embeddings.txt",
        "speakers": data / "speakers.txt",
        "attributes": data / "attributes.csv",
        "schema": data / "attributes.schema",
        "trials": data / "trials.txt",
        "raw_scores": root / "raw.txt",
        "cohort": root / "cohort.txt",
        "norm_scores": root / "norm.txt",
        "qmf": root / "qmf.csv",
        "model": root / "model.json",
        "fused": root / "fused.txt",
        "ddf": root / "ddf.csv",
    }
    steps = [
        ["synth", "--config", str(cfg), "--out", str(data)],
        ["score", "--embeddings", str(paths["embeddings"]), "--trials", str(paths["trials"]),
         "--out", str(paths["raw_scores"])],
        ["cohort", "--embeddings", str(paths["embeddings"]), "--speakers", str(paths["speakers"]),
         "--per-speaker", "3", "--seed", "1", "--out", str(paths["cohort"])],
        ["asnorm", "--scores", str(paths["raw_scores"]), "--embeddings", str(paths["embeddings"]),
         "--cohort", str(paths["cohort"]), "--top-n", "4", "--out", str(paths["norm_scores"])],
        ["qmf", "--embeddings", str(paths["embeddings"]), "--attributes", str(paths["attributes"]),
         "--schema", str(paths["schema"]), "--trials", str(paths["trials"]),
         "--out", str(paths["qmf"])],
        ["fuse-fit", "--scores", str(paths["raw_scores"]), "--scores", str(paths["norm_scores"]),
         "--qmf", str(paths["qmf"]), "--trials", str(paths["trials"]),
         "--lambda", "0.01", "--out", str(paths["model"])],
        ["fuse-apply", "--model", str(paths["model"]), "--scores", str(paths["raw_scores"]),
         "--scores", str(paths["norm_scores"]), "--qmf", str(paths["qmf"]),
         "--out", str(paths["fused"])],
        ["ddf", "--source-emb", str(paths["embeddings"]), "--source-spk", str(paths["speakers"]),
         "--target-emb", str(paths["embeddings"]), "--target-spk", str(paths["speakers"]),
         "--top-k", "3", "--dedup", "0.8", "--out", str(paths["ddf"])],
    ]
    for argv in steps:
        assert main(argv) == 0, f"step failed: {argv[0]}"
    return paths


def test_synth_writes_expected_files(pipeline):
    for key in ("embeddings", "speakers", "attributes", "schema", "trials"):
        assert pipeline[key].exists()
    records = dataio.read_embeddings(str(pipeline["embeddings"]))
    assert len(records) == 24
    trials = dataio.read_trials(str(pipeline["trials"]), expect_labels=True)
    assert len(trials) == 60
    schema = dataio.read_schema(str(pipeline["schema"]))
    assert [c.name for c in schema] == [c.name for c in DEFAULT_SCHEMA]


def test_synth_rerun_is_byte_identical(pipeline):
    repeat = pipeline["root"] / "data_repeat"
    assert main(["synth", "--config", str(pipeline["config"]), "--out", str(repeat)]) == 0
    for name in ("embeddings.txt", "speakers.txt", "attributes.csv", "attributes.schema", "trials.txt"):
        assert (repeat / name).read_bytes() == (pipeline["data"] / name).read_bytes()


def test_score_aligns_with_trials(pipeline):
    trials = dataio.read_trials(str(pipeline["trials"]), expect_labels=True)
    pairs, values = dataio.read_scores(str(pipeline["raw_scores"]))
    assert (pairs.enroll, pairs.test) == (trials.enroll, trials.test)
    assert np.all((values >= -1.0) & (values <= 1.0))


def test_score_rerun_is_byte_identical(pipeline):
    out = pipeline["root"] / "raw_repeat.txt"
    argv = ["score", "--embeddings", str(pipeline["embeddings"]),
            "--trials", str(pipeline["trials"]), "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == pipeline["raw_scores"].read_bytes()


def test_cohort_store_has_one_row_per_speaker(pipeline):
    rows = dataio.read_embeddings(str(pipeline["cohort"]))
    speakers = set(dataio.read_speaker_map(str(pipeline["speakers"])).values())
    assert sorted(r.utt_id for r in rows) == sorted(speakers)
    assert all(r.n_chunks == 1 for r in rows)


def test_asnorm_scores_are_standardized(pipeline):
    raw_pairs, raw = dataio.read_scores(str(pipeline["raw_scores"]))
    norm_pairs, norm = dataio.read_scores(str(pipeline["norm_scores"]))
    assert raw_pairs == norm_pairs
    assert not np.allclose(raw, norm)
    assert np.all(np.isfinite(norm))
    # normalization recenters around the cohort: typical scale is in z units
    assert norm.std() > 0.0


def test_asnorm_empty_score_file_gives_empty_output(pipeline):
    empty = pipeline["root"] / "empty_raw.txt"
    empty.write_text("")
    out = pipeline["root"] / "empty_norm.txt"
    rc = main(["asnorm", "--scores", str(empty), "--embeddings", str(pipeline["embeddings"]),
               "--cohort", str(pipeline["cohort"]), "--top-n", "4", "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == b""


def test_asnorm_header_only_cohort_is_data_error(pipeline, capsys):
    cohort = pipeline["root"] / "header_only_cohort.txt"
    cohort.write_text("dim=8\n")
    rc = main(["asnorm", "--scores", str(pipeline["raw_scores"]), "--embeddings", str(pipeline["embeddings"]),
               "--cohort", str(cohort), "--top-n", "4", "--out", str(pipeline["root"] / "never.txt")])
    assert rc == 2
    assert "error: cohort has 0 speakers, need >= top_n=4" in capsys.readouterr().err


def test_qmf_csv_layout(pipeline):
    trials, names, matrix = dataio.read_trial_features(str(pipeline["qmf"]))
    schema = dataio.read_schema(str(pipeline["schema"]))
    assert names == feature_names(schema)
    assert matrix.shape == (60, len(names))
    listed = dataio.read_trials(str(pipeline["trials"]), expect_labels=True)
    assert (trials.enroll, trials.test) == (listed.enroll, listed.test)


def test_fuse_fit_names_columns_from_basenames(pipeline):
    model = dataio.load_fusion_model(str(pipeline["model"]))
    schema = dataio.read_schema(str(pipeline["schema"]))
    expected = ["raw", "norm"] + feature_names(schema)
    assert list(model.feature_names) == expected
    assert model.lam == 0.01


def test_fuse_fit_warns_when_stopped_before_convergence(pipeline, capsys):
    def fuse_fit(*extra):
        out = pipeline["root"] / "capped.json"
        rc = main(["fuse-fit", "--scores", str(pipeline["raw_scores"]),
                   "--scores", str(pipeline["norm_scores"]), "--qmf", str(pipeline["qmf"]),
                   "--trials", str(pipeline["trials"]), *extra, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == ""
        model = dataio.load_fusion_model(str(out))
        assert model.feature_names == dataio.load_fusion_model(str(pipeline["model"])).feature_names
        return captured.err

    assert fuse_fit() == ""
    lines = fuse_fit("--max-iters", "1").splitlines()
    assert len(lines) == 1
    assert re.fullmatch(r"warning: fusion stopped after 1 iterations with KKT residual \S+ > tol 1e-09", lines[0])


def test_fuse_apply_emits_probabilities(pipeline):
    pairs, probs = dataio.read_scores(str(pipeline["fused"]))
    assert len(pairs) == 60
    assert np.all((probs >= 0.0) & (probs <= 1.0))
    trials = dataio.read_trials(str(pipeline["trials"]), expect_labels=True)
    labels = trials.labels
    # the fused system should order trials at least as well as chance
    assert probs[labels].mean() > probs[~labels].mean()


def test_fuse_apply_rejects_mismatched_columns(pipeline, capsys):
    rc = main(["fuse-apply", "--model", str(pipeline["model"]),
               "--scores", str(pipeline["norm_scores"]),
               "--scores", str(pipeline["raw_scores"]),
               "--qmf", str(pipeline["qmf"]),
               "--out", str(pipeline["root"] / "bad.txt")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "expects" in err and "raw" in err


def test_fuse_apply_repeated_score_stem_exits_2(pipeline, capsys):
    rc = main(["fuse-apply", "--model", str(pipeline["model"]),
               "--scores", str(pipeline["raw_scores"]), "--scores", str(pipeline["raw_scores"]),
               "--out", str(pipeline["root"] / "twice.txt")])
    assert rc == 2
    assert "error: duplicate score feature name 'raw'" in capsys.readouterr().err
    assert not (pipeline["root"] / "twice.txt").exists()


def test_fuse_apply_qmf_cell_over_csv_limit_exits_2(pipeline, capsys):
    text = pipeline["qmf"].read_text().splitlines()
    fields = text[3].split(",")
    fields[2] = "1" * (131072 + 1)
    text[3] = ",".join(fields)
    bad = pipeline["root"] / "long_cell.csv"
    bad.write_text("\n".join(text) + "\n")
    rc = main(["fuse-apply", "--model", str(pipeline["model"]),
               "--scores", str(pipeline["raw_scores"]), "--scores", str(pipeline["norm_scores"]),
               "--qmf", str(bad), "--out", str(pipeline["root"] / "long_cell_fused.txt")])
    assert rc == 2
    assert "long_cell.csv:4: malformed CSV: field larger than field limit" in capsys.readouterr().err


# Runs one stage in a fresh interpreter; its last line is the exit code, whether
# numpy.ma was imported before main() ran and whether it is imported after.
NUMPY_MA_PROBE = """
import sys
from svbackend.cli import main
before = "numpy.ma" in sys.modules
code = main(sys.argv[1:])
print(code, before, "numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize("stage", ["eval", "fuse-fit"])
def test_eval_and_fuse_fit_do_not_import_numpy_ma(pipeline, stage):
    # a numpy that imports numpy.ma eagerly has it before main(); only a new import fails
    argv = {
        "eval": ["eval", "--scores", str(pipeline["raw_scores"]), "--trials", str(pipeline["trials"])],
        "fuse-fit": ["fuse-fit", "--scores", str(pipeline["raw_scores"]),
                     "--scores", str(pipeline["norm_scores"]), "--qmf", str(pipeline["qmf"]),
                     "--trials", str(pipeline["trials"]), "--out", str(pipeline["root"] / "probe_model.json")],
    }[stage]
    src = str(Path(svbackend.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", NUMPY_MA_PROBE, *argv], env=env,
                         capture_output=True, text=True, check=True)
    code, before, after = run.stdout.splitlines()[-1].split()
    assert code == "0"
    assert before == "True" or after == "False"


def test_eval_output_line(pipeline, capsys):
    rc = main(["eval", "--scores", str(pipeline["raw_scores"]), "--trials", str(pipeline["trials"])])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert re.fullmatch(
        r"EER=\d+\.\d{2}% minDCF\(p=0\.05\)=\d+\.\d{4} minDCF\(p=0\.01\)=\d+\.\d{4}", line
    )


def test_eval_custom_p_target(pipeline, capsys):
    rc = main(["eval", "--scores", str(pipeline["raw_scores"]), "--trials", str(pipeline["trials"]),
               "--p-target", "0.1"])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert re.fullmatch(r"EER=\d+\.\d{2}% minDCF\(p=0\.1\)=\d+\.\d{4}", line)


def test_eval_requires_labels(pipeline, capsys):
    unlabeled = pipeline["root"] / "unlabeled.txt"
    trials = dataio.read_trials(str(pipeline["trials"]), expect_labels=True)
    dataio.write_trials(dataio.TrialList(trials.enroll, trials.test), str(unlabeled))
    rc = main(["eval", "--scores", str(pipeline["raw_scores"]), "--trials", str(unlabeled)])
    assert rc == 2


def test_ddf_self_match_removes_everything(pipeline):
    lines = pipeline["ddf"].read_text().splitlines()
    assert lines[0] == "speaker_id,max_similarity,nearest_target"
    # source and target are the same corpus: every speaker matches itself
    assert lines[1:] == []


def test_ddf_disjoint_targets_keep_speakers(pipeline):
    other = pipeline["root"] / "other"
    cfg = dict(SYNTH_CONFIG, seed=99)
    cfg.pop("trials")
    cfg_path = pipeline["root"] / "other.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["synth", "--config", str(cfg_path), "--out", str(other)]) == 0
    out = pipeline["root"] / "ddf_disjoint.csv"
    rc = main(["ddf", "--source-emb", str(pipeline["embeddings"]),
               "--source-spk", str(pipeline["speakers"]),
               "--target-emb", str(other / "embeddings.txt"),
               "--target-spk", str(other / "speakers.txt"),
               "--top-k", "6", "--dedup", "0.999", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "speaker_id,max_similarity,nearest_target"
    assert len(lines) > 1
    for line in lines[1:]:
        speaker, sim, target = line.split(",")
        assert speaker.startswith("spk") and target.startswith("spk")
        assert -1.0 <= float(sim) <= 0.999


def test_schedule_base_csv(capsys):
    assert main(["schedule", "--name", "base", "--epochs", "61"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "epoch,lr,margin"
    assert lines[1] == "0,1e-05,0.0"
    assert lines[11] == "10,0.2,0.0"
    assert lines[61] == "60,0.2,0.3"


def test_schedule_finetune_csv(capsys):
    assert main(["schedule", "--name", "finetune", "--epochs", "7"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "0,1e-05,0.3"
    assert lines[2] == "1,0.01,0.3"
    assert lines[7] == "6,0.005,0.3"


def test_schedule_staircase_csv(capsys):
    argv = ["schedule", "--name", "staircase", "--spec", "0.5,2,6,2", "--max-lr", "1.0",
            "--epochs", "11"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "epoch,lr"
    assert lines[2] == "1,1.0"
    assert lines[8] == "7,1.0"
    assert lines[9] == "8,0.5"
    assert lines[11] == "10,0.25"


def test_schedule_epochs_beyond_phase_is_data_error(capsys):
    assert main(["schedule", "--name", "finetune", "--epochs", "31"]) == 2


def test_schedule_staircase_requires_spec(capsys):
    rc = main(["schedule", "--name", "staircase", "--epochs", "5"])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err


def test_schedule_bad_spec_is_usage_error(capsys):
    rc = main(["schedule", "--name", "staircase", "--spec", "0.5,2", "--max-lr", "1.0",
               "--epochs", "5"])
    assert rc == 1


# ---------------------------------------------------------------------------
# Exit codes


def test_missing_input_file_exits_2(tmp_path, capsys):
    rc = main(["score", "--embeddings", str(tmp_path / "none.txt"),
               "--trials", str(tmp_path / "none2.txt"), "--out", str(tmp_path / "o.txt")])
    assert rc == 2
    assert "none2.txt" in capsys.readouterr().err


def test_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad_emb.txt"
    bad.write_text("dim=2\nu1 1 0.5\n")
    trials = tmp_path / "t.txt"
    trials.write_text("u1 u1\n")
    rc = main(["score", "--embeddings", str(bad), "--trials", str(trials),
               "--out", str(tmp_path / "o.txt")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad_emb.txt:2:" in err


# Every required path names a file that does not exist, so an exit code of 1
# shows the flag was refused before any input was read (that would exit 2).
BAD_FLAG_VALUES = [
    ["cohort", "--embeddings", "e", "--speakers", "s", "--out", "o", "--per-speaker", "0"],
    ["asnorm", "--scores", "r", "--embeddings", "e", "--cohort", "c", "--out", "o", "--top-n", "0"],
    ["ddf", "--source-emb", "a", "--source-spk", "b", "--target-emb", "c", "--target-spk", "d", "--out", "o",
     "--top-k", "0"],
    ["ddf", "--source-emb", "a", "--source-spk", "b", "--target-emb", "c", "--target-spk", "d", "--out", "o",
     "--dedup", "0"],
    ["ddf", "--source-emb", "a", "--source-spk", "b", "--target-emb", "c", "--target-spk", "d", "--out", "o",
     "--dedup", "1.5"],
    ["eval", "--scores", "r", "--trials", "t", "--p-target", "2"],
    ["eval", "--scores", "r", "--trials", "t", "--p-target", "0.05", "--p-target", "0"],
    ["fuse-fit", "--scores", "r", "--trials", "t", "--out", "o", "--max-iters", "0"],
    ["fuse-fit", "--scores", "r", "--trials", "t", "--out", "o", "--lambda", "-1"],
    ["fuse-fit", "--scores", "r", "--trials", "t", "--out", "o", "--tol", "-1"],
    ["fuse-fit", "--scores", "r", "--trials", "t", "--out", "o", "--lambda", "nan"],
    ["fuse-fit", "--scores", "r", "--trials", "t", "--out", "o", "--tol", "inf"],
    ["eval", "--scores", "r", "--trials", "t", "--p-target", "nan"],
    ["ddf", "--source-emb", "a", "--source-spk", "b", "--target-emb", "c", "--target-spk", "d", "--out", "o",
     "--dedup", "nan"],
    ["schedule", "--name", "base", "--epochs", "0"],
    ["schedule", "--name", "staircase", "--spec", "0.5,2,6,2", "--epochs", "3", "--max-lr", "inf"],
]


@pytest.mark.parametrize("argv", BAD_FLAG_VALUES, ids=lambda argv: f"{argv[0]} {' '.join(argv[-2:])}")
def test_out_of_range_flag_value_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert "usage error" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_store_that_is_not_utf8_exits_2_with_location(tmp_path, capsys):
    bad = tmp_path / "bad_emb.txt"
    bad.write_bytes(b"dim=1\nu1 1 0.5\xff\n")
    trials = tmp_path / "t.txt"
    trials.write_text("u1 u1\n")
    rc = main(["score", "--embeddings", str(bad), "--trials", str(trials), "--out", str(tmp_path / "o.txt")])
    assert rc == 2
    assert "bad_emb.txt:2: invalid UTF-8 byte 0xff" in capsys.readouterr().err


def test_unknown_flag_exits_1(capsys):
    assert main(["eval", "--nope", "x"]) == 1


def test_unknown_command_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_required_option_exits_1(capsys):
    assert main(["score"]) == 1


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "svbackend" in capsys.readouterr().out


@pytest.mark.parametrize(
    "trials_spec, message",
    [
        ({"n_pos": 50, "n_neg": 0, "seed": 1}, "error: requested 50 same-speaker pairs, only 3 available"),
        ({"n_pos": 1, "bogus": 2}, "trials must be an object with n_pos, n_neg, seed"),
        ({"n_pos": 2.9, "n_neg": 0}, "synth.json: trials.n_pos must be an integer, got 2.9"),
        ({"n_pos": 1, "n_neg": "1"}, "synth.json: trials.n_neg must be an integer, got '1'"),
        ({"n_pos": 1, "seed": True}, "synth.json: trials.seed must be an integer, got True"),
        ({"n_pos": "x"}, "synth.json: trials.n_pos must be an integer, got 'x'"),
    ],
)
def test_synth_bad_trials_block_writes_no_file(tmp_path, capsys, trials_spec, message):
    cfg = dict(SYNTH_CONFIG, n_speakers=3, utts_per_speaker=2, trials=trials_spec)
    cfg_path = tmp_path / "synth.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize(
    "text, message",
    [("{not json", "synth.json: invalid JSON"), ("[1]", "synth.json: config must be a JSON object")],
)
def test_synth_config_that_is_not_a_json_object_exits_2(tmp_path, capsys, text, message):
    cfg_path = tmp_path / "synth.json"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("name", ["between_spread", "within_spread", "attribute_noise"])
def test_synth_integer_too_large_for_a_float_writes_no_file(tmp_path, capsys, name):
    cfg_path = tmp_path / "synth.json"
    cfg_path.write_text(json.dumps(dict(SYNTH_CONFIG, **{name: int("9" * 334)})))
    out = tmp_path / "out"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"synth.json: {name} must be a finite number, got an integer too large for a float" in err
    assert not out.exists() or list(out.iterdir()) == []
