"""The ten outputs of one pipeline round on the benchmark's two workload
shapes keep their sha256. They were pinned when every cosine became one
einsum dot product (``scoring.dots``) and AS-Norm's top-N slice was sorted
before its mean and std, which changed the bits of ``raw.txt``, ``norm.txt``,
``ddf.csv``, ``model.json`` and ``fused.txt`` but no eval text; the
array kernels before that changed no output byte."""

import contextlib
import hashlib
import io
import json

import pytest

from svbackend.cli import main
from test_synth_golden import synth_configs

# The stage options of perfbench/workloads.py, by workload.
OPTIONS = {
    "trials-dense": dict(per_speaker=4, top_n=40, top_k=10, fusion_lambda=None),
    "speakers-wide": dict(per_speaker=2, top_n=200, top_k=40, fusion_lambda=0.05),
}

GOLDEN = {
    "speakers-wide/1/cohort.txt": "168912b95756847c5f483a994432e03dcffe865b0eda0a61873209c54cf736ee",
    "speakers-wide/1/ddf.csv": "b48873f9c832a72aafe7b7d74a90e6dda75a16642ce023e82fa67baafa2d905e",
    "speakers-wide/1/eval_fused.txt": "3137d208d121e6f6c64a46ceb90da6f56a09e739a984e89bbf738d56a1e5f150",
    "speakers-wide/1/eval_norm.txt": "ff2feb5696e8b68e005c2b2a7e3a2a4ffd81e8f2492b50af6eadb5ebea691f7e",
    "speakers-wide/1/eval_raw.txt": "01313e7944c627681121a70a7fa36c35881e9c8a3ced18efd4178a4702025dd4",
    "speakers-wide/1/fused.txt": "fbfabb61d25007dc67404cc0a4faadc39c7fe025876c433e5310b7da4d620656",
    "speakers-wide/1/model.json": "017e8aaa44f97d34d04eb50a389afeebf05cf7e926fb0758a38cf6749bf88cfe",
    "speakers-wide/1/norm.txt": "5dec1060f40dc01ccc26893550ad07154d718f27cd4cf0f625fa66deaa029fe3",
    "speakers-wide/1/qmf.csv": "3cb588be1fe07a3e73ce254d8c7a3f6fc895fc46604cd36daba62ab081339dd5",
    "speakers-wide/1/raw.txt": "d32f35c63dead0cb6ac6fe4acf3e210e7adf5af8a6749b21d81355761c208a13",
    "speakers-wide/2/cohort.txt": "934ff170ee8646f8db70740fa33699159090a5d633afeff810f7a297faac09b2",
    "speakers-wide/2/ddf.csv": "e9b3a1d16c1c2102fc509a1468ded12718c756ccd3f0e08cd879ac5127a58283",
    "speakers-wide/2/eval_fused.txt": "1158c9ddd149afa83948eecf80eda7b8f61c8efca05685aa4dbeba0af77129fe",
    "speakers-wide/2/eval_norm.txt": "e7f6d66048fef350463fa795688b987240ddaae13a46038c6b77b363ac0662c9",
    "speakers-wide/2/eval_raw.txt": "b021b954da8dba8dc5f6db69982b2db3fbbee428033e13e8079b7460acdc5cbb",
    "speakers-wide/2/fused.txt": "06cb3e974ce2bfef4926b24afc634f75ace8eda96154ddafe3451c92da330192",
    "speakers-wide/2/model.json": "e5d61ec13f3a77eccf59b3364bc75c4c0038480b31cce103776ddeb01c4d8da9",
    "speakers-wide/2/norm.txt": "49939fee6d930a680c6c026616559aee573c816cb0905a53a4595f7da28cbce1",
    "speakers-wide/2/qmf.csv": "9c7e353d7649206425275cf60a00b8ff1595a7401991fba71a8f885a1a2194a9",
    "speakers-wide/2/raw.txt": "02c3f8368ce93d594ff1ad2fb13888788e73c3c1dbf84bf80d58c5d167a20439",
    "trials-dense/1/cohort.txt": "07e9d365c896352c3348465a33c7d3555bb549fa4147c07d3ff500558c756416",
    "trials-dense/1/ddf.csv": "cb568b57854ec37c67690098b49743848aba0403fd26fc4860122fe22b3c7f43",
    "trials-dense/1/eval_fused.txt": "aea44929c639b12003cf35adcc17ba7a6847a358f21c086af62655348afc4dfa",
    "trials-dense/1/eval_norm.txt": "3e03f85142dee3625ca4c0f8e4ec3ab0ee9b980a50d6d82b8069157806261bb1",
    "trials-dense/1/eval_raw.txt": "a0401a1fdf558917565a06d306ade5fa8eb29c3fac5f9898cc6fa13a747da772",
    "trials-dense/1/fused.txt": "cdc60a45d28e383930134b6ae307a98771e5dec4a0ba75c1eb0597f5753ff68e",
    "trials-dense/1/model.json": "b02bc097182c07bc3b6f15cdaa07d7d79669504321b82cb9aebc7b500ba19757",
    "trials-dense/1/norm.txt": "59a047793df2e97bcc0ee27c34a7c2a71808eed286bc53e4242be5071e89038b",
    "trials-dense/1/qmf.csv": "99943225e65dac40db343f61f6b0256fe4f5c781241c6a6963f9c7432d2d3428",
    "trials-dense/1/raw.txt": "5f3a96b696ae6f9bf9f21c9c246a7fa86451d745e9fb29009ef995f056e27eca",
    "trials-dense/2/cohort.txt": "31192401eb050836fe21d129a79a19dfecb1e53abfb9e4aaee8bf05f964b5c20",
    "trials-dense/2/ddf.csv": "2353a1e707bcbd978490fa722758382844dade314524b2c163b46588a11ce00c",
    "trials-dense/2/eval_fused.txt": "4fc1799e23b7f5c2d054e617bbb9830b084b5c180b9f927c21d17b731513a7b5",
    "trials-dense/2/eval_norm.txt": "8f7aa0e156b158f249740488f0ded05f945eefb7a324e690cc98d39f7dfde011",
    "trials-dense/2/eval_raw.txt": "60d40ce60596ebdb9437b033d186ac27c5269e5d0b11711aa6f242fe20e59089",
    "trials-dense/2/fused.txt": "456dfa83caa170af590c008112e4070018d680391ee68223782d0912aa159000",
    "trials-dense/2/model.json": "55443eea5395cafb7fd5c81c1640990ce08b830373d3936f9b0841620ae97efd",
    "trials-dense/2/norm.txt": "9d48659694ddcc65e3a1b5b8c0bcbbd476ec4b94edde51280f8502d27aaf949e",
    "trials-dense/2/qmf.csv": "0cfad93dfa73b76edbbc0c5fa7f899916fb8dc8886f046190ea41c7d2fe2d13f",
    "trials-dense/2/raw.txt": "08f8b506138487575d5e7456f0aa819a8dba423043c12a982f55d4ebb2c29041",
}


def run_pipeline(tmp_path, workload: str, seed: int) -> dict[str, bytes]:
    """Synth both corpora, run every pipeline stage in-process and return
    each output's bytes by file name (an eval's stdout as its file)."""
    for role, config in synth_configs(workload, seed).items():
        config_path = tmp_path / f"{role}.json"
        config_path.write_text(json.dumps(config))
        assert main(["synth", "--config", str(config_path), "--out", str(tmp_path / role)]) == 0
    opts = OPTIONS[workload]
    data, target, out = tmp_path / "source", tmp_path / "target", tmp_path / "out"
    out.mkdir()
    emb, trials = str(data / "embeddings.txt"), str(data / "trials.txt")
    raw, norm, fused, cohort, qmf_csv, model = (
        str(out / name) for name in ("raw.txt", "norm.txt", "fused.txt", "cohort.txt", "qmf.csv", "model.json")
    )
    lam = [] if opts["fusion_lambda"] is None else ["--lambda", str(opts["fusion_lambda"])]
    stages = [
        ["score", "--embeddings", emb, "--trials", trials, "--out", raw],
        ["cohort", "--embeddings", emb, "--speakers", str(data / "speakers.txt"),
         "--per-speaker", str(opts["per_speaker"]), "--seed", str(seed), "--out", cohort],
        ["asnorm", "--scores", raw, "--embeddings", emb, "--cohort", cohort,
         "--top-n", str(opts["top_n"]), "--out", norm],
        ["qmf", "--embeddings", emb, "--attributes", str(data / "attributes.csv"),
         "--schema", str(data / "attributes.schema"), "--trials", trials, "--out", qmf_csv],
        ["fuse-fit", "--scores", raw, "--scores", norm, "--qmf", qmf_csv, "--trials", trials, *lam,
         "--out", model],
        ["fuse-apply", "--model", model, "--scores", raw, "--scores", norm, "--qmf", qmf_csv, "--out", fused],
        ["ddf", "--source-emb", emb, "--source-spk", str(data / "speakers.txt"),
         "--target-emb", str(target / "embeddings.txt"), "--target-spk", str(target / "speakers.txt"),
         "--top-k", str(opts["top_k"]), "--dedup", "0.8", "--out", str(out / "ddf.csv")],
    ]
    for argv in stages:
        assert main(argv) == 0, argv
    outputs = {path.name: path.read_bytes() for path in out.iterdir()}
    for name, scores in (("raw", raw), ("norm", norm), ("fused", fused)):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["eval", "--scores", scores, "--trials", trials]) == 0
        outputs[f"eval_{name}.txt"] = stdout.getvalue().encode()
    return outputs


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", sorted(OPTIONS))
def test_pipeline_outputs_keep_their_sha256(tmp_path, workload, seed):
    outputs = run_pipeline(tmp_path, workload, seed)
    got = {f"{workload}/{seed}/{name}": hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    expected = {key: value for key, value in GOLDEN.items() if key.startswith(f"{workload}/{seed}/")}
    assert len(expected) == 10
    assert got == expected
