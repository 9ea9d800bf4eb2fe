"""The ten outputs of one pipeline round on the benchmark's two workload
shapes keep the sha256 they had when QMF was built per trial, AS-Norm held
the whole side-by-cohort matrix and ddf ranked each target row with a
Python sort key, so the trial-side array kernels change no output byte."""

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
    "speakers-wide/1/ddf.csv": "d4c1fb31766ab65a60e48b8420c3dfc32c7183afed0a0b24615152370fb5248a",
    "speakers-wide/1/eval_fused.txt": "3137d208d121e6f6c64a46ceb90da6f56a09e739a984e89bbf738d56a1e5f150",
    "speakers-wide/1/eval_norm.txt": "ff2feb5696e8b68e005c2b2a7e3a2a4ffd81e8f2492b50af6eadb5ebea691f7e",
    "speakers-wide/1/eval_raw.txt": "01313e7944c627681121a70a7fa36c35881e9c8a3ced18efd4178a4702025dd4",
    "speakers-wide/1/fused.txt": "fbfabb61d25007dc67404cc0a4faadc39c7fe025876c433e5310b7da4d620656",
    "speakers-wide/1/model.json": "31f2876253548b1cfda6bfd76bf3095ad0a1a725761e15dcc2bca7f3e922719b",
    "speakers-wide/1/norm.txt": "a8eb1485c669b322ed1a3094261b628661e375772d022800fb143baaf04ff674",
    "speakers-wide/1/qmf.csv": "3cb588be1fe07a3e73ce254d8c7a3f6fc895fc46604cd36daba62ab081339dd5",
    "speakers-wide/1/raw.txt": "530b2da475573ac963c2571344eafab63d775bcd806a33c9dd9b97521abd06c7",
    "speakers-wide/2/cohort.txt": "934ff170ee8646f8db70740fa33699159090a5d633afeff810f7a297faac09b2",
    "speakers-wide/2/ddf.csv": "2b0c68c2075dd5177472b373ed3953556af4d2f19a8ac7a8d9265d5dea70cb99",
    "speakers-wide/2/eval_fused.txt": "1158c9ddd149afa83948eecf80eda7b8f61c8efca05685aa4dbeba0af77129fe",
    "speakers-wide/2/eval_norm.txt": "e7f6d66048fef350463fa795688b987240ddaae13a46038c6b77b363ac0662c9",
    "speakers-wide/2/eval_raw.txt": "b021b954da8dba8dc5f6db69982b2db3fbbee428033e13e8079b7460acdc5cbb",
    "speakers-wide/2/fused.txt": "06cb3e974ce2bfef4926b24afc634f75ace8eda96154ddafe3451c92da330192",
    "speakers-wide/2/model.json": "f474a8424d4f3616684631fd61ac07d25a7e2a8941e81f42728aeea2d1c975d6",
    "speakers-wide/2/norm.txt": "a67d8b81ff94bfe25999df1fca1b3ccba2573b79d49242057b4d6d1f9f042778",
    "speakers-wide/2/qmf.csv": "9c7e353d7649206425275cf60a00b8ff1595a7401991fba71a8f885a1a2194a9",
    "speakers-wide/2/raw.txt": "2aa4e4d53b4ea99a8848a76f9af7c30c6be276bc01282e05b25f29bfce64c297",
    "trials-dense/1/cohort.txt": "07e9d365c896352c3348465a33c7d3555bb549fa4147c07d3ff500558c756416",
    "trials-dense/1/ddf.csv": "96b1d678597dcfb4f95a21617cd2f45f9238637f7cba1e9825f579a41eb99f0c",
    "trials-dense/1/eval_fused.txt": "aea44929c639b12003cf35adcc17ba7a6847a358f21c086af62655348afc4dfa",
    "trials-dense/1/eval_norm.txt": "3e03f85142dee3625ca4c0f8e4ec3ab0ee9b980a50d6d82b8069157806261bb1",
    "trials-dense/1/eval_raw.txt": "a0401a1fdf558917565a06d306ade5fa8eb29c3fac5f9898cc6fa13a747da772",
    "trials-dense/1/fused.txt": "4ca84969385a01acaab557019263b5570bafdb64c0f19422570b1a8f1bd68df4",
    "trials-dense/1/model.json": "59912b64eb0830dd8129cf1f119a4cc4297e41bb3e265c60bb5cf3f14e9b3e12",
    "trials-dense/1/norm.txt": "4f8ec04dd07572ec2f9b0e9ba5b52b780058413acad8711faf1a8fddc07cefb6",
    "trials-dense/1/qmf.csv": "99943225e65dac40db343f61f6b0256fe4f5c781241c6a6963f9c7432d2d3428",
    "trials-dense/1/raw.txt": "59c61c0ee89ca3df52bb29c80215d9be2ad5b1fb58ffcdb0a808db7cb80b9d9d",
    "trials-dense/2/cohort.txt": "31192401eb050836fe21d129a79a19dfecb1e53abfb9e4aaee8bf05f964b5c20",
    "trials-dense/2/ddf.csv": "b8d0ab238ca186dec0da56885ad5d65a43d3e74cf8a17da06181fc5a53ac2c61",
    "trials-dense/2/eval_fused.txt": "4fc1799e23b7f5c2d054e617bbb9830b084b5c180b9f927c21d17b731513a7b5",
    "trials-dense/2/eval_norm.txt": "8f7aa0e156b158f249740488f0ded05f945eefb7a324e690cc98d39f7dfde011",
    "trials-dense/2/eval_raw.txt": "60d40ce60596ebdb9437b033d186ac27c5269e5d0b11711aa6f242fe20e59089",
    "trials-dense/2/fused.txt": "51262b14a67dd9b8cc6b18ed95a02d9216e33005c99ba50d18c983b416eb2af8",
    "trials-dense/2/model.json": "4528fd41335bf6b1a211d7544e4c09be49d727a9c918aba0546d76ae260da6b2",
    "trials-dense/2/norm.txt": "b4d4f8d5e8c11bb83e3c66bd9e2a3b8a310ed68e7a78fcfb46d936cea588b66d",
    "trials-dense/2/qmf.csv": "0cfad93dfa73b76edbbc0c5fa7f899916fb8dc8886f046190ea41c7d2fe2d13f",
    "trials-dense/2/raw.txt": "c0ef1df5aa1f1ff5a8717e6852488a02061b17addd8b711c879fd7fefc7216e8",
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
