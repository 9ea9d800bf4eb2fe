"""Every file `svbackend synth` writes for the benchmark's two workload shapes
keeps the sha256 it had when trial pairs were listed in full and Gaussians
were drawn one at a time, so the lazy pair sampling and the block Gaussians
change no output byte."""

import hashlib
import json

import pytest

from svbackend.cli import main

# The source and target configs of perfbench/workloads.py, by workload.
SHAPES = {
    "trials-dense": dict(n_speakers=100, target_speakers=20, utts_per_speaker=5, chunks_per_utt=4),
    "speakers-wide": dict(n_speakers=640, target_speakers=160, utts_per_speaker=2, chunks_per_utt=2),
}

GOLDEN = {
    "speakers-wide/1/source/attributes.csv": "345897ff8b8841a01c763b2f5a8ca4be10ed8d1183ac4612b13f81c53fec489a",
    "speakers-wide/1/source/attributes.schema": "fe60cd98347342c3df45c9440334d10a9a57bae12c768b2cd2f4b95b28f8bb36",
    "speakers-wide/1/source/embeddings.txt": "3453c282939aed50cc624dae525c9d89cb52fe7b652e1ff74c163b6aec793318",
    "speakers-wide/1/source/speakers.txt": "7d2605db6ddc8349e5ae01d2e955ed5da95773e20420c8ed3192e41ba55c0be7",
    "speakers-wide/1/source/trials.txt": "48283b4f6cb8577caaf1827b233fb89f9d9e43b91a6f5bd05b3bec72d2c72d5b",
    "speakers-wide/1/target/attributes.csv": "9f977fa2a53b6f4683c34aad372889dd4ab8bac144a5598142cd60d8f27d4dd7",
    "speakers-wide/1/target/attributes.schema": "fe60cd98347342c3df45c9440334d10a9a57bae12c768b2cd2f4b95b28f8bb36",
    "speakers-wide/1/target/embeddings.txt": "c0bbce6e675c58f63d2f7c70fe832056453d31e13767064336c2e91c35aa6c58",
    "speakers-wide/1/target/speakers.txt": "c9c04d45d284f4bfb89721f09dff2504a109d0d0fd094a09bff13fe8f14712da",
    "speakers-wide/2/source/attributes.csv": "08e729b91a3e130d049de2ab85091859212ace9f7cf72d0900d8c80b3d8f5261",
    "speakers-wide/2/source/attributes.schema": "fe60cd98347342c3df45c9440334d10a9a57bae12c768b2cd2f4b95b28f8bb36",
    "speakers-wide/2/source/embeddings.txt": "5ae72551dd6426515c5d55be0abd659f202636d2569f9d38cf4c0abeedf0dd24",
    "speakers-wide/2/source/speakers.txt": "7d2605db6ddc8349e5ae01d2e955ed5da95773e20420c8ed3192e41ba55c0be7",
    "speakers-wide/2/source/trials.txt": "023da0e3e654ae9c81bd9db4bd31bcb9c9182bb387e4f5fd4ae1f02e0a61433f",
    "speakers-wide/2/target/attributes.csv": "1f12d046751cbff255a191b570a33fba7a7c67043a359426acf83c000ea4adfc",
    "speakers-wide/2/target/attributes.schema": "fe60cd98347342c3df45c9440334d10a9a57bae12c768b2cd2f4b95b28f8bb36",
    "speakers-wide/2/target/embeddings.txt": "297c2e6ecb6ccc733a0e708d7a1aff8cc31c093725fcf92d82d005b050a436dc",
    "speakers-wide/2/target/speakers.txt": "c9c04d45d284f4bfb89721f09dff2504a109d0d0fd094a09bff13fe8f14712da",
    "trials-dense/1/source/attributes.csv": "863dfd95c23469b34df80a4835e8f3d0707273424c4c2f26e61c804a09a7cc35",
    "trials-dense/1/source/attributes.schema": "fe60cd98347342c3df45c9440334d10a9a57bae12c768b2cd2f4b95b28f8bb36",
    "trials-dense/1/source/embeddings.txt": "8c0f5c7cb70bffe01797312a5a7549cf04a1f5b8cafca82b810dd7c2a427655d",
    "trials-dense/1/source/speakers.txt": "b1ded64a24cceabb0669d7b7d91a488a710d08df80a7214c7c65f737f4b54cc1",
    "trials-dense/1/source/trials.txt": "57fcc0b5ab058c3304d79ac98d7750ec00ded730a5ede9be7f9edc15e42b75dd",
    "trials-dense/1/target/attributes.csv": "07c905bf6ab9389898b3996f0ebcd9d7edddb78734ad9ff15c50b6a2a4f363fb",
    "trials-dense/1/target/attributes.schema": "fe60cd98347342c3df45c9440334d10a9a57bae12c768b2cd2f4b95b28f8bb36",
    "trials-dense/1/target/embeddings.txt": "642728d6e24d2c40b02ea3b7bcbb1db4646a28700e57ac6f27b3b2247eab9230",
    "trials-dense/1/target/speakers.txt": "22e5afa205ebf2ff0f7d16ce1de7b25566db01fc873617c16b20bea1d60eeafc",
    "trials-dense/2/source/attributes.csv": "4e890ab898bea856c1086a70973cb96e0072a1a2a9b2912850baabb0788c1881",
    "trials-dense/2/source/attributes.schema": "fe60cd98347342c3df45c9440334d10a9a57bae12c768b2cd2f4b95b28f8bb36",
    "trials-dense/2/source/embeddings.txt": "9a83409ffc1923860123778a9d2d47f3022d21ea7bcc22cc0a3a3cbc28762fb8",
    "trials-dense/2/source/speakers.txt": "b1ded64a24cceabb0669d7b7d91a488a710d08df80a7214c7c65f737f4b54cc1",
    "trials-dense/2/source/trials.txt": "d72f93658d6183c0ddc5c2675c554337552969b997437d59f5aa1d825c2423ae",
    "trials-dense/2/target/attributes.csv": "06afc29a68778ca278855dbebf5fbea5a001f4739abc19590643ea0070f14945",
    "trials-dense/2/target/attributes.schema": "fe60cd98347342c3df45c9440334d10a9a57bae12c768b2cd2f4b95b28f8bb36",
    "trials-dense/2/target/embeddings.txt": "2dbce0e4ac5f028eb1e7966e4b9bb60f13c12b6f9b6d867d8d20a7d750f288a3",
    "trials-dense/2/target/speakers.txt": "22e5afa205ebf2ff0f7d16ce1de7b25566db01fc873617c16b20bea1d60eeafc",
}


def synth_configs(workload: str, seed: int) -> dict[str, dict]:
    shape = SHAPES[workload]
    common = dict(
        utts_per_speaker=shape["utts_per_speaker"],
        chunks_per_utt=shape["chunks_per_utt"],
        dim=128,
        between_spread=0.1,
        attribute_noise=1.0,
        seed=seed,
    )
    return {
        "source": dict(
            common,
            n_speakers=shape["n_speakers"],
            within_spread=0.2,
            trials={"n_pos": 500, "n_neg": 1500, "seed": seed},
        ),
        "target": dict(common, n_speakers=shape["target_speakers"], within_spread=1.5 * 0.2),
    }


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", sorted(SHAPES))
def test_synth_files_keep_their_sha256(tmp_path, workload, seed):
    got = {}
    for role, config in synth_configs(workload, seed).items():
        config_path = tmp_path / f"{role}.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / role
        assert main(["synth", "--config", str(config_path), "--out", str(out)]) == 0
        for path in sorted(out.iterdir()):
            got[f"{workload}/{seed}/{role}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    expected = {key: value for key, value in GOLDEN.items() if key.startswith(f"{workload}/{seed}/")}
    assert len(expected) == 9
    assert got == expected
