"""The score, cohort, AS-Norm, QMF, ddf and eval outputs keep their bytes
when numpy and OpenBLAS pick the kernels another x86 CPU would get.

Each setting runs the golden pipeline, seed 1 of each workload, in a child
process whose environment alone carries the setting, and its outputs must
have the sha256 of a child run in the inherited environment. No setting of
this machine is changed.

Fusion's outputs are left out: ``model.json``, ``fused.txt`` and
``eval_fused.txt`` still change, through BLAS in fusion's ``@`` products
under ``OPENBLAS_CORETYPE`` and through the per-CPU ``np.exp`` of
``fusion.sigmoid`` under ``NPY_DISABLE_CPU_FEATURES``.

This emulates other CPUs on one x86 host. An ARM host, or a numpy built
for another baseline, is not covered."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import svbackend

# numpy 2's dispatch names (X86_V3, X86_V4, ...); numpy 1 names its targets otherwise
umath = pytest.importorskip("numpy._core._multiarray_umath")
DISPATCH, FEATURES = umath.__cpu_dispatch__, umath.__cpu_features__

STABLE = ("raw.txt", "cohort.txt", "norm.txt", "qmf.csv", "ddf.csv", "eval_raw.txt", "eval_norm.txt")
WORKLOADS = ("speakers-wide", "trials-dense")
X86 = platform.machine().lower() in ("x86_64", "amd64")


def without(feature: str) -> dict[str, str] | None:
    """``NPY_DISABLE_CPU_FEATURES`` naming ``feature`` and the dispatch
    targets numpy lists after it, which build on it, as far as this host has
    them; None when the host lacks ``feature``."""
    if not FEATURES.get(feature) or feature not in DISPATCH:
        return None
    later = DISPATCH[DISPATCH.index(feature):]
    return {"NPY_DISABLE_CPU_FEATURES": " ".join(name for name in later if FEATURES.get(name))}


SETTINGS = {
    "numpy-without-X86_V4": without("X86_V4"),
    "numpy-without-X86_V3": without("X86_V3"),
    "openblas-Haswell": {"OPENBLAS_CORETYPE": "Haswell"} if X86 else None,
    "openblas-Prescott": {"OPENBLAS_CORETYPE": "Prescott"} if X86 else None,
}

# argv: a scratch directory, then the workloads; prints each output's sha256 as JSON
CHILD = """
import hashlib, json, pathlib, sys
from test_pipeline_golden import run_pipeline
sums = {}
for workload in sys.argv[2:]:
    tmp = pathlib.Path(sys.argv[1]) / workload
    tmp.mkdir()
    for name, data in run_pipeline(tmp, workload, 1).items():
        sums[f"{workload}/{name}"] = hashlib.sha256(data).hexdigest()
print(json.dumps(sums))
"""


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(returncode, stdout, stderr) of the child of each setting the host
    has, and of the inherited environment as ``"default"``; the children run
    side by side."""
    path = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parent),
                                         str(Path(svbackend.__file__).resolve().parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    children = {}
    for name, setting in {"default": {}, **SETTINGS}.items():
        if setting is not None:
            children[name] = subprocess.Popen(
                [sys.executable, "-c", CHILD, str(tmp_path_factory.mktemp(name)), *WORKLOADS],
                env={**os.environ, **setting, "PYTHONPATH": path},
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
    results = {}
    for name, child in children.items():
        stdout, stderr = child.communicate()
        results[name] = child.returncode, stdout, stderr
    return results


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_outputs_keep_their_sha256_under_other_cpu_kernels(runs, setting):
    if SETTINGS[setting] is None:
        pytest.skip(f"this host has no kernels for {setting}")
    sums = {}
    for name in ("default", setting):
        returncode, stdout, stderr = runs[name]
        assert returncode == 0, f"{name} run failed:\n{stderr}"
        sums[name] = json.loads(stdout)
    keys = [f"{workload}/{name}" for workload in WORKLOADS for name in STABLE]
    assert {key: sums[setting][key] for key in keys} == {key: sums["default"][key] for key in keys}
