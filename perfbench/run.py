#!/usr/bin/env python3
"""Pipeline benchmark for svbackend.

Runs the whole CLI pipeline (synth set-up, then score, cohort, asnorm, qmf,
fuse-fit, fuse-apply, eval on raw/normalized/fused scores, ddf) on a seeded
synthetic workload, one stage at a time, and checks every output against
computations made in ``oracles.py``.

    python3 perfbench/run.py --workload trials-dense --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` runs every stage as its own ``svbackend`` subprocess, the way
users run it, and reports the end-to-end metrics. ``--trace 1`` drives
``svbackend.cli.main`` in this process with the layer wrappers of
``spans.py`` and reports the per-layer metrics. ``--workload all`` runs
every workload both ways and prints a summary. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Work files go to ``.bench_work/`` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import OUTPUTS, WORKLOADS, Layout, Stage, Workload, pipeline_stages, setup_stages

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUPS = 3  # untraced rounds that set up their own data, at least three per run; setup_s is their median
IMPORT_REPEATS = 5  # fresh interpreters timed for cli.import_s

STAGES = ("score", "cohort", "asnorm", "qmf", "fuse-fit", "fuse-apply", "eval", "ddf")
# End-to-end metric of each phase of the pipeline -> the stages it sums.
PHASES = {
    "scoring_ref": ("score", "cohort", "asnorm"),
    "fusion_ref": ("qmf", "fuse-fit", "fuse-apply"),
    "eval_ddf_ref": ("eval", "ddf"),
}
REFJOB = HERE / "refjob.py"
# A stage runs svbackend.cli.main as entry() does, and reports on its last
# stderr line the seconds main took, interpreter start and imports excluded.
# refjob.py reports its own work the same way.
CLOCK = "perfbench-seconds"
LAUNCH = ("import sys, time; from svbackend.cli import main; start = time.perf_counter(); "
          "code = main(sys.argv[1:]); "
          f"sys.stderr.write('\\n{CLOCK} ' + repr(time.perf_counter() - start) + '\\n'); "
          "sys.exit(code)")
IMPORT_PROBE = "import time; t = time.perf_counter(); import svbackend.cli; print(time.perf_counter() - t)"
PIPELINE = {f"cli.{name}" for name in STAGES}


class StageFailed(Exception):
    pass


class Tally:
    """Stages and checks attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def stage(self, stage: Stage, code: int, err: str) -> None:
        self.attempted += 1
        if code != 0:
            self.failed += 1
            raise StageFailed(f"{stage.argv[0]} exited {code}: {err.strip()[-400:]}")

    def check(self, name: str, run) -> bool:
        """Run one check, count it, and say whether it passed."""
        self.attempted += 1
        try:
            detail = run()
        except Exception as exc:  # a crashing check is a failed check; keep going and report it
            self.failed += 1
            print(f"  check {name:<14} FAILED: {type(exc).__name__}: {exc}", flush=True)
            return False
        print(f"  check {name:<14} ok: {detail}", flush=True)
        return True


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_subprocess(argv: list[str], workdir: Path, stdout: str | None = None) -> tuple[float, float, int, str]:
    """Run ``python argv`` in a fresh interpreter; return (seconds, peak RSS MiB, exit code, stderr).

    The child is spawned by vfork, and Linux counts the memory the parent
    held at that moment in the child's peak RSS. This process therefore
    imports nothing heavy (numpy, the program) until the rounds are over.
    """
    err_path = workdir / "stage.err"
    with open(stdout or os.devnull, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], env=program_env(), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the stage before leaving
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode, err_path.read_text(errors="replace")


def write_configs(w: Workload, seed: int, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, config in w.synth_configs(seed).items():
        (directory / f"{name}.json").write_text(json.dumps(config, indent=1) + "\n")


def round_layout(directory: Path) -> Layout:
    """A round that sets up its own data in ``directory``."""
    return Layout(data=directory / "data", target=directory / "target", out=directory)


def sha256(paths: list[Path], base: Path) -> dict[str, str]:
    digests = {}
    for p in paths:
        with open(p, "rb") as handle:
            digests[str(p.relative_to(base))] = hashlib.file_digest(handle, "sha256").hexdigest()
    return digests


def data_digest(lay: Layout) -> dict[str, str]:
    return sha256(sorted(p for d in (lay.data, lay.target) for p in d.iterdir()), lay.out)


def output_digest(lay: Layout) -> dict[str, str]:
    return sha256([lay.out / name for name in OUTPUTS], lay.out)


def clock(err: str) -> float:
    """The seconds a child reported on its last CLOCK line of stderr."""
    return float([line for line in err.splitlines() if line.startswith(CLOCK + " ")][-1].split()[1])


def same_digest(name: str, want: dict[str, str], got: dict[str, str]):
    """Check that every file has the first round's bytes."""

    def check():
        differ = sorted(k for k in want.keys() | got.keys() if got.get(k) != want.get(k))
        if differ:
            raise ValueError(f"files differ from the first: {differ}")
        return f"{len(got)} files byte-identical to the first"

    return name, check


def run_checks(tally: Tally, w: Workload, seed: int, lay: Layout) -> None:
    from oracles import Oracle

    oracle = Oracle(w, seed, lay, program_scorer())
    for name, check in oracle.checks():
        tally.check(name, check)


def program_scorer():
    """The program's scorer, for the swap-symmetry check."""
    program = import_program()
    dataio, scoring = program["dataio"], program["scoring"]

    def score(store, pairs):
        records = [dataio.ChunkEmbeddings(utt, chunks) for utt, chunks in store.items()]
        return scoring.score_trials(records, [dataio.Trial(e, t) for e, t in pairs])

    return score


def import_program() -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from svbackend import asnorm, cli, curation, dataio, fusion, metrics, qmf, scoring, synth

    return {"asnorm": asnorm, "cli": cli, "curation": curation, "dataio": dataio, "fusion": fusion,
            "metrics": metrics, "qmf": qmf, "scoring": scoring, "synth": synth}


def keep_running(started: float, rounds: int, seconds: float, min_rounds: int, after: float = 0.0) -> bool:
    """Start another round only if it, and ``after`` rounds' worth of work that
    follows the loop, should end within the run's seconds."""
    elapsed = time.perf_counter() - started
    return rounds < min_rounds or elapsed + (1.0 + after) * elapsed / rounds <= seconds


# ---------------------------------------------------------------------------
# End-to-end run: every stage a subprocess


def run_untraced(w: Workload, seed: int, seconds: float, work: Path, tally: Tally) -> dict[str, tuple[float, str]]:
    """Rounds of the pipeline, every stage a subprocess, until the seconds are spent.

    The first SETUPS rounds set up their own data; later rounds rerun the
    pipeline on the first round's. Each stage reports the seconds it spent
    in ``svbackend.cli.main``, interpreter start and imports excluded. The
    reference job (``refjob.py``) runs before the first stage of a round and
    after every stage (the three evals count as one), so each stage sits
    between two runs of it; a stage's sample is its seconds divided by the
    mean of those two runs' work. This host's speed drifts by tens of
    percent within seconds, and the ratio cancels most of that drift where
    the wall time cannot. A stage's cost is the median of its samples in the
    run; a phase metric is the sum of its stages' costs and pipeline_ref the
    sum of all. setup_s is the median set-up wall time.
    """
    import_seconds(1)  # warm-up: compiles bytecode in a fresh checkout, fills the page cache
    samples: dict[str, list[float]] = {name: [] for name in STAGES}
    walls: dict[str, list[float]] = {name: [] for name in ("setup", "refjob") + STAGES}
    rss: list[float] = []
    work_s: list[float] = []  # the reference job's own work, start-up excluded
    reference: dict[str, str] = {}
    first = round_layout(work / "round0")

    def run(stage: Stage, lay: Layout) -> tuple[float, float]:
        """(wall seconds, seconds in main) of one stage."""
        sec, mib, code, err = run_subprocess(["-c", LAUNCH, *stage.argv], lay.out, stage.stdout)
        tally.stage(stage, code, err)
        rss.append(mib)
        return sec, clock(err)

    def refjob(lay: Layout) -> float:
        sec, _, code, err = run_subprocess([str(REFJOB)], lay.out)
        if code != 0:
            raise StageFailed(f"reference job exited {code}: {err.strip()[-400:]}")
        walls["refjob"].append(sec)
        work_s.append(clock(err))
        return work_s[-1]

    first.out.mkdir()
    refjob(first)  # warm-up, like the import above
    walls["refjob"].clear()
    work_s.clear()
    started = time.perf_counter()
    n = 0
    while keep_running(started, n, seconds, SETUPS):
        out = work / f"round{n}"
        lay = round_layout(out) if n < SETUPS else dataclasses.replace(first, out=out)
        out.mkdir(exist_ok=True)
        written: dict[str, str] = {}
        if n < SETUPS:
            write_configs(w, seed, out)
            walls["setup"].append(sum(run(stage, lay)[0] for stage in setup_stages(out, lay)))
            written.update(data_digest(lay))
        before = refjob(lay)
        for name, group in itertools.groupby(pipeline_stages(w, seed, lay), key=lambda s: s.name):
            group = list(group)
            wall, inside = map(sum, zip(*(run(stage, lay) for stage in group)))
            after = refjob(lay)
            samples[name].append(inside / ((before + after) / 2))
            walls[name].append(wall)
            before = after
            written.update(sha256([stage.output for stage in group], out))
        if n == 0:
            reference = written
        elif tally.check(*same_digest(f"round {n} bytes", reference if n < SETUPS else
                                      {k: reference[k] for k in OUTPUTS}, written)):
            shutil.rmtree(out)  # a round that differs stays for inspection
        n += 1

    run_checks(tally, w, seed, first)
    print(f"  {n} rounds, {SETUPS} of them with set-up; stage samples (reference jobs):", flush=True)
    for name, v in samples.items():
        print(f"    {name:<11} " + " ".join(f"{x:.3f}" for x in v), flush=True)
    print("    reference job work (s): " + " ".join(f"{x:.3f}" for x in work_s), flush=True)
    cost = {name: statistics.median(v) for name, v in samples.items()}
    print("  stage cost (median, ref) and median wall time (s, start-up included; drifts with the host):", flush=True)
    for name, v in walls.items():
        shown = f"{cost[name]:8.3f}" if name in cost else " " * 8
        print(f"    {name:<11} {shown} {statistics.median(v):8.3f}", flush=True)
    metrics = {"setup_s": (statistics.median(walls["setup"]), "s")}
    metrics.update((phase, (sum(cost[name] for name in names), "ref")) for phase, names in PHASES.items())
    metrics["pipeline_ref"] = (sum(cost.values()), "ref")
    metrics["peak_rss_mb"] = (max(rss), "MiB")
    return metrics


# ---------------------------------------------------------------------------
# Traced run: cli.main in this process, layers wrapped from outside


def run_inprocess(tracer, cli, stage: Stage, tally: Tally) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tracer.stage(stage.argv[0], lambda: cli.main(list(stage.argv)))
    if stage.stdout:
        Path(stage.stdout).write_text(out.getvalue(), encoding="utf-8")
    tally.stage(stage, code, err.getvalue())


def import_seconds(repeats: int = IMPORT_REPEATS) -> float:
    """Median time a fresh interpreter takes to import svbackend.cli."""
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=program_env(),
                              capture_output=True, text=True, check=True)
        times.append(float(done.stdout))
    return statistics.median(times)


def run_traced(w: Workload, seed: int, seconds: float, work: Path, tally: Tally) -> dict[str, tuple[float, str]]:
    from oracles import reference_optimum
    from spans import MIB, Tracer

    started = time.perf_counter()
    import_s = import_seconds()
    modules = import_program()
    cli = modules["cli"]
    traced, plain = Tracer(modules), Tracer(modules)
    reference = None
    n = 0
    while keep_running(started, n, seconds, 1, after=0.6):  # the memory pass costs about half a round
        # traced set-up, then each pipeline stage traced and untraced on its
        # data, back to back; which of the two runs first alternates, so warm
        # caches and slow spells of the machine favour neither
        lay = round_layout(work / f"round{n}")
        write_configs(w, seed, lay.out)
        traced.round = plain.round = n
        with traced.installed():
            for stage in setup_stages(lay.out, lay):
                run_inprocess(traced, cli, stage, tally)
        bare = dataclasses.replace(lay, out=work / f"plain{n}")
        bare.out.mkdir()
        for k, (t_stage, p_stage) in enumerate(zip(pipeline_stages(w, seed, lay), pipeline_stages(w, seed, bare))):
            for traced_pass in (True, False) if (n + k) % 2 == 0 else (False, True):
                if traced_pass:
                    with traced.installed():
                        run_inprocess(traced, cli, t_stage, tally)
                else:
                    run_inprocess(plain, cli, p_stage, tally)
        for lay_k, label in ((lay, "traced"), (bare, "untraced")):
            got = output_digest(lay_k)
            if reference is None:
                reference = got
            else:
                tally.check(*same_digest(f"{label} {n} bytes", reference, got))
        n += 1

    peak = Tracer(modules)
    lay = round_layout(work / "peak")
    write_configs(w, seed, lay.out)
    with peak.installed(peak_pass=True):
        for stage in setup_stages(lay.out, lay) + pipeline_stages(w, seed, lay):
            run_inprocess(peak, cli, stage, tally)
    tally.check(*same_digest("peak pass bytes", reference, output_digest(lay)))

    run_checks(tally, w, seed, round_layout(work / "round0"))
    fits = [s for s in traced.spans if s.name == "fusion.fit"]

    def monotone():
        for s in fits:
            trace = s.info["fitted"].objective_trace
            if not (trace[1:] <= trace[:-1]).all():
                raise ValueError(f"objective rises in round {s.round}")
        return f"{len(fits)} fits, objective traces nonincreasing"

    tally.check("fusion trace", monotone)
    (WORK / f"spans-{w.name}-seed{seed}.json").write_text(json.dumps(traced.dump()) + "\n")
    print(f"  {n} traced and {n} untraced rounds; spans in {WORK.name}/spans-{w.name}-seed{seed}.json", flush=True)

    rounds = traced.rounds()
    layers = [traced.layer_seconds(r) for r in rounds]
    metrics = {name: (statistics.median(l[name] for l in layers), "s") for name in layers[0]}
    read_bytes = [sum(s.info["bytes"] for s in traced.spans if s.round == r and s.name == "dataio.read_embeddings")
                  for r in rounds]
    metrics["dataio.read_embeddings_mb_per_s"] = (
        statistics.median(b / MIB / l["dataio.read_embeddings_s"] for b, l in zip(read_bytes, layers)), "MiB/s")
    metrics["scoring.chunk_pairs_per_s"] = (
        statistics.median(w.chunk_pairs / l["scoring.score_trials_s"] for l in layers), "1/s")
    fitted, problem = fits[0].info["fitted"], fits[0].info["problem"]
    metrics["fusion.iterations"] = (fitted.iterations, "count")
    metrics["fusion.objective_gap"] = (
        fitted.objective - reference_optimum(problem.features, problem.labels, problem.lam), "nat")
    for name, value in peak.peaks.items():
        metrics[name] = (value, "MiB")
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.self_s"] = (statistics.median(traced.self_seconds(r, PIPELINE) for r in rounds), "s")
    traced_s = statistics.median(traced.stage_seconds(r, PIPELINE) for r in rounds)
    plain_s = statistics.median(plain.stage_seconds(r, PIPELINE) for r in plain.rounds())
    print(f"  in-process pipeline time: traced {traced_s:.4f} s, untraced {plain_s:.4f} s", flush=True)
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    for name in STAGES:  # each stage in-process and untraced: the per-stage view of the phase metrics
        metrics[f"cli.{name.replace('-', '_')}_s"] = (
            statistics.median(plain.stage_seconds(r, {f"cli.{name}"}) for r in plain.rounds()), "s")
    return metrics


# ---------------------------------------------------------------------------


def machine() -> str:
    """nproc, Python, numpy and the BLAS thread count, for the figures' context."""
    import ctypes
    import glob
    import platform

    import numpy

    threads = "unknown"
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
        get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            threads = get()
    return f"nproc {os.cpu_count()}, Python {platform.python_version()}, numpy {numpy.__version__}, BLAS threads {threads}"


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    print(f"{name} seed={seed} trace={int(trace)}", flush=True)
    try:
        metrics = (run_traced if trace else run_untraced)(w, seed, seconds, work, tally)
    except StageFailed as exc:
        print(f"  stage FAILED: {exc}", flush=True)
        return {"correct": False, "attempted": tally.attempted, "failed": tally.failed, "metrics": {}}
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<34} {value:>14.6f} {unit}", flush=True)
    print(f"  attempted {tally.attempted}, failed {tally.failed}; {machine()}", flush=True)
    if tally.failed == 0:
        shutil.rmtree(work)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(seed: int, seconds: float) -> dict:
    """Every workload untraced and traced, each in its own benchmark process."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            results[f"{name}/trace{trace}"] = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    print("summary (median per run; see each block above for checks)")
    for key, res in results.items():
        if res is None:
            print(f"  {key}: FAILED to run")
            continue
        print(f"  {key}: attempted {res['attempted']}, failed {res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"    {metric:<34} {v['value']:>14.6f} {v['unit']}")
    ok = [r for r in results.values() if r is not None]
    return {
        "correct": len(ok) == len(results) and all(r["correct"] for r in ok),
        "attempted": sum(r["attempted"] for r in ok),
        "failed": sum(r["failed"] for r in ok),
        "metrics": {},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0, help="length of the measured part of a run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind, so running stages are stopped
    if not (SRC / "svbackend" / "cli.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
