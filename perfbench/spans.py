"""In-process tracing of the program from outside it.

A :class:`Tracer` replaces the module attributes that ``svbackend.cli``
calls with wrappers that record a span (name, start, end, parent span,
stage, round) per call, and restores the originals when ``installed()``
ends. The program's files are not touched: ``cli`` looks these attributes
up on the module at call time, so the wrappers see every call the CLI makes.

Layer times are sums over spans whose parent lies in another module, so a
reader's nested ``read_text`` or a writer's nested ``atomic_write_text`` is
counted once, inside its caller. ``dataio.format_float`` is not wrapped:
dataio's own writers call it once per value and a wrapper there would time
the tracer, not the program.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
import tracemalloc
from dataclasses import dataclass, field

MIB = float(1 << 20)

# (module, attribute) -> per-layer time metric it adds to; None for calls
# that belong to the module's layer but to no reported metric.
WRAPPED = {
    ("dataio", "read_embeddings"): "dataio.read_embeddings_s",
    ("dataio", "write_embeddings"): "dataio.write_embeddings_s",
    **{("dataio", name): "dataio.read_tables_s" for name in (
        "read_text", "read_trials", "sniff_trial_labels", "read_scores", "read_speaker_map",
        "read_schema", "read_attributes", "read_trial_features", "load_fusion_model")},
    **{("dataio", name): "dataio.write_tables_s" for name in (
        "atomic_write_text", "write_scores", "write_trials", "write_speaker_map",
        "write_attributes", "write_schema", "write_trial_features", "save_fusion_model")},
    ("dataio", "embeddings_by_id"): None,
    ("dataio", "check_score_alignment"): None,
    ("scoring", "score_trials"): "scoring.score_trials_s",
    ("asnorm", "build_cohort"): "asnorm.build_cohort_s",
    ("asnorm", "asnorm_trials"): "asnorm.asnorm_trials_s",
    ("qmf", "trial_feature_matrix"): "qmf.trial_feature_matrix_s",
    ("qmf", "minmax_fit"): "qmf.minmax_s",
    ("qmf", "minmax_apply"): "qmf.minmax_s",
    ("fusion", "fit"): "fusion.fit_s",
    ("fusion", "apply_model"): "fusion.apply_s",
    ("metrics", "evaluate"): "metrics.evaluate_s",
    ("curation", "profiles_from_store"): "curation.profiles_s",
    ("curation", "ddf_select"): "curation.ddf_select_s",
    ("synth", "gen_dataset"): "synth.gen_dataset_s",
    ("synth", "gen_attributes"): "synth.gen_attributes_s",
    ("synth", "gen_trials"): "synth.gen_trials_s",
}

# Calls whose allocation peak the separate tracemalloc pass records. Only
# the first call of each is traced: read_embeddings is first called on the
# source store, which every later stage re-reads and which is larger than
# the target store; the others run once per pass.
PEAKED = {
    ("dataio", "read_embeddings"): "dataio.read_embeddings_peak_mb",
    ("scoring", "score_trials"): "scoring.score_trials_peak_mb",
    ("asnorm", "asnorm_trials"): "asnorm.asnorm_trials_peak_mb",
    ("curation", "ddf_select"): "curation.ddf_select_peak_mb",
    ("synth", "gen_trials"): "synth.gen_trials_peak_mb",
}


@dataclass
class Span:
    id: int
    name: str  # "<module>.<attribute>", or "cli.<subcommand>" for a stage
    parent: int | None
    stage: str
    round: int
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Span recorder for one process: run stages inside ``installed()``."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> module object
        self.spans: list[Span] = []
        self.peaks: dict[str, float] = {}
        self.round = 0
        self._stack: list[Span] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent.id if parent else None,
                    parent.stage if parent else name, self.round, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def stage(self, name: str, run):
        """Run ``run()`` as the stage span ``cli.<name>`` and return its result."""
        span = self._open(f"cli.{name}")
        try:
            return run()
        finally:
            self._close(span)

    # -- wrappers ------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, peak_pass: bool = False):
        """Wrap every attribute in WRAPPED (timing pass) or PEAKED (memory pass)
        for the duration of the block, then put the originals back."""
        originals = {}
        try:
            for key in PEAKED if peak_pass else WRAPPED:
                module = self.modules[key[0]]
                originals[key] = original = getattr(module, key[1])
                wrapper = self._peak_wrapper(key, original) if peak_pass else self._span_wrapper(key, original)
                setattr(module, key[1], wrapper)
            yield
        finally:
            for (module, attr), original in originals.items():
                setattr(self.modules[module], attr, original)

    def _span_wrapper(self, key, original):
        name = f"{key[0]}.{key[1]}"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if key == ("dataio", "read_embeddings"):
                span.info["bytes"] = os.path.getsize(args[0])
            elif key == ("fusion", "fit"):
                span.info["fitted"] = result
                span.info["problem"] = args[0]
            return result

        return wrapper

    def _peak_wrapper(self, key, original):
        metric = PEAKED[key]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if metric in self.peaks:  # first call only: later ones repeat it or are smaller
                return original(*args, **kwargs)
            tracemalloc.start()
            try:
                return original(*args, **kwargs)
            finally:
                self.peaks[metric] = tracemalloc.get_traced_memory()[1] / MIB
                tracemalloc.stop()

        return wrapper

    # -- derived numbers -----------------------------------------------------

    def rounds(self) -> list[int]:
        return sorted({s.round for s in self.spans})

    def layer_seconds(self, rnd: int) -> dict[str, float]:
        """Per-layer time metrics of one round, nested same-module calls counted once."""
        by_id = {s.id: s for s in self.spans}
        totals = {m: 0.0 for m in WRAPPED.values() if m}
        for s in self.spans:
            if s.round != rnd or s.name.startswith("cli."):
                continue
            metric = WRAPPED[tuple(s.name.split(".", 1))]
            parent = by_id[s.parent] if s.parent is not None else None
            if metric and (parent is None or parent.module != s.module):
                totals[metric] += s.seconds
        return totals

    def self_seconds(self, rnd: int, stages: set[str]) -> float:
        """Stage time not covered by any layer span, summed over ``stages``."""
        covered: dict[int, float] = {}
        for s in self.spans:
            if s.round == rnd and s.parent is not None:
                covered[s.parent] = covered.get(s.parent, 0.0) + s.seconds
        return sum(s.seconds - covered.get(s.id, 0.0) for s in self.spans
                   if s.round == rnd and s.parent is None and s.name in stages)

    def stage_seconds(self, rnd: int, stages: set[str]) -> float:
        return sum(s.seconds for s in self.spans if s.round == rnd and s.parent is None and s.name in stages)

    def dump(self) -> list[dict]:
        """Spans as JSON-ready records; parents by id."""
        return [{"id": s.id, "name": s.name, "parent": s.parent, "stage": s.stage, "round": s.round,
                 "start": s.start, "end": s.end} for s in self.spans]
