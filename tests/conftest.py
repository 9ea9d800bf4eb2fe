import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parent))

from svbackend.dataio import TrialList, write_embeddings
from svbackend.synth import SynthConfig, gen_dataset

# Property tests draw the same examples on every run and carry no time limit,
# so a slow spell of the machine cannot fail them.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def trial_list(pairs, labels=None) -> TrialList:
    """The :class:`TrialList` of ``(enroll, test)`` pairs, labeled when
    ``labels`` is given."""
    pairs = list(pairs)
    return TrialList([e for e, _ in pairs], [t for _, t in pairs],
                     None if labels is None else np.array(labels, dtype=bool))


@pytest.fixture(scope="session")
def small_synth():
    """A small deterministic dataset shared by read-only tests."""
    cfg = SynthConfig(
        n_speakers=6,
        utts_per_speaker=4,
        chunks_per_utt=2,
        dim=8,
        within_spread=0.2,
        between_spread=1.0,
        seed=11,
    )
    return gen_dataset(cfg)


@pytest.fixture()
def synth_store(tmp_path, small_synth):
    """Path of an embedding store file holding ``small_synth``'s records."""
    path = str(tmp_path / "embeddings.txt")
    write_embeddings(small_synth[0], path)
    return path


@pytest.fixture()
def np_rng():
    """Test-side noise source, independent of the library generator."""
    return np.random.default_rng(987)


@pytest.fixture()
def traced_peak():
    """``traced_peak(fn, *args, **kwargs)`` calls ``fn(*args, **kwargs)`` and
    returns its result with the tracemalloc peak of the call, in bytes."""

    def run(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    return run
