"""Seeded synthetic speakers, embeddings, attributes, and trial lists.

Speaker means sit on the unit sphere around a common center, with
``between_spread`` controlling how far speakers scatter and ``within_spread``
how far each chunk embedding scatters around its speaker mean. All draws come
from the documented generator in :mod:`svbackend.rng`, so every artifact is a
pure function of the config. Attribute base values are hash-derived from the
utterance and speaker ids alone; ``attribute_noise`` adds seeded Gaussian
noise on top, so noise 0 gives attributes that depend only on the ids.
:func:`synthesize` builds all of it from a JSON config.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dataio import AttributeTable, ChunkEmbeddings, SchemaColumn, TrialList
from .errors import ToolkitError
from .rng import SplitMix64, derive_seed, fnv1a64

DEFAULT_SCHEMA = [
    SchemaColumn("gender", "categorical", "match"),
    SchemaColumn("language", "categorical", "match"),
    SchemaColumn("snr_db", "real", "identity"),
    SchemaColumn("mos", "real", "identity"),
    SchemaColumn("speech_length", "real", "log1p"),
    SchemaColumn("file_length", "real", "log1p"),
    SchemaColumn("liveness", "real", "identity"),
    SchemaColumn("bnd", "real", "identity"),
]

_LANGUAGES = ("en", "es", "de", "fr", "pt", "ru")


@dataclass(frozen=True)
class SynthConfig:
    n_speakers: int
    utts_per_speaker: int
    chunks_per_utt: int
    dim: int
    within_spread: float
    between_spread: float
    seed: int
    attribute_noise: float = 0.0

    def __post_init__(self):
        for name in ("n_speakers", "utts_per_speaker", "chunks_per_utt", "dim", "seed"):
            if type(getattr(self, name)) is not int:
                raise TypeError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("within_spread", "between_spread", "attribute_noise"):
            value = getattr(self, name)
            if not (type(value) is int or isinstance(value, float) and math.isfinite(value)):
                raise TypeError(f"{name} must be a finite number, got {value!r}")
            try:
                float(value)
            except OverflowError:
                raise ValueError(f"{name} must be a finite number, got an integer too large for a float") from None
        for name in ("n_speakers", "utts_per_speaker", "chunks_per_utt"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if not (self.within_spread > 0.0 and self.between_spread > 0.0):
            raise ValueError("spreads must be positive")
        if self.attribute_noise < 0.0:
            raise ValueError(f"attribute_noise must be >= 0, got {self.attribute_noise}")


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Each row of ``matrix`` over its Euclidean norm.

    The row-wise sum over the last axis adds each row as ``np.sum`` adds
    that row alone, so every row is the same bits as normalising it alone.
    """
    norms = np.sqrt(np.sum(matrix * matrix, axis=-1))
    if not np.all(norms > 0.0):
        raise ToolkitError("degenerate zero-norm draw")
    return matrix / norms[..., None]


def speaker_id(index: int) -> str:
    return f"spk{index:04d}"


def utt_id(speaker: str, index: int) -> str:
    return f"{speaker}_utt{index:03d}"


def gen_dataset(cfg: SynthConfig) -> tuple[list[ChunkEmbeddings], dict[str, str]]:
    """Embedding store plus speaker map, fully determined by the config.

    The draw order is fixed (center, then per speaker its mean followed by
    all chunk vectors), and spreads only scale the drawn vectors, so configs
    differing only in ``within_spread`` share identical speaker means.
    """
    rng = SplitMix64(derive_seed(cfg.seed, "dataset"))
    center = _unit_rows(rng.gauss_vector(cfg.dim))
    n_chunks = cfg.utts_per_speaker * cfg.chunks_per_utt
    records: list[ChunkEmbeddings] = []
    speaker_map: dict[str, str] = {}
    for s in range(cfg.n_speakers):
        spk = speaker_id(s)
        # one block per speaker: its mean's draws, then every chunk's, row by row
        draws = rng.gauss_vector(cfg.dim * (1 + n_chunks)).reshape(1 + n_chunks, cfg.dim)
        mean = _unit_rows(center + cfg.between_spread * draws[0])
        chunks = _unit_rows(mean + cfg.within_spread * draws[1:])
        for u in range(cfg.utts_per_speaker):
            utt = utt_id(spk, u)
            rows = slice(u * cfg.chunks_per_utt, (u + 1) * cfg.chunks_per_utt)
            records.append(ChunkEmbeddings(utt, chunks[rows]))
            speaker_map[utt] = spk
    return records, speaker_map


class _PairsByRank(Sequence):
    """The same-speaker or the cross-speaker pairs ``(utts[i], utts[j])``,
    ``i < j``, in lexicographic order of ``(i, j)``, unranked on demand.

    ``utts`` is sorted, so a speaker's utterances need not be contiguous.
    Row ``i`` holds the pairs with first index ``i``, and a bisect over the
    rows' prefix counts finds the row of a rank. In the row, the ``t``-th
    same-speaker partner is read from the speaker's sorted index list. The
    ``t``-th cross-speaker partner is ``i + 1 + t + c``, where ``c`` counts
    the speaker's later members passed on the way; a bisect over
    ``members[q] - q``, the other speakers' utterances before the speaker's
    ``q``-th one, finds it.
    """

    def __init__(self, utts: list[str], speaker_map: dict[str, str], same: bool):
        members: dict[str, list[int]] = {}
        for i, utt in enumerate(utts):
            members.setdefault(speaker_map[utt], []).append(i)
        others_before = {spk: [i - q for q, i in enumerate(indices)] for spk, indices in members.items()}
        self._utts = utts
        self._same = same
        self._members = [members[speaker_map[utt]] for utt in utts]
        self._others_before = [others_before[speaker_map[utt]] for utt in utts]
        self._slot = [0] * len(utts)  # position of i in its speaker's index list
        for indices in members.values():
            for q, i in enumerate(indices):
                self._slot[i] = q
        counts = []
        for i in range(len(utts)):
            later_same = len(self._members[i]) - 1 - self._slot[i]
            counts.append(later_same if same else len(utts) - 1 - i - later_same)
        self._starts = list(itertools.accumulate(counts, initial=0))

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, rank: int) -> tuple[str, str]:
        if not 0 <= rank < len(self):
            raise IndexError("pair rank out of range")
        i = bisect.bisect_right(self._starts, rank) - 1
        t = rank - self._starts[i]
        slot = self._slot[i]
        if self._same:
            j = self._members[i][slot + 1 + t]
        else:
            # others_before[slot] == i - slot; members after i passed before the t-th other
            passed = bisect.bisect_right(self._others_before[i], i - slot + t, lo=slot + 1) - slot - 1
            j = i + 1 + t + passed
        return self._utts[i], self._utts[j]


def gen_trials(
    records: list[ChunkEmbeddings],
    speaker_map: dict[str, str],
    n_pos: int,
    n_neg: int,
    seed: int,
) -> TrialList:
    """Seeded sample of same-speaker and cross-speaker pairs, no repetition."""
    if n_pos < 0 or n_neg < 0:
        raise ToolkitError("trial counts must be nonnegative")
    utts = sorted(rec.utt_id for rec in records)
    for utt in utts:
        if utt not in speaker_map:
            raise ToolkitError(f"utterance {utt!r} missing from speaker map")
    pos_pairs = _PairsByRank(utts, speaker_map, same=True)
    neg_pairs = _PairsByRank(utts, speaker_map, same=False)
    if n_pos > len(pos_pairs):
        raise ToolkitError(f"requested {n_pos} same-speaker pairs, only {len(pos_pairs)} available")
    if n_neg > len(neg_pairs):
        raise ToolkitError(f"requested {n_neg} cross-speaker pairs, only {len(neg_pairs)} available")
    rng = SplitMix64(derive_seed(seed, "trials"))
    pairs = rng.take(pos_pairs, n_pos) + rng.take(neg_pairs, n_neg)  # the n_pos same-speaker pairs first
    order = list(range(len(pairs)))
    rng.shuffle(order)
    return TrialList([pairs[i][0] for i in order], [pairs[i][1] for i in order], np.array(order) < n_pos)


def _hash_uniform(key: str) -> float:
    return (fnv1a64(key) >> 11) * 2.0**-53


def gen_attributes(
    records: list[ChunkEmbeddings],
    speaker_map: dict[str, str],
    cfg: SynthConfig,
) -> AttributeTable:
    """Attribute table over the store's utterances for the default schema.

    Gender and language are speaker-consistent categoricals. Real columns
    are hash-derived base values plus ``attribute_noise`` times a seeded
    Gaussian, clamped to their documented ranges.
    """
    table = AttributeTable(columns=tuple(col.name for col in DEFAULT_SCHEMA))
    for rec in records:
        utt = rec.utt_id
        if utt not in speaker_map:
            raise ToolkitError(f"utterance {utt!r} missing from speaker map")
        spk = speaker_map[utt]
        noise_rng = SplitMix64(derive_seed(cfg.seed, f"attr/{utt}"))

        def noisy(base: float) -> float:
            if cfg.attribute_noise == 0.0:
                return base
            return base + cfg.attribute_noise * noise_rng.gauss()

        file_length = max(0.1, noisy(3.0 + 57.0 * _hash_uniform(f"{utt}/file_length")))
        speech_base = file_length * (0.3 + 0.7 * _hash_uniform(f"{utt}/speech_length"))
        row: dict[str, float | str | None] = {
            "gender": "f" if fnv1a64(f"{spk}/gender") & 1 else "m",
            "language": _LANGUAGES[fnv1a64(f"{spk}/language") % len(_LANGUAGES)],
            "snr_db": noisy(30.0 * _hash_uniform(f"{utt}/snr_db")),
            "mos": min(5.0, max(1.0, noisy(1.0 + 4.0 * _hash_uniform(f"{utt}/mos")))),
            "speech_length": min(file_length, max(0.01, noisy(speech_base))),
            "file_length": file_length,
            "liveness": min(1.0, max(0.0, noisy(_hash_uniform(f"{utt}/liveness")))),
            "bnd": min(1.0, max(0.0, noisy(_hash_uniform(f"{utt}/bnd")))),
        }
        table.rows[utt] = row
    return table


def synthesize(
    text: str, path: str
) -> tuple[list[ChunkEmbeddings], dict[str, str], AttributeTable, TrialList | None]:
    """What a JSON config of :class:`SynthConfig` fields and an optional ``trials``
    block (integer ``n_pos``, ``n_neg`` and ``seed``) describes, with the trials
    drawn; a malformed config raises :class:`ToolkitError` naming ``path``."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ToolkitError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ToolkitError(f"{path}: config must be a JSON object")
    trials_spec = payload.pop("trials", None)
    try:
        config = SynthConfig(**payload)
    except (TypeError, ValueError) as exc:
        raise ToolkitError(f"{path}: {exc}") from None
    if trials_spec is not None:
        if not isinstance(trials_spec, dict) or set(trials_spec) - {"n_pos", "n_neg", "seed"}:
            raise ToolkitError(f"{path}: trials must be an object with n_pos, n_neg, seed")
        trials_spec = {"n_pos": 0, "n_neg": 0, "seed": config.seed, **trials_spec}
        for name, value in trials_spec.items():
            if type(value) is not int:
                raise ToolkitError(f"{path}: trials.{name} must be an integer, got {value!r}")
    records, speaker_map = gen_dataset(config)
    trials = None if trials_spec is None else gen_trials(records, speaker_map, **trials_spec)
    return records, speaker_map, gen_attributes(records, speaker_map, config), trials
