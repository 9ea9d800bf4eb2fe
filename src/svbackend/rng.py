"""Deterministic random number generation.

Every random choice in this package flows through :class:`SplitMix64` so that
results are reproducible bit for bit from a single integer seed, independent of
platform, process, and host language. The generator is the splitmix64 mixer:
a 64-bit counter advanced by the odd constant 0x9E3779B97F4A7C15 (2^64 divided
by the golden ratio) whose output is the counter passed through two
xor-shift-multiply rounds and a final xor-shift. It is equidistributed over
64-bit outputs, passes BigCrush, and is trivial to port.

Independent substreams are derived by :func:`derive_seed`, which hashes a text
label with FNV-1a (64-bit) into the seed and remixes. Substreams therefore do
not depend on the order in which a caller visits labeled items, only on the
base seed and the label.

Floating-point helpers are defined exactly:

* ``uniform`` takes the top 53 bits of one output, scaled by 2^-53, yielding
  a double in [0, 1).
* ``gauss`` is the Box-Muller transform of two uniforms, with the second value
  of each pair cached, so draws come in deterministic pairs. ``gauss_vector``
  computes a block of outputs and uniforms at once in numpy (output i of the
  stream is ``mix64(seed + i * golden)``, so a block needs no loop) and gives
  the same stream, cache included, as the same number of ``gauss`` calls. The
  logarithm, sine and cosine stay on :mod:`math`, since numpy's versions
  round differently.
* ``below(n)`` rejection-samples unbiased integers in [0, n).
* ``shuffle``/``take`` are Fisher-Yates (``take`` stops after the first k
  positions, which is enough for a uniform k-subset in selection order).
  ``take`` does not copy its input: it keeps the swapped positions in a dict
  and reads only the k chosen items, so the input may be any lazy sequence.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _box_muller(u1: float, u2: float) -> tuple[float, float]:
    """The pair of standard normals for uniforms ``u1`` in (0, 1] and ``u2`` in [0, 1)."""
    radius = math.sqrt(-2.0 * math.log(u1))
    theta = 2.0 * math.pi * u2
    return radius * math.cos(theta), radius * math.sin(theta)


def _mix64_block(z: np.ndarray) -> np.ndarray:
    """:func:`mix64` over a ``uint64`` array, whose arithmetic wraps mod 2^64."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def mix64(z: int) -> int:
    """One splitmix64 finalizer round on a 64-bit value."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def fnv1a64(text: str) -> int:
    """FNV-1a hash of the UTF-8 bytes of ``text``, 64-bit."""
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def derive_seed(seed: int, label: str) -> int:
    """Seed for the substream identified by ``label`` under the base ``seed``."""
    return mix64((seed & _MASK64) ^ fnv1a64(label))


class SplitMix64:
    """splitmix64 stream started at ``seed``. See the module docstring."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._gauss_cache: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def uniform(self) -> float:
        """Double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def below(self, n: int) -> int:
        """Unbiased integer in [0, n) by rejection."""
        if n <= 0:
            raise ValueError("below() requires n >= 1")
        # largest multiple of n that fits in 64 bits; values past it would bias
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def gauss(self) -> float:
        """Standard normal draw via Box-Muller on two uniforms."""
        if self._gauss_cache is not None:
            value = self._gauss_cache
            self._gauss_cache = None
            return value
        # u1 shifted into (0, 1] so the log is finite
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53
        u2 = (self.next_u64() >> 11) * 2.0**-53
        value, self._gauss_cache = _box_muller(u1, u2)
        return value

    def gauss_vector(self, n: int) -> np.ndarray:
        """The next ``n`` :meth:`gauss` draws, computed as one block."""
        if n < 0:
            raise ValueError("gauss_vector() requires n >= 0")
        out = np.empty(n)
        start = 0
        if n and self._gauss_cache is not None:
            out[0] = self._gauss_cache
            self._gauss_cache = None
            start = 1
        pairs = (n - start + 1) // 2
        if pairs:
            steps = np.arange(1, 2 * pairs + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
            top = _mix64_block(np.uint64(self._state) + steps) >> np.uint64(11)
            self._state = (self._state + 2 * pairs * _GOLDEN) & _MASK64
            # top 53 bits convert to float64 exactly, so these equal gauss()'s u1, u2
            u1 = (top[0::2] + np.uint64(1)).astype(np.float64) * 2.0**-53
            u2 = top[1::2].astype(np.float64) * 2.0**-53
            cos_sin = map(_box_muller, u1.tolist(), u2.tolist())
            normals = np.array(list(itertools.chain.from_iterable(cos_sin)))
            out[start:] = normals[: n - start]
            if normals.size > n - start:
                self._gauss_cache = float(normals[-1])
        return out

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def take(self, items: Sequence, k: int) -> list:
        """Uniform k-subset of ``items`` in selection order.

        The partial Fisher-Yates of a copy of ``items``, with the swapped
        positions kept in a dict instead, so only the k chosen items are read.
        """
        if k < 0:
            raise ValueError("take() requires k >= 0")
        n = len(items)
        if k > n:
            raise ValueError(f"take() requires k <= len(items), got {k} > {n}")
        moved: dict[int, int] = {}  # position -> rank now there, where it differs
        chosen = []
        for i in range(k):
            j = i + self.below(n - i)
            chosen.append(moved.get(j, j))
            moved[j] = moved.get(i, i)
        return [items[r] for r in chosen]
