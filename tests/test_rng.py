"""The seeded generator against straight-line reference reimplementations."""

import math
from collections.abc import Sequence

import numpy as np
import pytest

from svbackend.rng import SplitMix64, derive_seed, fnv1a64, mix64

MASK = (1 << 64) - 1


def ref_mix(z: int) -> int:
    z &= MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def ref_stream(seed: int, n: int) -> list[int]:
    state = seed & MASK
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        out.append(ref_mix(state))
    return out


def ref_fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & MASK
    return h


@pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1, 123456789])
def test_stream_matches_reference(seed):
    gen = SplitMix64(seed)
    assert [gen.next_u64() for _ in range(50)] == ref_stream(seed, 50)


def test_mix64_matches_reference():
    for z in [0, 1, 7, 2**63, MASK, 0xDEADBEEF]:
        assert mix64(z) == ref_mix(z)


def test_outputs_are_64_bit():
    gen = SplitMix64(3)
    for _ in range(100):
        assert 0 <= gen.next_u64() <= MASK


def test_fnv1a64_matches_reference():
    for text in ["", "a", "cohort/spk0001", "trials", "étude"]:
        assert fnv1a64(text) == ref_fnv1a64(text)


def test_derive_seed_is_mix_of_seed_xor_label_hash():
    seed, label = 99, "cohort/spk0003"
    assert derive_seed(seed, label) == ref_mix(seed ^ ref_fnv1a64(label))


def test_derive_seed_separates_labels():
    seeds = {derive_seed(5, f"label{i}") for i in range(100)}
    assert len(seeds) == 100
    assert derive_seed(5, "x") == derive_seed(5, "x")
    assert derive_seed(5, "x") != derive_seed(6, "x")


def test_uniform_is_top_53_bits():
    raw = ref_stream(17, 200)
    gen = SplitMix64(17)
    for u in raw:
        value = gen.uniform()
        assert value == (u >> 11) * 2.0**-53
        assert 0.0 <= value < 1.0


def test_below_range_and_rejection_determinism():
    gen = SplitMix64(8)
    draws = [gen.below(10) for _ in range(10000)]
    assert all(0 <= d < 10 for d in draws)
    counts = [draws.count(v) for v in range(10)]
    assert min(counts) > 700 and max(counts) < 1300
    assert SplitMix64(8).below(1) == 0


def test_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        SplitMix64(0).below(0)


def test_gauss_matches_box_muller_reference():
    raw = ref_stream(21, 4)
    u1 = ((raw[0] >> 11) + 1) * 2.0**-53
    u2 = (raw[1] >> 11) * 2.0**-53
    radius = math.sqrt(-2.0 * math.log(u1))
    theta = 2.0 * math.pi * u2
    gen = SplitMix64(21)
    assert gen.gauss() == radius * math.cos(theta)
    assert gen.gauss() == radius * math.sin(theta)


def test_gauss_pair_consumes_two_outputs():
    a = SplitMix64(13)
    a.gauss()
    a.gauss()
    b = SplitMix64(13)
    b.next_u64()
    b.next_u64()
    assert a.next_u64() == b.next_u64()


def test_gauss_moments_are_sane():
    gen = SplitMix64(2024)
    draws = gen.gauss_vector(20000)
    mean = sum(draws) / len(draws)
    var = sum((d - mean) ** 2 for d in draws) / len(draws)
    assert abs(mean) < 0.05
    assert 0.94 < var < 1.06


def scalar_gauss(gen: SplitMix64, n: int) -> np.ndarray:
    return np.array([gen.gauss() for _ in range(n)], dtype=np.float64)


def same_state(a: SplitMix64, b: SplitMix64) -> bool:
    return a._state == b._state and a._gauss_cache == b._gauss_cache


@pytest.mark.parametrize("seed", [0, 21, 2**64 - 1])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 128, 129, 1001])
def test_gauss_vector_equals_scalar_gauss_calls(seed, n):
    for primed in (False, True):  # primed: a cached second value is pending
        block, scalar = SplitMix64(seed), SplitMix64(seed)
        if primed:
            assert block.gauss() == scalar.gauss()
        got = block.gauss_vector(n)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == scalar_gauss(scalar, n).tobytes()
        assert same_state(block, scalar)
        assert block.next_u64() == scalar.next_u64()


def test_gauss_vector_interleaves_with_gauss_and_next_u64():
    script = [("v", 5), ("g", 1), ("v", 2), ("u", 1), ("v", 1), ("v", 1), ("g", 1),
              ("v", 4), ("u", 3), ("v", 0), ("g", 1), ("v", 3), ("v", 6), ("u", 1)]
    block, scalar = SplitMix64(77), SplitMix64(77)
    for op, n in script:
        if op == "v":
            assert block.gauss_vector(n).tobytes() == scalar_gauss(scalar, n).tobytes()
        elif op == "g":
            assert block.gauss() == scalar.gauss()
        else:
            assert [block.next_u64() for _ in range(n)] == [scalar.next_u64() for _ in range(n)]
        assert same_state(block, scalar)


def test_gauss_vector_rejects_negative_size():
    with pytest.raises(ValueError):
        SplitMix64(0).gauss_vector(-1)


def test_shuffle_matches_reference_fisher_yates():
    items = list(range(20))
    gen = SplitMix64(55)
    gen.shuffle(items)

    replay = SplitMix64(55)
    expected = list(range(20))
    for i in range(19, 0, -1):
        j = replay.below(i + 1)
        expected[i], expected[j] = expected[j], expected[i]
    assert items == expected
    assert sorted(items) == list(range(20))


def test_take_matches_reference_partial_fisher_yates():
    items = [f"u{i}" for i in range(15)]
    gen = SplitMix64(7)
    got = gen.take(items, 6)

    replay = SplitMix64(7)
    pool = list(items)
    for i in range(6):
        j = i + replay.below(len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    assert got == pool[:6]
    assert items == [f"u{i}" for i in range(15)]
    assert len(set(got)) == 6 and set(got) <= set(items)


class ReadLog(Sequence):
    """``range(n)`` that records which positions were read."""

    def __init__(self, n: int):
        self.n = n
        self.reads: list[int] = []

    def __len__(self):
        return self.n

    def __getitem__(self, r):
        if not 0 <= r < self.n:
            raise IndexError(r)
        self.reads.append(r)
        return f"u{r}"


@pytest.mark.parametrize("n, k", [(15, 6), (15, 15), (1, 1), (5000, 40), (7, 0)])
def test_take_on_lazy_sequence_matches_copying_reference(n, k):
    lazy = ReadLog(n)
    got = SplitMix64(7).take(lazy, k)

    replay = SplitMix64(7)
    pool = [f"u{i}" for i in range(n)]
    for i in range(k):
        j = i + replay.below(len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    assert got == pool[:k]
    assert sorted(lazy.reads) == sorted(int(u[1:]) for u in got)  # only the k picks are read


def test_take_bounds():
    gen = SplitMix64(1)
    assert gen.take([], 0) == []
    with pytest.raises(ValueError):
        gen.take([1, 2], 3)
    with pytest.raises(ValueError):
        gen.take([1, 2], -1)
