"""SplitMix64 and the draws built on it, against the published reference
outputs and a scalar oracle written here from the algorithm's definition."""

import numpy as np
import pytest

from aerosurrogate.rng import SplitMix64, derive_seed

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def oracle_outputs(seed: int, n: int) -> list[int]:
    """splitmix64.c's next(): add the gamma, then the finalizer."""
    out, x = [], seed & MASK
    for _ in range(n):
        x = (x + GAMMA) & MASK
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_seed_zero_matches_published_outputs():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


@pytest.mark.parametrize("seed", [0, 1, 42, -1, -12345, 2 ** 64 + 5])
def test_scalar_stream_matches_oracle(seed):
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in range(20)] == oracle_outputs(seed, 20)


@pytest.mark.parametrize("seed", [0, 7, -3])
@pytest.mark.parametrize("n", [0, 1, 5, 64])
def test_array_draw_matches_scalar_draws_and_advances_alike(seed, n):
    a, b = SplitMix64(seed), SplitMix64(seed)
    got = a.next_u64_array(n)
    assert got.dtype == np.uint64
    assert [int(v) for v in got] == [b.next_u64() for _ in range(n)]
    assert a.next_u64() == b.next_u64()


def test_uniform_array_is_top_53_bits():
    got = SplitMix64(9).uniform_array(16)
    want = [(v >> 11) * 2.0 ** -53 for v in oracle_outputs(9, 16)]
    assert got.tolist() == want
    assert np.all((got >= 0.0) & (got < 1.0))


@pytest.mark.parametrize("n", [1, 2, 3, 10, 2 ** 40 + 1])
def test_below_is_output_modulo_n(n):
    rng = SplitMix64(11)
    assert [rng.below(n) for _ in range(10)] == \
        [v % n for v in oracle_outputs(11, 10)]


@pytest.mark.parametrize("n", [0, -1])
def test_below_rejects_empty_range(n):
    with pytest.raises(ValueError):
        SplitMix64(0).below(n)


def oracle_sample(seed: int, n_total: int, n_pick: int) -> list[int]:
    draws = iter(oracle_outputs(seed, max(0, min(n_pick, n_total))))
    idx = list(range(n_total))
    for i in range(min(n_pick, n_total)):
        j = i + next(draws) % (n_total - i)
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:n_pick]


@pytest.mark.parametrize("n_total,n_pick", [(8, 2), (8, 8), (5, 9), (0, 3),
                                            (1, 1), (100, 17), (6, 0)])
def test_sample_without_replacement_matches_oracle(n_total, n_pick):
    got = SplitMix64(21).sample_without_replacement(n_total, n_pick)
    assert got == oracle_sample(21, n_total, n_pick)
    assert len(got) == min(n_total, n_pick) == len(set(got))
    assert all(0 <= i < n_total for i in got)


@pytest.mark.parametrize("n", [0, 1, 2, 9, 50])
def test_shuffle_matches_oracle(n):
    items = list(range(n))
    SplitMix64(33).shuffle(items)
    want, draws = list(range(n)), iter(oracle_outputs(33, max(0, n - 1)))
    for i in range(n - 1, 0, -1):
        j = next(draws) % (i + 1)
        want[i], want[j] = want[j], want[i]
    assert items == want
    assert sorted(items) == list(range(n))


@pytest.mark.parametrize("root", [0, 1, 1234, -1, -987654321, 2 ** 64 - 1])
@pytest.mark.parametrize("index", [0, 1, 2, 0x5A17])
def test_derive_seed_is_the_first_output_of_a_shifted_stream(root, index):
    assert derive_seed(root, index) == \
        oracle_outputs((root + GAMMA * index) & MASK, 1)[0]
