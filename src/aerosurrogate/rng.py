"""Deterministic, cross-platform random number generation.

All stochastic choices in this package (parameter init, sampling,
shuffling, dataset generation) flow through SplitMix64 so that a seed
fully determines the output on every platform.
"""

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def mix64(z):
    """Finalization mix of SplitMix64 (Steele, Lea & Flood), of an int or,
    elementwise, of a uint64 array."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 stream. State advances by a fixed odd gamma per draw."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return mix64(self._state)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n). Modulo reduction; the tiny bias is
        irrelevant here, determinism is what matters."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        return self.next_u64() % n

    def next_u64_array(self, n: int) -> np.ndarray:
        """Vectorized draw of n outputs; advances the state by n steps."""
        with np.errstate(over="ignore"):
            k = np.arange(1, n + 1, dtype=np.uint64)
            z = np.uint64(self._state) + np.uint64(_GAMMA) * k
            self._state = (self._state + _GAMMA * n) & _MASK
            return mix64(z)

    def uniform_array(self, n: int) -> np.ndarray:
        """Vectorized uniform doubles in [0, 1)."""
        return (self.next_u64_array(n) >> np.uint64(11)) * (2.0 ** -53)

    def sample_without_replacement(self, n_total: int, n_pick: int) -> list[int]:
        """Partial Fisher-Yates over [0, n_total); returns n_pick indices
        in draw order (unsorted)."""
        n_pick = min(n_pick, n_total)
        idx = list(range(n_total))
        for i in range(n_pick):
            j = i + self.below(n_total - i)
            idx[i], idx[j] = idx[j], idx[i]
        return idx[:n_pick]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def derive_seed(root_seed: int, index: int) -> int:
    """Child seed for parallel-safe per-item streams."""
    return mix64((root_seed + _GAMMA * (index + 1)) & _MASK)


def fnv1a64(s: str) -> int:
    """FNV-1a over UTF-8 bytes; used for stable train/val splitting."""
    h = 0xCBF29CE484222325
    for b in s.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK
    return h
