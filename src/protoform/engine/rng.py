"""Deterministic random number utilities.

Two generators are used throughout the package:

* ``DetRng`` -- a SplitMix64 stream in exact 64-bit integer arithmetic.
  Used for everything where bit-for-bit reproducibility across platforms
  and numpy versions is part of the contract (dataset splits, epoch
  shuffles, baseline choices, synthetic data).  Single draws run in
  Python; a shuffle computes all of its draws in one uint64 numpy
  expression, whose wrap-around arithmetic is the same on every platform.
* ``philox`` -- numpy's counter-based Philox bit generator, keyed rather
  than sequentially seeded.  Used for bulk float draws (parameter init,
  dropout masks) where pure Python would be too slow.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def mix64(*values: int) -> int:
    """Hash an arbitrary tuple of ints into one well-mixed 64-bit value."""
    h = 0x9E3779B97F4A7C15
    for v in values:
        h = (h ^ (v & _MASK64)) & _MASK64
        h = (h * 0xBF58476D1CE4E5B9) & _MASK64
        h ^= h >> 31
    return h


def stable_hash(text: str) -> int:
    """FNV-1a over UTF-8 bytes; stable across runs unlike builtin hash()."""
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


class DetRng:
    """SplitMix64 stream; deterministic regardless of platform."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def randint(self, n: int) -> int:
        """Unbiased integer in [0, n)."""
        if n <= 0:
            raise ValueError("randint needs n >= 1")
        # rejection sampling on the top multiple of n
        limit = _MASK64 - (_MASK64 + 1) % n
        while True:
            u = self.next_u64()
            if u <= limit:
                return u % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates, drawing ``randint(n)``, ``randint(n - 1)``,
        ..., ``randint(2)``.  Draw k of the stream is ``mix(state + k * gamma)``,
        so all n - 1 draws are one numpy expression; if any of them would be
        rejected (probability about n / 2**64), the loop draws one at a time."""
        n = len(items)
        if n < 2:
            return
        z = np.uint64(self._state) + np.arange(1, n, dtype=np.uint64) * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        u = z ^ (z >> np.uint64(31))
        bounds = np.arange(n, 1, -1, dtype=np.uint64)
        # randint's limit for each bound b: 2**64 - 1 - 2**64 % b
        limits = np.uint64(_MASK64) - (np.uint64(_MASK64) % bounds + np.uint64(1)) % bounds
        if (u <= limits).all():
            self._state = (self._state + (n - 1) * _GAMMA) & _MASK64
            js = (u % bounds).tolist()
        else:
            js = [self.randint(i + 1) for i in range(n - 1, 0, -1)]
        for i, j in zip(range(n - 1, 0, -1), js):
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> list[int]:
        perm = list(range(n))
        self.shuffle(perm)
        return perm


def philox(*key: int) -> np.random.Generator:
    """Counter-based generator keyed by a tuple of ints (order matters)."""
    return np.random.Generator(np.random.Philox(key=mix64(*key)))
