"""Deterministic 64-bit RNG (splitmix64) so seeded runs reproduce exactly.

splitmix64 with the usual constants: state advances by 0x9E3779B97F4A7C15
per draw; the output mix is the Stafford mix13 variant.  Identical seeds
give identical streams on every platform.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Uniform-enough draw from range(n) (64-bit modulo; n << 2**64)."""
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        return self.next_u64() % n

    def shuffle(self, seq: list) -> None:
        for i in range(len(seq) - 1, 0, -1):
            j = self.randrange(i + 1)
            seq[i], seq[j] = seq[j], seq[i]
