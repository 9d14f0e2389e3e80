"""Deterministic pseudo-random numbers for seeded audits.

A fixed xorshift64* generator, chosen so that a port in any language can
reproduce audit transcripts bit for bit.  State update, on 64-bit words:

    x ^= x >> 12
    x ^= x << 25
    x ^= x >> 27
    output = (x * 0x2545F4914F6CDD1D) mod 2**64

Seed 0 is remapped to a fixed odd constant because the all-zero state is a
fixed point of the update.
"""

_MASK = (1 << 64) - 1
_MULT = 0x2545F4914F6CDD1D
_ZERO_SEED = 0x9E3779B97F4A7C15


class Xorshift64Star:
    def __init__(self, seed: int):
        self._x = (seed & _MASK) or _ZERO_SEED

    def next_u64(self) -> int:
        x = self._x
        x ^= x >> 12
        x ^= (x << 25) & _MASK
        x ^= x >> 27
        self._x = x
        return (x * _MULT) & _MASK

    def below(self, n: int) -> int:
        """Uniform-ish integer in [0, n); n must be positive."""
        return self.next_u64() % n
