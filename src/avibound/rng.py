"""Deterministic 64-bit splitmix generator used for all sampling.

The full recurrence and three reference outputs are documented in
``docs/prng.md`` so that ports in other languages can reproduce every
generated instance bit for bit.  State update and output mix:

    state  = (state + 0x9E3779B97F4A7C15) mod 2^64
    z      = state
    z     ^= z >> 30;  z = (z * 0xBF58476D1CE4E5B9) mod 2^64
    z     ^= z >> 27;  z = (z * 0x94D049BB133111EB) mod 2^64
    z     ^= z >> 31
    output = z

Floats in [0,1) take the top 53 bits; normals come from Box-Muller on two
consecutive uniforms (the spare is cached, so draws stay reproducible).
"""

from __future__ import annotations

import math

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    z &= _MASK
    z ^= z >> 30
    z = (z * _MIX1) & _MASK
    z ^= z >> 27
    z = (z * _MIX2) & _MASK
    z ^= z >> 31
    return z


class SplitMix64:
    """Splitmix-style generator with a 64-bit state."""

    def __init__(self, seed: int):
        self._state = seed & _MASK
        self._spare_normal: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix64(self._state)

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def randint(self, lo: int, hi: int) -> int:
        """Integer uniform on [lo, hi] inclusive (modulo bias negligible here)."""
        span = hi - lo + 1
        return lo + self.next_u64() % span

    def normal(self) -> float:
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        # Box-Muller; u1 shifted away from 0 to keep log finite.
        u1 = 1.0 - self.uniform()
        u2 = self.uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare_normal = radius * math.sin(theta)
        return radius * math.cos(theta)

    def normals(self, count: int) -> list[float]:
        return [self.normal() for _ in range(count)]


def derive_seed(master_seed: int, *indices: int) -> int:
    """Child seed for a subtask, stable in (master_seed, indices).

    Each index is folded in through the output mix, so per-pair or
    per-sample streams are independent of processing order.
    """
    z = _mix64(master_seed & _MASK)
    for idx in indices:
        z = _mix64((z ^ ((idx & _MASK) + _GAMMA)) & _MASK)
    return z
