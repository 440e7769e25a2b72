"""Deterministic 64-bit random streams.

The generator is SplitMix64 (Steele/Lea/Flood mixing constants): one 64-bit
state, golden-gamma increment, avalanche finalizer.  It is tiny, has no
platform or library dependence, and is exactly reproducible, which is the
whole point here: every randomized result in this package is a pure function
of (seed, trial index).

Per-trial substreams are derived by mixing seed and index through the
finalizer separately and XORing, so trial streams are decorrelated and can be
consumed independently (and in parallel) without coordination.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 finalizer (avalanching bijection on 64-bit words).

    ``SplitMix64.next_u64`` repeats these three lines inline, one Python call
    per draw; a test pins the two copies to each other.
    """
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Seedable stream of uniform 64-bit words."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        z = self.state = (self.state + GOLDEN_GAMMA) & MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64  # mix64, inline
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)


def draw_threshold(x: Fraction) -> int:
    """ceil(x * 2^64) for a rational x in [0, 1].

    A 64-bit draw k satisfies k < draw_threshold(x) exactly when the rational
    k / 2^64 is below x, so comparing draws against it is an exact Bernoulli(x)
    up to the 2^-64 grid; x = 1 maps to 2^64 and is never missed.
    """
    return -((-x.numerator << 64) // x.denominator)


# A run derives every trial's stream from one master seed, so its mix is
# computed once; mix64 itself stays uncached, since each trial mixes a new index.
_mixed_seed = lru_cache(maxsize=16)(mix64)


def substream(seed: int, index: int) -> SplitMix64:
    """Independent stream for trial ``index`` under master ``seed``."""
    if index < 0:
        raise ValueError("index must be >= 0")
    return SplitMix64(_mixed_seed(seed) ^ mix64((index + 1) * GOLDEN_GAMMA))
