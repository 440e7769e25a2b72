"""Deterministic 64-bit random streams.

The generator is SplitMix64 (Steele/Lea/Flood mixing constants): one 64-bit
state, golden-gamma increment, avalanche finalizer.  It is tiny, has no
platform or library dependence, and is exactly reproducible, which is the
whole point here: every randomized result in this package is a pure function
of (seed, trial index).

Per-trial substreams are derived by mixing seed and index through the
finalizer separately and XORing, so trial streams are decorrelated and can be
consumed independently without coordination: ``workers.split_counts`` runs
ranges of trials in forked worker processes, and their counts add up to
those of one process, whatever the CPU count.

Draw j of a stream is mix64(state + j*GOLDEN_GAMMA), a pure function of the
state and j, so ``draws_below`` computes a run of draws together, one 128-bit
lane per draw in a single int, and compares each with a threshold.  In the
same way many streams are drawn together, one lane per stream:
``substream_draws`` gives a block of trials' substream states and their first
draws, ``pack_lanes`` packs chosen states into one int of lanes, and
``lane_draws`` gives draws j..j+k-1 of every stream in such an int.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import lru_cache

from .partitions import require_int

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15

# Most draws ``draws_below`` packs into one int (128 bits each), so no int
# grows with the count.  Per draw the packed route measured 78 / 61 / 57 /
# 56 / 56 ns at 64 / 256 / 1024 / 4096 / 8192 lanes, flat from 512 up,
# against ~330 ns per next_u64 call (Python 3.11.7, 2 vCPUs).
DRAW_BLOCK = 1024


def mix64(z: int) -> int:
    """SplitMix64 finalizer (avalanching bijection on 64-bit words):
    ``_mix_lanes`` on one lane.

    ``SplitMix64.next_u64`` repeats its three lines inline, one Python call
    per draw; a test pins the two to each other, and tests pin the users of
    ``_mix_lanes`` to ``next_u64`` and ``substream``.
    """
    return _mix_lanes(z, MASK64)


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


def require_seed(seed: int) -> int:
    """Return seed if it is an int in [0, 2^64); raise ValueError otherwise.

    Streams reduce their seed mod 2^64, so a seed outside that range would
    repeat another seed's draws under a different name.
    """
    require_int(seed, "seed")
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    return seed


@lru_cache(maxsize=8)
def _lanes(count: int) -> tuple[int, int, int]:
    """For ``count`` 128-bit lanes: 1 in each, 2^64 - 1 in each, and
    (k+1)*GOLDEN_GAMMA mod 2^64 in lane k."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * count, "little")
    steps = int.from_bytes(b"".join(((k + 1) * GOLDEN_GAMMA & MASK64).to_bytes(16, "little")
                                    for k in range(count)), "little")
    return ones, ones * MASK64, steps


def _mix_lanes(z: int, low: int) -> int:
    """The SplitMix64 finalizer of the low 64 bits of every 128-bit lane of z.

    ``low`` holds 2^64 - 1 in each lane.  Each xor-shift is masked to the low
    64 bits of every lane, so a multiply by a 64-bit constant stays below
    2^128 and no lane carries into the next.  A result lane's bits 64..96 are
    0; its bits 97..127 hold the next lane's low bits and are never read.
    """
    z &= low
    z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
    z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
    return z ^ (z >> 31)


def _lane_masks(count: int) -> tuple[int, int]:
    """``ones`` and ``low`` of ``_lanes(count)``.  Their lanes are all alike, so
    up to DRAW_BLOCK lanes they are the block's with lanes shifted off: a count
    that changes from call to call rebuilds nothing lane by lane."""
    if count >= DRAW_BLOCK:
        return _lanes(count)[:2]
    ones, low, _ = _lanes(DRAW_BLOCK)
    drop = 128 * (DRAW_BLOCK - count)
    return ones >> drop, low >> drop


def _low_words(z: int, count: int) -> array:
    """The low 64 bits of each of the ``count`` 128-bit lanes of z."""
    words = array("Q", z.to_bytes(16 * count, "little"))[::2]
    if sys.byteorder == "big":
        words.byteswap()
    return words


def draws_below(stream, threshold: int, count: int):
    """One flag per draw of the stream's next ``count`` draws: true exactly
    when the draw is below ``threshold`` (0 <= threshold <= 2^64).  The stream
    is left where ``count`` calls to ``next_u64`` would leave it.

    A stream whose type is exactly ``SplitMix64`` is advanced in blocks of at
    most DRAW_BLOCK draws, each one int of 128-bit lanes: lane k holds
    state + (k+1)*GOLDEN_GAMMA and runs through ``_mix_lanes``.  Then the
    complement of the draw plus the threshold reaches bit 64
    exactly when the draw is below the threshold, and that bit is byte 8 of
    the lane.  Any other stream (a subclass, a test stub, a counting
    wrapper) is drawn from one ``next_u64`` call at a time: that route is
    the packed one's oracle.
    """
    if not 0 <= threshold <= MASK64 + 1:
        raise ValueError(f"threshold must lie in [0, 2^64], got {threshold}")
    if type(stream) is not SplitMix64:
        draw = stream.next_u64
        return [draw() < threshold for _ in range(count)]
    flags = bytearray()
    while count > 0:
        block = min(count, DRAW_BLOCK)
        ones, low, steps = _lanes(block)
        z = (_mix_lanes(steps + stream.state * ones, low) ^ low) + threshold * ones
        flags += z.to_bytes(16 * block, "little")[8::16]
        stream.state = (stream.state + block * GOLDEN_GAMMA) & MASK64
        count -= block
    return flags


def draw_threshold(x: Fraction | int, denominator: int = 1) -> int:
    """ceil(x / denominator * 2^64) for a rational x / denominator in [0, 1];
    x is a Fraction or an int.

    A 64-bit draw k satisfies k < draw_threshold(x) exactly when the rational
    k / 2^64 is below x, so comparing draws against it is an exact Bernoulli(x)
    up to the 2^-64 grid; x = 1 maps to 2^64 and is never missed.
    """
    return -((-x.numerator << 64) // (x.denominator * denominator))


# A run derives every trial's stream from one master seed, so its check and mix
# are computed once; typed, so that 5.0 and True do not hit int 5's entry.
# mix64 itself stays uncached, since each trial mixes a new index.
@lru_cache(maxsize=16, typed=True)
def _mixed_seed(seed: int) -> int:
    return mix64(require_seed(seed))


def substream(seed: int, index: int) -> SplitMix64:
    """Independent stream for trial ``index`` under master ``seed``."""
    require_int(index, "index", 0)
    return SplitMix64(_mixed_seed(seed) ^ mix64((index + 1) * GOLDEN_GAMMA))


def substream_draws(seed: int, start: int, count: int, k: int) -> tuple[array, list[array]]:
    """``substream`` and its first ``k`` draws for trials start..start+count-1.

    Returns (states, draws): states[i] is ``substream(seed, start + i).state``
    and draws[j][i] that stream's draw j + 1, each an array of 64-bit words.
    All of them come from one int of ``count`` 128-bit lanes: lane i of
    steps + (start*GOLDEN_GAMMA)*ones holds (start+i+1)*GOLDEN_GAMMA, which
    ``_mix_lanes`` mixes as ``substream`` does.
    """
    require_int(start, "start index", 0)
    ones, low, steps = _lanes(count)
    states = _mix_lanes(steps + (start * GOLDEN_GAMMA & MASK64) * ones, low)
    states ^= _mixed_seed(seed) * ones
    return _low_words(states, count), lane_draws(states, count, 1, k)


def lane_draws(states: int, count: int, j: int, k: int) -> list[array]:
    """Draws j..j+k-1 of the ``count`` streams whose states are the low 64 bits
    of the 128-bit lanes of ``states``, as k arrays of 64-bit words, one word
    per stream: draw j of a stream is the mix of state + j*GOLDEN_GAMMA, and
    each next one adds GOLDEN_GAMMA to every lane.  Bits 64..96 of each lane
    must be 0, as ``pack_lanes`` and ``_mix_lanes`` leave them, so no sum
    carries into the next lane.
    """
    ones, low = _lane_masks(count)
    z = states + (j * GOLDEN_GAMMA & MASK64) * ones
    gammas = GOLDEN_GAMMA * ones
    draws = []
    for _ in range(k):
        draws.append(_low_words(_mix_lanes(z, low), count))
        z += gammas
    return draws


def top_bytes(words: array) -> bytes:
    """The top byte of each 64-bit word of ``words``, in order."""
    return words.tobytes()[7 if sys.byteorder == "little" else 0::8]


def pack_lanes(words) -> int:
    """The 64-bit words, one per 128-bit lane, as one int: the inverse of
    ``_low_words``, and like it byteswapped on big-endian hosts."""
    lanes = array("Q", bytes(16 * len(words)))
    lanes[::2] = array("Q", words)
    if sys.byteorder == "big":
        lanes.byteswap()
    return int.from_bytes(lanes, "little")
