"""Markov-chain generator for the limiting p-Sylow partition measure.

The chain builds a partition column by column.  The first column height is
drawn from the parts-count distribution P(a); given the current column height
a, the next height b <= a is drawn from the exact kernel

    K(a, b) = prod_{i=1}^a (1-1/p^i)
              / ( p^(binom(b+1,2)) * prod_{i=1}^b (1-1/p^i)
                  * prod_{j=1}^{floor((a-b)/2)} (1-1/p^2j) ).

Heights stop the first time they hit 0; the sampled partition is the
conjugate of the column-height sequence.

Per trial the chain does only chain work: the first-column selector is
compiled once per SamplerConfig, kernel rows once per (height, p), and each
distinct column tuple is turned into its Partition once, after which the
same immutable instance is returned.

``sample_partition`` runs one trial on one stream.  ``sample_partitions`` and
``empirical_distribution`` take the block route: per block of DRAW_BLOCK
trials, one lane pass of ``rng.substream_draws`` computes every trial's
stream state and first CHAIN_DRAWS draws, so most chains are a few
``bisect_right`` calls on draws already made.  ``sample_partition`` on
``substream(seed, t)`` is that route's oracle.

All selection is inverse-CDF over exact rational cumulative weights, compared
against a uniform 64-bit draw k read as the rational k/2^64.  Cumulative
weights are precompiled to integer thresholds, so a draw is integer
comparisons only; the per-value probability differs from the exact mass by
less than 2^-63 (the grid resolution), which is far below anything a
desk-scale trial count can resolve.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Iterator
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import accumulate, repeat

from .measures import MAX_PARTS, MassValue, PartitionDistribution, frequency_table, pmf_parts
from .partitions import Partition, require_int
from .qseries import as_fraction, clipped, fraction_str, kernel_numerators, require_prime
from .rng import (
    DRAW_BLOCK,
    GOLDEN_GAMMA,
    SplitMix64,
    draw_threshold,
    require_seed,
    substream,
    substream_draws,
)
from .workers import split_counts, worker_count

# No realistic sample can reach this many columns (each positive height is
# left in finite expected time); hitting it means a bug, not bad luck.
MAX_COLUMNS = 10**4

DEFAULT_CUTOFF = Fraction(1, 10**12)

# Draws per trial that the block route computes with the trial's substream
# state.  At p = 2 a chain ends after 1 / 2 / 3 / 4 / 5 draws in 41.7 / 29.1 /
# 14.6 / 7.3 / 3.7 % of trials; 100k p = 2 trials of empirical_distribution
# took 0.230 / 0.173 / 0.152 / 0.126 / 0.137 / 0.138 s at 1 / 2 / 3 / 4 / 5 / 6
# draws (min of 11), against 0.53 s one trial at a time (Python 3.11.7, 2 vCPUs).
CHAIN_DRAWS = 4

# Fewest DRAW_BLOCK blocks ``empirical_distribution`` gives one worker process.
# A p = 2 block took ~2 ms and forking a worker and merging its counts ~3 ms
# (Python 3.11.7, 2 vCPUs).
MIN_WORKER_BLOCKS = 4


class SamplerConfig:
    """The chain's prime, seed and initial-column tail cutoff.  Immutable, and
    equal (and hashed alike) when the three are; the selector and kernel rows
    are compiled on first use, once per config."""

    def __init__(self, p: int, seed: int, initial_tail_cutoff=DEFAULT_CUTOFF):
        require_prime(p)
        require_seed(seed)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "initial_tail_cutoff", _require_cutoff(initial_tail_cutoff))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a SamplerConfig is immutable")

    def _values(self) -> tuple:
        return self.p, self.seed, self.initial_tail_cutoff

    def __eq__(self, other):
        if not isinstance(other, SamplerConfig):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return (f"SamplerConfig(p={self.p!r}, seed={self.seed!r}, "
                f"initial_tail_cutoff={self.initial_tail_cutoff!r})")

    @cached_property
    def _selector(self) -> tuple[int, ...]:
        # The first-column thresholds, compiled once per config.
        return _initial_selector(self.p, self.initial_tail_cutoff)

    @cached_property
    def _rows(self) -> tuple[tuple[int, ...], ...]:
        # Kernel-row thresholds for every height the selector can return;
        # heights never rise along the chain, so no other row is reached.
        return tuple(kernel_row(a, self.p).thresholds for a in range(len(self._selector)))


def _require_cutoff(cutoff) -> Fraction:
    """The initial-column tail cutoff as a Fraction, checked to lie in (0, 1)."""
    cutoff = as_fraction(cutoff)
    if not (0 < cutoff < 1):
        raise ValueError(f"cutoff must lie in (0, 1), got {cutoff}")
    return cutoff


def kernel(a: int, b: int, p: int) -> Fraction:
    """Exact transition probability K(a, b) for 0 <= b <= a (see kernel_numerators)."""
    require_prime(p)
    require_int(a, "height a", 0, MAX_PARTS, "parts")
    require_int(b, "b")
    if not (0 <= b <= a):
        raise ValueError(f"need 0 <= b <= a, got a={a}, b={b}")
    return Fraction(kernel_numerators(a, p)[b], p ** (a * (a + 1) // 2))


class KernelRow:
    """One row of the kernel: exact masses for b = 0..a, plus selection data
    (``thresholds``, the draw_threshold of each cumulative mass).  Immutable,
    and equal when both fields are."""

    __slots__ = ("masses", "thresholds")

    def __init__(self, masses: tuple[Fraction, ...], thresholds: tuple[int, ...]):
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "thresholds", thresholds)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a KernelRow is immutable")

    def __eq__(self, other):
        if not isinstance(other, KernelRow):
            return NotImplemented
        return self.masses == other.masses and self.thresholds == other.thresholds

    def __hash__(self):
        return hash((self.masses, self.thresholds))

    def __repr__(self):
        return f"KernelRow(masses={self.masses!r}, thresholds={self.thresholds!r})"

    def __reduce__(self):
        return KernelRow, (self.masses, self.thresholds)


@lru_cache(maxsize=None, typed=True)
def kernel_row(a: int, p: int) -> KernelRow:
    """Row K(a, 0..a); construction asserts the exact row sum is 1.

    The row runs on the numerators over p^(a(a+1)/2): they must sum to it,
    and each threshold is ceil(C_b 2^64 / p^(a(a+1)/2)) of the running sum
    C_b, the draw_threshold of the cumulative mass.
    """
    require_prime(p)
    require_int(a, "height a", 0, MAX_PARTS, "parts")
    denominator = p ** (a * (a + 1) // 2)
    numerators = kernel_numerators(a, p)
    total = sum(numerators)
    if total != denominator:
        raise ArithmeticError(
            f"kernel row a={a}, p={p} sums to {Fraction(total, denominator)}, not 1")
    return KernelRow(
        masses=tuple(Fraction(n, denominator) for n in numerators),
        thresholds=tuple(draw_threshold(c, denominator) for c in accumulate(numerators)))


def initial_column_distribution(p: int, cutoff=DEFAULT_CUTOFF) -> list[tuple[int, MassValue]]:
    """Parts-count masses P(0), P(1), ... until the remaining tail is below cutoff.

    The tail is _parts_tail_bound of the last retained height; it is taken on
    rational parts (the odd constant is < 1).  A cutoff that heights up to
    MAX_PARTS do not reach raises ValueError.
    """
    require_prime(p)
    cutoff = _require_cutoff(cutoff)
    values = [pmf_parts(0, p)]
    while True:
        tail = _parts_tail_bound(p, len(values) - 1, values[-1].rational)
        if tail is not None and tail <= cutoff:
            return list(enumerate(values))
        if len(values) > MAX_PARTS:
            shown, length = clipped(fraction_str(cutoff))
            shown += f" ({length})" if length else ""
            raise ValueError(f"cutoff={shown} needs heights above the parts cap {MAX_PARTS}")
        values.append(pmf_parts(len(values), p))


def _parts_tail_bound(p: int, b: int, mass: Fraction) -> Fraction | None:
    """Bound on sum_{a>b} P(a), given the rational part ``mass`` of P(b).

    Geometric domination: P(a+1)/P(a) = p^-(a+1) / (1 - p^-(a+1)) is at most
    rho = 1 / (p^(b+1) - 1) for all a >= b, so the tail is at most
    mass * rho / (1 - rho) = mass / (p^(b+1) - 2).  None while rho >= 1,
    where domination gives no bound.
    """
    n = p ** (b + 1)
    return mass / (n - 2) if n > 2 else None


def _initial_selector(p: int, cutoff: Fraction) -> tuple[int, ...]:
    """Compile the (truncated) first-column distribution to thresholds.

    Masses share the odd-product constant, so selection uses the rational
    parts directly: cumulative weights are divided by W + tail, where W is
    the retained weight and tail the rational tail bound.  The last threshold
    is 2^64, as in every kernel row, so a draw past the retained weight (a
    slice of relative width <= tail/W) selects the largest retained height,
    which is where the residual mass lives.  Heights run 0..k, so the index
    bisect_right returns is the height.
    """
    weights = [mass.rational for _, mass in initial_column_distribution(p, cutoff)]
    tail = _parts_tail_bound(p, len(weights) - 1, weights[-1])
    denom = sum(weights) + tail
    thresholds = [draw_threshold(acc / denom) for acc in accumulate(weights)]
    thresholds[-1] = 1 << 64
    return tuple(thresholds)


@lru_cache(maxsize=1 << 16)
def _partition_of_columns(columns: tuple[int, ...]) -> Partition:
    """The partition whose column heights are ``columns``, built once per tuple.

    The cache holds one entry per distinct sampled partition, which is what
    any frequency table of the samples holds anyway; the bound only stops a
    long-lived process from growing it without limit.
    """
    return Partition(columns).conjugate()


def _finish_chain(columns: list[int], height: int, p: int, draw) -> tuple[int, ...]:
    """The column heights of a chain that has reached ``height`` after
    ``columns``, drawing each further step from ``draw``."""
    while height > 0:
        columns.append(height)
        if len(columns) > MAX_COLUMNS:
            raise RuntimeError(f"column count exceeded {MAX_COLUMNS}; aborting")
        height = bisect_right(kernel_row(height, p).thresholds, draw())
    return tuple(columns)


def sample_partition(config: SamplerConfig, stream) -> Partition:
    """Draw one partition; ``stream`` supplies uniform 64-bit words.

    Samples with the same column heights return the same Partition instance.
    This is the one-trial route, and the oracle of the block route below.
    """
    draw = stream.next_u64
    return _partition_of_columns(
        _finish_chain([], bisect_right(config._selector, draw()), config.p, draw))


def _block_columns(config: SamplerConfig, stop: int, start: int = 0) -> Iterator[tuple[int, ...]]:
    """The column heights of trials start..stop-1, the same as ``sample_partition``
    on ``substream(config.seed, t)`` gives; ``start`` is a multiple of DRAW_BLOCK.

    Per block of DRAW_BLOCK trials, ``substream_draws`` computes every trial's
    stream state and its first CHAIN_DRAWS draws together; a chain still
    running after them goes on from the stream those draws leave.
    """
    selector, rows, p = config._selector, config._rows, config.p
    skip = CHAIN_DRAWS * GOLDEN_GAMMA
    for block in range(start, stop, DRAW_BLOCK):
        states, (first, *later) = substream_draws(config.seed, block, min(DRAW_BLOCK, stop - block),
                                                  CHAIN_DRAWS)
        for i, height in enumerate(map(bisect_right, repeat(selector), first)):
            if not height:
                yield ()
                continue
            columns = []
            for draws in later:
                columns.append(height)
                height = bisect_right(rows[height], draws[i])
                if not height:
                    yield tuple(columns)
                    break
            else:
                yield _finish_chain(columns, height, p, SplitMix64(states[i] + skip).next_u64)


def _block_route() -> bool:
    """Whether sampling may take ``_block_columns``, and
    ``empirical_distribution`` split its blocks across worker processes.

    It may only while this module's ``substream`` and ``sample_partition``
    are its own: a caller that replaced either one (a tracer counting
    substreams, chains and draws per trial, or a test injecting a fault) is
    owed one call of each per trial in its own process, so it gets the
    per-trial route there.  This is the rule by which ``rng.draws_below``
    draws one at a time from any stream that is not a plain SplitMix64.
    """
    return substream is _own_substream and sample_partition is _own_sample_partition


_own_substream, _own_sample_partition = substream, sample_partition


def sample_partitions(config: SamplerConfig, trials: int) -> Iterator[Partition]:
    """The partitions of trials 0, 1, ..., trials-1, lazily and in order.

    Trial t draws from substream(seed, t), so each sample is a pure function
    of (seed, t).  ``trials`` is checked when this is called, before any
    sample is drawn.
    """
    require_int(trials, "trials", 1)
    if _block_route():
        return map(_partition_of_columns, _block_columns(config, trials))
    return (sample_partition(config, substream(config.seed, t)) for t in range(trials))


def _column_counts(config: SamplerConfig, trials: int, start: int, stop: int) -> Counter:
    """Counts of the column tuples of the trials in blocks start..stop-1."""
    return Counter(_block_columns(config, min(stop * DRAW_BLOCK, trials), start * DRAW_BLOCK))


def empirical_distribution(config: SamplerConfig, trials: int) -> PartitionDistribution:
    """Frequency table over the samples of ``sample_partitions(config, trials)``.

    The table is a pure function of (seed, trials), and merges of disjoint
    trial ranges agree with a single run.  On the block route it counts
    column tuples, its whole blocks split across ``workers.split_counts``,
    and builds each distinct tuple's Partition once; distinct tuples are
    distinct partitions, so the table is the one a ``Counter`` of the
    partitions gives, in canonical order on either route and for any worker
    count.
    """
    require_int(trials, "trials", 1)
    if _block_route():
        blocks = -(-trials // DRAW_BLOCK)
        config._rows  # compiled here once, not in each worker
        columns = split_counts(partial(_column_counts, config, trials), blocks,
                               worker_count(blocks, MIN_WORKER_BLOCKS))
        counts = {_partition_of_columns(c): n for c, n in columns.items()}
    else:
        counts = Counter(sample_partitions(config, trials))
    params = {"trials": trials, "seed": config.seed,
              "cutoff": fraction_str(config.initial_tail_cutoff)}
    return frequency_table(config.p, "empirical", params, counts, trials)
