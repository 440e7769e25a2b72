"""Markov-chain generator for the limiting p-Sylow partition measure.

The chain builds a partition column by column.  The first column height is
drawn from the parts-count distribution P(a); given the current column height
a, the next height b <= a is drawn from the exact kernel

    K(a, b) = prod_{i=1}^a (1-1/p^i)
              / ( p^(binom(b+1,2)) * prod_{i=1}^b (1-1/p^i)
                  * prod_{j=1}^{floor((a-b)/2)} (1-1/p^2j) ).

Heights stop the first time they hit 0; the sampled partition is the
conjugate of the column-height sequence.

Per trial the chain does only chain work: the first-column selector and the
kernel rows it can reach are compiled once per SamplerConfig, and each
distinct column tuple is turned into its Partition once, after which the
same immutable instance is returned.

``sample_partition`` runs one trial on one stream.  ``sample_partitions`` and
``empirical_distribution`` take the block route, in which the chains of a
block of DRAW_BLOCK trials run in rounds of ROUND_DRAWS draws.  One lane pass
of ``rng.substream_draws`` computes every trial's stream state and its first
round; after each round, the states of the chains still running are packed
into one smaller lane int, and one ``rng.lane_draws`` pass gives just those
streams their next round.  Each chain is kept as one int key that encodes
its column heights, so counts are kept on ints, and each distinct key
becomes its Partition once.  ``sample_partition`` on ``substream(seed, t)``
is that route's oracle.

All selection is inverse-CDF over exact rational cumulative weights, compared
against a uniform 64-bit draw k read as the rational k/2^64.  Cumulative
weights are precompiled to integer thresholds, so a draw is integer
comparisons only; the per-value probability differs from the exact mass by
less than 2^-64: each threshold rounds its cumulative weight up by less than
2^-64, so the difference of two is off by less than that, far below anything
a desk-scale trial count can resolve.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Iterator
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import accumulate, chain, compress, repeat

from .measures import MAX_PARTS, MassValue, PartitionDistribution, frequency_table, pmf_parts
from .partitions import Frozen, Partition, require_int
from .qseries import as_fraction, echo, fraction_str, kernel_numerators, require_prime
from .rng import (
    DRAW_BLOCK,
    draw_threshold,
    lane_draws,
    pack_lanes,
    require_seed,
    substream,
    substream_draws,
    top_bytes,
)
from .workers import split_counts, worker_count

# No realistic sample can reach this many columns (each positive height is
# left in finite expected time); hitting it means a bug, not bad luck.
MAX_COLUMNS = 10**4

DEFAULT_CUTOFF = Fraction(1, 10**12)

# Draws per chain per round of the block route.  A longer round computes more
# draws that ended chains never read (at p = 2, 42 / 29 / 15 / 7 % of chains
# end after 1 / 2 / 3 / 4 draws), a shorter one makes more lane passes.  10^5
# trials of _key_counts took 78 / 66 / 65 / 68 / 72 ms at p = 2, 50 / 46 / 47 /
# 51 / 57 ms at p = 3 and 35 / 36 / 40 / 45 / 52 ms at p = 5 at 1 / 2 / 3 / 4 / 5
# draws per round (CPU, min of 15, Python 3.11.7, 2 vCPUs).
ROUND_DRAWS = 2

# Fewest DRAW_BLOCK blocks ``empirical_distribution`` gives one worker process.
# A p = 2 block took ~2 ms and forking a worker and merging its counts ~3 ms
# (Python 3.11.7, 2 vCPUs).
MIN_WORKER_BLOCKS = 4


class SamplerConfig(Frozen):
    """The chain's prime, seed and initial-column tail cutoff.  Immutable, and
    equal (and hashed alike) when the three are; the selector and kernel rows
    are compiled on first use, once per config, into its ``__dict__``."""

    _fields = ("p", "seed", "initial_tail_cutoff")

    def __init__(self, p: int, seed: int, initial_tail_cutoff=DEFAULT_CUTOFF):
        require_prime(p)
        require_seed(seed)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "initial_tail_cutoff", _require_cutoff(initial_tail_cutoff))

    @cached_property
    def _selector(self) -> tuple[int, ...]:
        # The first-column thresholds, compiled once per config.
        return _initial_selector(self.p, self.initial_tail_cutoff)

    @cached_property
    def _first_heights(self) -> bytes:
        # The selector's heights by a first draw's top byte (see _top_byte_index).
        return _top_byte_index(self._selector)

    @cached_property
    def _rows(self) -> tuple[tuple[int, ...], ...]:
        # Kernel-row thresholds for every height the selector can return;
        # heights never rise along the chain, so no other row is reached.
        return tuple(kernel_row(a, self.p) for a in range(len(self._selector)))


def _require_cutoff(cutoff) -> Fraction:
    """The initial-column tail cutoff as a Fraction, checked to lie in (0, 1)."""
    cutoff = as_fraction(cutoff)
    if not (0 < cutoff < 1):
        raise ValueError(f"cutoff must lie in (0, 1), got {echo(cutoff)}")
    return cutoff


def kernel(a: int, b: int, p: int) -> Fraction:
    """Exact transition probability K(a, b) for 0 <= b <= a (see kernel_numerators)."""
    require_prime(p)
    require_int(a, "height a", 0, MAX_PARTS, "parts")
    require_int(b, "b")
    if not (0 <= b <= a):
        raise ValueError(f"need 0 <= b <= a, got a={a}, b={b}")
    return Fraction(kernel_numerators(a, p)[b], p ** (a * (a + 1) // 2))


@lru_cache(maxsize=None, typed=True)
def kernel_row(a: int, p: int) -> tuple[int, ...]:
    """The selection thresholds of row K(a, 0..a); raises unless its exact sum is 1.

    The row runs on the numerators over p^(a(a+1)/2): they must sum to it,
    and each threshold is ceil(C_b 2^64 / p^(a(a+1)/2)) of the running sum
    C_b, the draw_threshold of the cumulative mass, so the last is 2^64.
    """
    require_prime(p)
    require_int(a, "height a", 0, MAX_PARTS, "parts")
    denominator = p ** (a * (a + 1) // 2)
    numerators = kernel_numerators(a, p)
    total = sum(numerators)
    if total != denominator:
        raise ArithmeticError(
            f"kernel row a={a}, p={p} sums to {Fraction(total, denominator)}, not 1")
    return tuple(draw_threshold(c, denominator) for c in accumulate(numerators))


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
            raise ValueError(f"cutoff={echo(cutoff)} needs heights above the parts cap {MAX_PARTS}")
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


# The _top_byte_index entry of a top byte that a threshold splits.
SPLIT = 255


def _top_byte_index(thresholds: tuple[int, ...]) -> bytes:
    """For each top byte t of a 64-bit draw: the index ``bisect_right`` gives
    every draw in [t*2^56, (t+1)*2^56), or SPLIT where a threshold lies inside
    that range and the draws disagree.  The index never falls as the draw
    rises, so the range's two ends decide.

    A selector has at most MAX_PARTS + 1 thresholds, so no index is SPLIT and
    at most MAX_PARTS bytes are split; ``bytes.translate`` reads a block's
    other first columns from the table at once.
    """
    table = bytearray()
    for top in range(256):
        index = bisect_right(thresholds, top << 56)
        table.append(index if index == bisect_right(thresholds, (top + 1 << 56) - 1) else SPLIT)
    return bytes(table)


@lru_cache(maxsize=1 << 16)
def _partition_of_columns(columns: tuple[int, ...]) -> Partition:
    """The partition whose column heights are ``columns``, built once per tuple.

    The cache holds one entry per distinct sampled partition, which is what
    any frequency table of the samples holds anyway; the bound only stops a
    long-lived process from growing it without limit.
    """
    return Partition(columns).conjugate()


def _finish_chain(columns: list[int], height: int, rows, draw) -> tuple[int, ...]:
    """The column heights of a chain that has reached ``height`` after
    ``columns``, each further step a draw from ``draw`` against ``rows``, a
    config's compiled kernel rows."""
    while height > 0:
        columns.append(height)
        if len(columns) > MAX_COLUMNS:
            raise RuntimeError(f"column count exceeded {MAX_COLUMNS}; aborting")
        height = bisect_right(rows[height], draw())
    return tuple(columns)


def sample_partition(config: SamplerConfig, stream) -> Partition:
    """Draw one partition; ``stream`` supplies uniform 64-bit words.

    Samples with the same column heights return the same Partition instance.
    This is the one-trial route, and the oracle of the block route below.
    """
    draw = stream.next_u64
    return _partition_of_columns(
        _finish_chain([], bisect_right(config._selector, draw()), config._rows, draw))


def _block_keys(config: SamplerConfig, stop: int, start: int = 0) -> Iterator[list[int]]:
    """The chain keys of trials start..stop-1, one list per block of DRAW_BLOCK
    trials; ``start`` is a multiple of DRAW_BLOCK.  Trial t's chain is the one
    ``sample_partition`` runs on ``substream(config.seed, t)``.

    A chain's key folds its column heights in base K = len(config._rows), most
    significant first: each column h turns key into key*K + h.  Heights are
    1..K-1, so ``_partition_of_key`` reads the columns back.  A block's chains
    run in rounds.  ``substream_draws`` gives every trial's stream state and
    its first ROUND_DRAWS draws; the first draws' top bytes select most first
    columns in one ``bytes.translate``.  After each round every chain still
    running has taken the same number of draws, so one ``lane_draws`` pass on
    their packed states gives just them their next ones.
    """
    selector, rows = config._selector, config._rows
    base = len(rows)
    for block in range(start, stop, DRAW_BLOCK):
        states, (first, *draws) = substream_draws(config.seed, block,
                                                  min(DRAW_BLOCK, stop - block), ROUND_DRAWS)
        heights = top_bytes(first).translate(config._first_heights)
        keys = list(heights)
        i = heights.find(SPLIT)
        while i >= 0:
            keys[i] = bisect_right(selector, first[i])
            i = heights.find(SPLIT, i + 1)
        running = lanes = list(compress(range(len(keys)), keys))  # trials, and their lanes
        taken = ROUND_DRAWS  # draws each running chain has taken, one per column
        while True:
            still, words = [], []
            for i, lane in zip(running, lanes):
                key = keys[i]
                height = key % base
                for draw in draws:
                    height = bisect_right(rows[height], draw[lane])
                    if not height:
                        break
                    key = key * base + height
                else:
                    still.append(i)
                    words.append(states[i])
                keys[i] = key
            if not still:
                break
            if taken > MAX_COLUMNS:
                raise RuntimeError(f"column count exceeded {MAX_COLUMNS}; aborting")
            # a round stops where a chain's columns pass MAX_COLUMNS, as the oracle does
            draws = lane_draws(pack_lanes(words), len(words), taken + 1,
                               min(ROUND_DRAWS, MAX_COLUMNS + 1 - taken))
            taken += len(draws)
            running, lanes = still, range(len(still))
        yield keys


@lru_cache(maxsize=1 << 16)
def _partition_of_key(key: int, base: int) -> Partition:
    """The partition of a ``_block_keys`` key in base ``base``, decoded once per key."""
    columns = []
    while key:
        key, height = divmod(key, base)
        columns.append(height)
    return _partition_of_columns(tuple(reversed(columns)))


def _block_route() -> bool:
    """Whether sampling may take ``_block_keys``, and
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
        return map(_partition_of_key, chain.from_iterable(_block_keys(config, trials)),
                   repeat(len(config._rows)))
    return (sample_partition(config, substream(config.seed, t)) for t in range(trials))


def _key_counts(config: SamplerConfig, trials: int, start: int, stop: int) -> Counter:
    """Counts of the chain keys of the trials in blocks start..stop-1."""
    return Counter(chain.from_iterable(
        _block_keys(config, min(stop * DRAW_BLOCK, trials), start * DRAW_BLOCK)))


def empirical_distribution(config: SamplerConfig, trials: int) -> PartitionDistribution:
    """Frequency table over the samples of ``sample_partitions(config, trials)``.

    The table is a pure function of (seed, trials), and merges of disjoint
    trial ranges agree with a single run.  On the block route it counts
    chain keys, its whole blocks split across ``workers.split_counts``, and
    builds each distinct key's Partition once; distinct keys are distinct
    column tuples and so distinct partitions, so the table is the one a
    ``Counter`` of the partitions gives, in canonical order on either route
    and for any worker count.
    """
    require_int(trials, "trials", 1)
    if _block_route():
        blocks = -(-trials // DRAW_BLOCK)
        config._first_heights, config._rows  # compiled here once, not in each worker
        keys = split_counts(partial(_key_counts, config, trials), blocks,
                            worker_count(blocks, MIN_WORKER_BLOCKS))
        base = len(config._rows)
        counts = {_partition_of_key(key, base): n for key, n in keys.items()}
    else:
        counts = Counter(sample_partitions(config, trials))
    params = {"trials": trials, "seed": config.seed,
              "cutoff": fraction_str(config.initial_tail_cutoff)}
    return frequency_table(config.p, "empirical", params, counts, trials)
