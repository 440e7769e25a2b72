import math
from bisect import bisect_right
import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate

import pytest

from clpart.measures import Family, inverse_odd_constant_upper, pmf, pmf_parts
from clpart.partitions import Partition
from clpart.rng import (
    DRAW_BLOCK,
    GOLDEN_GAMMA,
    MASK64,
    SplitMix64,
    _low_words,
    draw_threshold,
    draws_below,
    lane_draws,
    mix64,
    pack_lanes,
    substream,
    substream_draws,
    top_bytes,
)
from clpart import sampler
from clpart.sampler import (
    MAX_COLUMNS,
    ROUND_DRAWS,
    SPLIT,
    SamplerConfig,
    _initial_selector,
    _top_byte_index,
    empirical_distribution,
    initial_column_distribution,
    kernel,
    kernel_row,
    sample_partition,
    sample_partitions,
)

from qproducts import finite_qpoch


class StubStream:
    """Canned 64-bit draws, for forcing chain trajectories."""

    def __init__(self, values):
        self.values = list(values)

    def next_u64(self):
        return self.values.pop(0)


def k_forcing(thresholds, index):
    """Smallest draw that selects slice ``index``."""
    return 0 if index == 0 else thresholds[index - 1]


def test_kernel_examples():
    assert kernel(0, 0, 2) == 1
    assert kernel(1, 0, 2) == Fraction(1, 2)
    assert kernel(1, 1, 2) == Fraction(1, 2)
    assert kernel(2, 1, 2) == Fraction(3, 8)
    with pytest.raises(ValueError):
        kernel(1, 2, 2)
    with pytest.raises(ValueError):
        kernel(-1, 0, 2)


def test_kernel_row_examples_and_sums():
    assert [kernel(2, b, 2) for b in range(3)] == [Fraction(1, 2), Fraction(3, 8), Fraction(1, 8)]
    assert kernel_row(2, 2) == (2**63, 7 * 2**61, 2**64)
    assert sum(kernel(3, b, 3) for b in range(4)) == 1
    for p in (2, 3, 5):
        for a in range(26):
            assert sum(kernel(a, b, p) for b in range(a + 1)) == 1
            assert len(kernel_row(a, p)) == a + 1  # raises unless the row sums to 1


def test_kernel_ratio_identity_small():
    # P(b) / (p^binom(a+1,2) P(a) (1/p^2)_floor((a-b)/2)) = K(a,b)
    #   = (1/p)_a / (1/p)_b * column_step(a, b), on Fraction q-products
    for p in (2, 3):
        t = Fraction(1, p)
        lower = [finite_qpoch(t, t, j) for j in range(13)]
        evens = [finite_qpoch(t * t, t * t, j) for j in range(7)]

        def column_step(a, b):
            return t ** (b * (b + 1) // 2) / evens[(a - b) // 2]

        parts = [pmf_parts(a, p).rational for a in range(13)]
        for a in range(13):
            for b in range(a + 1):
                lhs = parts[b] / (Fraction(p) ** (a * (a + 1) // 2) * parts[a] * evens[(a - b) // 2])
                assert lhs == kernel(a, b, p)
                assert lower[a] / lower[b] * column_step(a, b) == kernel(a, b, p)


def test_initial_column_distribution_matches_parts_masses():
    for p in (2, 3):
        entries = initial_column_distribution(p, Fraction(1, 10**12))
        assert [a for a, _ in entries] == list(range(len(entries)))
        for a, mass in entries:
            assert mass.rational == pmf_parts(a, p).rational
    entries = initial_column_distribution(2, Fraction(1, 10**12))
    assert entries[0][1].rational == 1 and entries[1][1].rational == 1
    assert entries[2][1].rational == Fraction(1, 3)
    with pytest.raises(ValueError):
        initial_column_distribution(2, Fraction(2))


def test_initial_distribution_tail_below_cutoff():
    cutoff = Fraction(1, 10**12)
    entries = initial_column_distribution(2, cutoff)
    b_last = entries[-1][0]
    rho = Fraction(1, 2 ** (b_last + 1)) / (1 - Fraction(1, 2 ** (b_last + 1)))
    tail = entries[-1][1].rational * rho / (1 - rho)
    assert tail <= cutoff
    # retained weights plus tail cover the full parts distribution:
    # the rational parts sum to 1/odd-constant, bounded via its enclosure
    total = sum(m.rational for _, m in entries)
    assert total <= inverse_odd_constant_upper(2) <= total + 2 * tail + Fraction(1, 10**5)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(p=1, seed=0)
    with pytest.raises(ValueError):
        SamplerConfig(p=2, seed=0, initial_tail_cutoff=Fraction(3, 2))
    # a stream reduces its seed mod 2^64: -1 would repeat 2^64 - 1's samples
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
            SamplerConfig(p=2, seed=seed)
    assert SamplerConfig(p=2, seed=2**64 - 1).seed == 2**64 - 1


def test_forced_trajectories():
    config = SamplerConfig(p=2, seed=0)
    init = _initial_selector(config.p, config.initial_tail_cutoff)
    assert init == config._selector
    # force first draw height 0: chain stops immediately, empty partition
    lam = sample_partition(config, StubStream([k_forcing(init, 0)]))
    assert lam == Partition()
    # force column heights 2, 1, 0: partition with columns (2,1), i.e. [2,1]
    k2 = k_forcing(init, 2)
    k1 = k_forcing(kernel_row(2, 2), 1)
    k0 = k_forcing(kernel_row(1, 2), 0)
    lam = sample_partition(config, StubStream([k2, k1, k0]))
    assert lam == Partition([2, 1])
    # force 3, 3, 0: columns (3,3) give [2,2,2]
    k3 = k_forcing(init, 3)
    k33 = k_forcing(kernel_row(3, 2), 3)
    k30 = k_forcing(kernel_row(3, 2), 0)
    lam = sample_partition(config, StubStream([k3, k33, k30]))
    assert lam == Partition([2, 2, 2])


def test_fold_over_draw_selects_largest_height():
    config = SamplerConfig(p=2, seed=0)
    init = _initial_selector(config.p, config.initial_tail_cutoff)
    height = initial_column_distribution(config.p, config.initial_tail_cutoff)[-1][0]
    # one threshold per retained height, the last 2^64 as in every kernel row
    assert len(init) == height + 1 and init[-1] == 2**64
    assert kernel_row(height, config.p)[-1] == 2**64
    # every draw from the start of the largest height's slice through the
    # residual slice past the retained weight selects that height, and a
    # second draw walks it to 0
    for top in (init[-2], 2**64 - 1):
        lam = sample_partition(config, StubStream([top, 0]))
        assert lam.conjugate().parts == (height,)


def test_runaway_chain_raises():
    config = SamplerConfig(p=2, seed=0)

    class StuckStream:
        def next_u64(self):
            return 2**64 - 1  # always the last slice: height never decreases

    with pytest.raises(RuntimeError):
        sample_partition(config, StuckStream())


def test_sampled_columns_weakly_decreasing():
    config = SamplerConfig(p=2, seed=5)
    for t in range(500):
        lam = sample_partition(config, substream(config.seed, t))
        cols = lam.conjugate().parts
        assert all(cols[i] >= cols[i + 1] for i in range(len(cols) - 1))


def test_empirical_distribution_deterministic_and_mergeable():
    config = SamplerConfig(p=2, seed=9)
    a = empirical_distribution(config, 400)
    b = empirical_distribution(config, 400)
    assert a.counts == b.counts
    assert sum(a.counts.values()) == 400
    assert a.tail_mass.mid == 0 and a.tail_mass.rad == 0
    # single trial
    single = empirical_distribution(config, 1)
    assert sum(single.counts.values()) == 1
    assert list(single.entries.values()) == [1]
    # merging: trial t is a pure function of (seed, t)
    manual = {}
    for t in range(400):
        lam = sample_partition(config, substream(9, t))
        manual[lam] = manual.get(lam, 0) + 1
    assert manual == a.counts


class ReferenceChain:
    """Scalar chain over exact Fractions, independent of the compiled thresholds.

    Each draw k is read as the rational k/2^64 and selects the first value
    whose exact cumulative probability exceeds it; the first column folds a
    draw past its retained weight into the largest retained height.
    """

    def __init__(self, p, cutoff):
        self.p = p
        entries = initial_column_distribution(p, cutoff)
        weights = [mass.rational for _, mass in entries]
        b = entries[-1][0]
        tail = weights[-1] / (p ** (b + 1) - 2)  # geometric tail bound past height b
        denom = sum(weights) + tail
        self.initial = [acc / denom for acc in accumulate(weights)]
        self.rows = {}

    def row(self, a):
        if a not in self.rows:
            self.rows[a] = list(accumulate(kernel(a, b, self.p) for b in range(a + 1)))
        return self.rows[a]

    @staticmethod
    def select(cumulative, k):
        u = Fraction(k, 2**64)
        return next((i for i, c in enumerate(cumulative) if u < c), len(cumulative) - 1)

    def sample(self, stream):
        height = self.select(self.initial, stream.next_u64())
        columns = []
        while height > 0:
            columns.append(height)
            height = self.select(self.row(height), stream.next_u64())
        return Partition(columns).conjugate()


@pytest.mark.parametrize("cutoff", [Fraction(1, 10**12), Fraction(1, 1000)])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_compiled_chain_matches_exact_reference(p, cutoff):
    config = SamplerConfig(p=p, seed=17, initial_tail_cutoff=cutoff)
    reference = ReferenceChain(p, cutoff)
    for t in range(2000):
        expected = reference.sample(substream(config.seed, t))
        assert sample_partition(config, substream(config.seed, t)) == expected, t
    # first draws on both sides of each first-column threshold ceil(c * 2^64)
    # of the cumulative weights c, and the largest draw: after a draw of 0
    # walks the first column to 0, the sample is that column alone
    edges = [draw_threshold(c) for c in reference.initial]
    for k in sorted({k for t in edges for k in (t - 1, t) if k < 2**64} | {2**64 - 1}):
        height = reference.select(reference.initial, k)
        lam = sample_partition(config, StubStream([k, 0]))
        assert lam == reference.sample(StubStream([k, 0])) == Partition([1] * height), k


def test_configs_differing_in_cutoff_share_no_selector():
    # cutoff 1/2 keeps heights 0 and 1 only, so the two chains visibly differ
    def configs():
        return (SamplerConfig(p=2, seed=3),
                SamplerConfig(p=2, seed=3, initial_tail_cutoff=Fraction(1, 2)))

    a, b = configs()
    runs = [list(sample_partitions(config, 300)) for config in (a, b, a)]
    assert len(a._selector) > len(b._selector) == 2
    # the selector is compiled per config, with no module-level cache to share
    assert not hasattr(_initial_selector, "cache_clear")
    fresh_a, fresh_b = configs()
    assert runs == [list(sample_partitions(fresh_a, 300)), list(sample_partitions(fresh_b, 300)),
                    list(sample_partitions(fresh_a, 300))]
    assert runs[0] != runs[1]
    assert max(lam.length for lam in runs[1]) <= 1 < max(lam.length for lam in runs[0])


def test_sample_partitions_checks_trials_when_called():
    config = SamplerConfig(p=2, seed=4)
    with pytest.raises(ValueError, match="trials"):
        sample_partitions(config, 0)
    assert list(sample_partitions(config, 5)) == [
        sample_partition(config, substream(4, t)) for t in range(5)]


def test_two_step_marginal_containment():
    # chain law Prob(col1=a, col2=b) = P(a) K(a,b) vs direct enumeration of
    # the measure over partitions with those column heights, size <= 40
    def bounded_partitions(n, max_part, max_len):
        if n == 0:
            yield ()
            return
        if max_len == 0:
            return
        for first in range(min(n, max_part), 0, -1):
            for rest in bounded_partitions(n - first, first, max_len - 1):
                yield (first,) + rest

    p = 2
    max_size = 40
    bound = Family("truncated", p, r=1).tail(max_size)  # w's tail, as the truncated factor <= 1
    sums: dict[tuple[int, int], Fraction] = {}
    for n in range(max_size + 1):
        for parts in bounded_partitions(n, n, 4):
            lam = Partition(parts)
            cols = lam.conjugate().parts
            a = cols[0] if cols else 0
            b = cols[1] if len(cols) > 1 else 0
            if a <= 4:
                sums[(a, b)] = sums.get((a, b), Fraction(0)) + pmf(lam, p).rational
    for a in range(5):
        for b in range(a + 1):
            partial = sums.get((a, b), Fraction(0))
            chain = pmf_parts(a, p).rational * kernel(a, b, p)
            assert partial <= chain <= partial + bound, (a, b)


def test_million_scale_smoke_frequency():
    # small-scale version of the fidelity check: 50k samples, empty partition
    config = SamplerConfig(p=2, seed=1234)
    dist = empirical_distribution(config, 50_000)
    freq = float(dist.entries[Partition()])
    target = float(pmf(Partition(), 2).enclosure().mid)
    sigma = math.sqrt(target * (1 - target) / 50_000)
    assert abs(freq - target) <= 5 * sigma


def test_splitmix_reference_values():
    # SplitMix64 from seed 0: first outputs of the standard construction
    gen = SplitMix64(0)
    first = [gen.next_u64() for _ in range(3)]
    assert first == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_next_u64_and_mix64_are_one_finalizer():
    # next_u64 repeats mix64's three lines inline: a stream whose state is one
    # step before z draws mix64(z), including across the 2^64 wrap
    rng = random.Random(64)
    for z in [rng.getrandbits(64) for _ in range(1000)] + [0, 1, MASK64]:
        assert SplitMix64((z - GOLDEN_GAMMA) % 2**64).next_u64() == mix64(z)


class OneDrawAtATime:
    """A SplitMix64 behind a plain next_u64, so draws_below takes the per-draw route."""

    def __init__(self, seed):
        self.inner = SplitMix64(seed)

    def next_u64(self):
        return self.inner.next_u64()


DRAW_COUNTS = [1, 2, 779, 780, 781, DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1, 2 * DRAW_BLOCK + 3]
DRAW_THRESHOLDS = [1, 2, 2**63, 2**64 - 1, 2**64] + [draw_threshold(Fraction(k, 10))
                                                     for k in range(1, 10)]


@pytest.mark.parametrize("count", DRAW_COUNTS)
def test_packed_draws_below_matches_one_draw_at_a_time(count):
    for seed in (0, 1, 5, 0x0123456789ABCDEF, 2**64 - 1):
        for threshold in DRAW_THRESHOLDS:
            packed, oracle = SplitMix64(seed), OneDrawAtATime(seed)
            flags = draws_below(packed, threshold, count)
            assert len(flags) == count
            assert list(flags) == draws_below(oracle, threshold, count)
            assert packed.state == oracle.inner.state


def test_draws_below_edge_cases():
    stream = SplitMix64(7)
    assert list(draws_below(stream, 2**63, 0)) == [] and stream.state == 7
    assert list(draws_below(stream, 0, 5)) == [False] * 5
    assert list(draws_below(stream, 2**64, 5)) == [True] * 5
    assert stream.state == (7 + 10 * GOLDEN_GAMMA) % 2**64
    for route in (SplitMix64(7), OneDrawAtATime(7)):
        for threshold in (-1, 2**64 + 1):
            with pytest.raises(ValueError, match="threshold"):
                draws_below(route, threshold, 3)


SUBSTREAM_SEEDS = (0, 1, 0x0123456789ABCDEF, 2**64 - 1)


# start*GOLDEN_GAMMA is above 2^64 at 2^40 + 3 and above 2^128 at 2^70 + 5
@pytest.mark.parametrize("start", [0, DRAW_BLOCK, 2**40 + 3, 2**70 + 5])
def test_substream_draws_match_substream(start):
    for seed in SUBSTREAM_SEEDS:
        for count in (1, 7, DRAW_BLOCK):
            for k in (1, ROUND_DRAWS, ROUND_DRAWS + 2):
                states, draws = substream_draws(seed, start, count, k)
                assert len(states) == count and len(draws) == k
                for i in (range(count) if count < DRAW_BLOCK else (0, 1, 500, count - 1)):
                    stream = substream(seed, start + i)
                    assert states[i] == stream.state
                    assert [d[i] for d in draws] == [stream.next_u64() for _ in range(k)]
    with pytest.raises(ValueError, match="index"):
        substream_draws(1, -1, 3, 2)


# A packed subset of a block's streams: its lanes in an order unlike the block's.
def packed_subset(states, count):
    return list(range(len(states) - 1, -1, -max(1, len(states) // count)))[:count]


@pytest.mark.parametrize("count", [1, 7, DRAW_BLOCK, DRAW_BLOCK + 5])
def test_lane_draws_of_packed_states_match_substream(count):
    for seed in SUBSTREAM_SEEDS:
        for start in (0, 2**70 + 5):
            block = max(count, DRAW_BLOCK)
            states, _ = substream_draws(seed, start, block, 1)
            picks = packed_subset(states, count)
            lanes = pack_lanes([states[i] for i in picks])
            assert list(_low_words(lanes, count)) == [states[i] for i in picks]
            for j, k in ((2, 1), (2, ROUND_DRAWS), (5, 3), (70, 2)):
                draws = lane_draws(lanes, count, j, k)
                assert len(draws) == k and all(len(d) == count for d in draws)
                for n in (range(count) if count < DRAW_BLOCK else (0, 1, 500, count - 1)):
                    stream = substream(seed, start + picks[n])
                    for _ in range(j - 1):
                        stream.next_u64()
                    assert [d[n] for d in draws] == [stream.next_u64() for _ in range(k)]


def test_top_bytes_and_the_top_byte_index():
    words = substream_draws(3, 0, 64, 1)[1][0]
    assert list(top_bytes(words)) == [w >> 56 for w in words]
    for p in (2, 3, 5, 7):
        selector = SamplerConfig(p=p, seed=0)._selector
        for thresholds in (selector, kernel_row(3, p), (2**64,), (1, 2**56, 2**57 + 1, 2**64)):
            table = _top_byte_index(thresholds)
            assert len(table) == 256
            for top, index in enumerate(table):
                edges = (top << 56, (top << 56) + 1, (top + 1 << 56) - 1)
                found = {bisect_right(thresholds, d) for d in edges}
                if index == SPLIT:
                    assert any(top << 56 < t < top + 1 << 56 for t in thresholds)
                else:
                    assert found == {index}


BLOCK_TRIALS = [1, 2, DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1, 2 * DRAW_BLOCK + 3]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_block_route_matches_per_trial_route(p):
    assert sampler._block_route()
    columns = Counter()
    for seed in SUBSTREAM_SEEDS:
        for cutoff in (Fraction(1, 10**12), Fraction(1, 1000), Fraction(1, 2)):
            config = SamplerConfig(p=p, seed=seed, initial_tail_cutoff=cutoff)
            oracle = [sample_partition(config, substream(seed, t)) for t in range(max(BLOCK_TRIALS))]
            columns.update(lam.parts[0] if lam.parts else 0 for lam in oracle)
            for trials in BLOCK_TRIALS:
                assert list(sample_partitions(config, trials)) == oracle[:trials]
                counts = empirical_distribution(config, trials).counts
                assert list(counts.items()) == list(Counter(oracle[:trials]).items())
    # a chain of c columns takes c + 1 draws, so one of ROUND_DRAWS or more
    # columns outlasts the first round, and one of twice that the second: some
    # block packs its running chains' states more than once
    assert sum(n for c, n in columns.items() if c >= 2 * ROUND_DRAWS) > 0


@pytest.mark.parametrize("name", ["substream", "sample_partition"])
def test_replaced_functions_get_one_call_per_trial(name, monkeypatch):
    config = SamplerConfig(p=2, seed=3)
    expected = list(sample_partitions(config, 40))
    table = empirical_distribution(config, 40)
    calls = []
    own = getattr(sampler, name)

    def counted(*args):
        calls.append(args)
        return own(*args)

    monkeypatch.setattr(sampler, name, counted)
    assert not sampler._block_route()
    assert list(sample_partitions(config, 40)) == expected and len(calls) == 40
    assert empirical_distribution(config, 40) == table and len(calls) == 80


def test_max_columns_constant_sane():
    assert MAX_COLUMNS >= 10**4
