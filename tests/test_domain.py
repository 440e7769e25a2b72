"""Every public function that takes p enforces that p is prime; a graph's
vertex count and labels, a partition size to enumerate, tabulate or sum the
series to, a parts count, a kernel height, a trial count or index, a
q-product length and a verify depth are ints, and none is below its least
value."""

import math
from argparse import Namespace
from fractions import Fraction

import pytest

from clpart.measures import (
    MAX_PARTS,
    MAX_SERIES_SIZE,
    deformed_series_check,
    normalization_check,
    pmf,
    pmf_deformed,
    pmf_parts,
    pmf_size,
    pmf_truncated,
    pmf_via_conjugate,
    size_length_layers,
    solve_parts_recursion,
    tabulate,
    truncated_series_check,
)
from clpart.cli import cmd_verify
from clpart.partitions import Partition, enumerate_partitions
from clpart.qseries import (
    MAX_EULER_TERMS,
    MAX_QBINOMIAL_DEGREE,
    d_lambda,
    deformed_constant,
    finite_qpoch,
    odd_constant,
    require_prime,
    verify_euler_identity,
    verify_qbinomial,
)
from clpart.rng import substream, substream_draws
from clpart.sampler import (
    SamplerConfig,
    empirical_distribution,
    initial_column_distribution,
    kernel,
    kernel_row,
    sample_partitions,
)
from clpart.sandpile import (
    MAX_CAP,
    Graph,
    erdos_renyi,
    p_sylow_partition,
    run_experiment,
    sample_graph_record,
    sylow_valuations_mod_prime_power,
    two_sylow_partition,
)

LAM = Partition([2, 1])
HALF = Fraction(1, 2)


def verify_args(depth=40, a_max=30):
    """The parsed arguments of ``verify --suite recursions --p 2``, with the
    depth and a-max given, as the parser would pass them to cmd_verify."""
    return Namespace(suite="recursions", p="2", depth=depth, a_max=a_max)

CALLS = {
    "pmf": lambda p: pmf(LAM, p),
    "pmf_via_conjugate": lambda p: pmf_via_conjugate(LAM, p),
    "pmf_parts": lambda p: pmf_parts(1, p),
    "pmf_size": lambda p: pmf_size(1, p),
    "pmf_deformed": lambda p: pmf_deformed(LAM, p, HALF),
    "pmf_truncated": lambda p: pmf_truncated(LAM, p, 2),
    "tabulate": lambda p: tabulate(p, 2),
    "solve_parts_recursion": lambda p: solve_parts_recursion(p, 2),
    "size_length_layers": lambda p: size_length_layers(p, 2),
    "kernel": lambda p: kernel(1, 0, p),
    "kernel_row": lambda p: kernel_row(1, p),
    "SamplerConfig": lambda p: SamplerConfig(p=p, seed=0),
    "initial_column_distribution": lambda p: initial_column_distribution(p),
    "d_lambda": lambda p: d_lambda(LAM, p),
    "odd_constant": lambda p: odd_constant(p),
    "deformed_constant": lambda p: deformed_constant(p, HALF),
    "p_sylow_partition": lambda p: p_sylow_partition([[4]], p),
    "sylow_valuations_mod_prime_power": lambda p: sylow_valuations_mod_prime_power([[4]], p),
    "sample_graph_record": lambda p: sample_graph_record(4, HALF, p, 0, 0),
}


@pytest.mark.parametrize("p", [1, 4, 6, 9])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_non_prime_p_raises(name, p):
    with pytest.raises(ValueError, match="prime"):
        CALLS[name](p)


def test_require_prime_accepts_primes():
    assert [require_prime(p) for p in (2, 3, 5, 7, 97)] == [2, 3, 5, 7, 97]
    assert require_prime(100000000000031) == 100000000000031  # the first prime above 10^14


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_require_prime_agrees_with_trial_division_below_1e5():
    for n in range(-2, 10**5):
        try:
            accepted = require_prime(n) == n
        except ValueError:
            accepted = False
        assert accepted == _is_prime_by_trial_division(n), n


@pytest.mark.parametrize("n", [
    56052361,                   # 211 * 421 * 631: a^((n-1)/2) = 1 mod n for every a prime to n
    3215031751,                 # strong pseudoprime to bases 2, 3, 5, 7
    3825123056546413051,        # strong pseudoprime to bases 2 ... 31
    318665857834031151167461,   # strong pseudoprime to bases 2 ... 37; base 41 catches it
    3317044064679887385961981,  # strong pseudoprime to all 13 bases: beyond the proven range
])
def test_require_prime_refuses_strong_pseudoprimes(n):
    with pytest.raises(ValueError, match="prime"):
        require_prime(n)


@pytest.mark.parametrize("n, edges", [
    (2.5, ()), (3.0, ()), (True, ()), ("3", ()), (Fraction(3), ()),
    (3, [(0, 1.5)]), (3, [(0.0, 1)]), (3, [(True, 2)]), (3, [(0, False)]), (3, [("0", 1)]),
], ids=["n-float", "n-integral-float", "n-bool", "n-str", "n-fraction",
        "label-float", "label-integral-float", "label-true", "label-false", "label-str"])
def test_graph_refuses_non_int_vertex_count_and_labels(n, edges):
    with pytest.raises(ValueError, match="must be an int"):
        Graph(n, frozenset(edges))


def test_graph_accepts_int_vertex_count_and_labels():
    g = Graph(3, frozenset({(2, 0), (1, 2)}))
    assert g.edges == {(0, 2), (1, 2)} and g.masks == (0b100, 0b100, 0b011)


@pytest.mark.parametrize("cap", [0, -1, MAX_CAP + 1])
def test_two_sylow_partition_refuses_cap_out_of_range(cap):
    with pytest.raises(ValueError, match="cap"):
        two_sylow_partition(Graph(3, frozenset({(0, 1), (1, 2)})), cap)


@pytest.mark.parametrize("n", [True, False, 2.0, 2.5, "3", Fraction(3), None],
                         ids=["true", "false", "integral-float", "float", "str", "fraction",
                              "none"])
def test_enumeration_and_tables_refuse_non_int_sizes(n):
    with pytest.raises(ValueError, match="n must be an int"):
        enumerate_partitions(n)
    for kwargs in ({}, {"measure": "deformed", "u": HALF}, {"measure": "truncated", "r": 2}):
        with pytest.raises(ValueError, match="max_size must be an int"):
            tabulate(2, n, **kwargs)


def test_enumeration_and_tables_accept_int_sizes():
    assert enumerate_partitions(1) == [Partition([1])]
    assert set(tabulate(2, 1).entries) == {Partition(), Partition([1])}


NOT_INTS = [True, False, 2.0, Fraction(2), "2"]
NOT_INT_IDS = ["true", "false", "float", "fraction", "str"]

# name -> a call taking the checked argument
SIZES = {
    "pmf_size": ("n", lambda n: pmf_size(n, 2)),
    "size_length_layers": ("max_size", lambda n: size_length_layers(2, n)),
    "normalization_check": ("max_size", lambda n: normalization_check(2, n)),
    "deformed_series_check": ("max_size", lambda n: deformed_series_check(2, HALF, n)),
    "truncated_series_check": ("max_size", lambda n: truncated_series_check(2, 1, n)),
}
PARTS_COUNTS = {
    "pmf_parts": ("a", lambda k: pmf_parts(k, 2)),
    "solve_parts_recursion": ("a_max", lambda k: solve_parts_recursion(2, k)),
    "pmf_truncated": ("r", lambda k: pmf_truncated(LAM, 2, k)),
    "tabulate": ("r", lambda k: tabulate(2, 3, measure="truncated", r=k)),
    "truncated_series_check": ("r", lambda k: truncated_series_check(2, k, 3)),
}
# name -> (argument, a call taking it): counts, seeds and primes outside the
# size and parts families
OTHER_INTS = {
    "Graph": ("vertex count", lambda n: Graph(n, ())),
    "erdos_renyi": ("n", lambda n: erdos_renyi(n, HALF, substream(0, 0))),
    "run_experiment-n": ("n", lambda n: run_experiment(n, HALF, 2, 2, 0)),
    "run_experiment-trials": ("trials", lambda t: run_experiment(4, HALF, 2, t, 0)),
    "run_experiment-seed": ("seed", lambda s: run_experiment(4, HALF, 2, 2, s)),
    "run_experiment-cap": ("cap", lambda c: run_experiment(4, HALF, 2, 2, 0, cap=c)),
    "sample_partitions": ("trials", lambda t: sample_partitions(SamplerConfig(2, seed=0), t)),
    "empirical_distribution": ("trials",
                               lambda t: empirical_distribution(SamplerConfig(2, seed=0), t)),
    "SamplerConfig": ("seed", lambda s: SamplerConfig(2, seed=s)),
    "require_prime": ("p", require_prime),
    "verify_euler_identity": ("terms", lambda t: verify_euler_identity(HALF, HALF, t)),
    "substream": ("index", lambda i: substream(0, i)),
    "substream_draws": ("start index", lambda i: substream_draws(0, i, 3, 1)),
    "finite_qpoch": ("j", lambda j: finite_qpoch(HALF, HALF, j)),
    "verify_qbinomial": ("r", lambda r: verify_qbinomial(r, HALF, 1)),
    "cmd_verify-depth": ("depth", lambda d: cmd_verify(verify_args(depth=d))),
    "cmd_verify-a-max": ("a-max", lambda a: cmd_verify(verify_args(a_max=a))),
}
# name -> the least value of the OTHER_INTS argument, where it has one
LEAST = {"Graph": 1, "erdos_renyi": 2, "run_experiment-n": 2, "run_experiment-trials": 1,
         "run_experiment-cap": 1, "sample_partitions": 1, "empirical_distribution": 1,
         "verify_euler_identity": 1, "substream": 0, "substream_draws": 0, "finite_qpoch": 0,
         "verify_qbinomial": 1, "cmd_verify-depth": 1, "cmd_verify-a-max": 0}
# name -> (argument, its cap, a call taking it)
SERIES_DEPTHS = {
    "pmf_size": ("n", MAX_SERIES_SIZE, lambda n: pmf_size(n, 2)),
    "size_length_layers": ("max_size", MAX_SERIES_SIZE, lambda n: size_length_layers(2, n)),
    "verify_euler_identity": ("terms", MAX_EULER_TERMS,
                              lambda t: verify_euler_identity(HALF, HALF, t)),
    "verify_qbinomial": ("r", MAX_QBINOMIAL_DEGREE, lambda r: verify_qbinomial(r, HALF, 1)),
}
HEIGHTS = {
    "kernel": lambda a: kernel(a, 0, 2),
    "kernel_row": lambda a: kernel_row(a, 2),
}


@pytest.mark.parametrize("n", NOT_INTS, ids=NOT_INT_IDS)
@pytest.mark.parametrize("name", sorted(SIZES))
def test_series_and_size_marginal_refuse_non_int_sizes(name, n):
    what, call = SIZES[name]
    with pytest.raises(ValueError, match=f"{what} must be an int"):
        call(n)


@pytest.mark.parametrize("name", sorted(SIZES))
def test_series_and_size_marginal_refuse_negative_sizes(name):
    what, call = SIZES[name]
    for n in (-1, -3):
        with pytest.raises(ValueError, match=f"{what} must be >= 0"):
            call(n)


@pytest.mark.parametrize("k", NOT_INTS, ids=NOT_INT_IDS)
@pytest.mark.parametrize("name", sorted(PARTS_COUNTS))
def test_parts_counts_refuse_non_ints(name, k):
    what, call = PARTS_COUNTS[name]
    with pytest.raises(ValueError, match=f"{what} must be an int"):
        call(k)


@pytest.mark.parametrize("x", [*NOT_INTS, 7.0, 2.5], ids=[*NOT_INT_IDS, "float-7", "float-2.5"])
@pytest.mark.parametrize("name", sorted(OTHER_INTS))
def test_counts_seeds_caps_and_primes_refuse_non_ints(name, x):
    what, call = OTHER_INTS[name]
    require_prime(7)  # a cached 7 must not answer for 7.0
    with pytest.raises(ValueError, match=f"{what} must be an int"):
        call(x)


@pytest.mark.parametrize("name", sorted(LEAST))
def test_counts_below_their_least_value_are_refused(name):
    (what, call), least = OTHER_INTS[name], LEAST[name]
    for x in (least - 1, least - 5):
        with pytest.raises(ValueError, match=f"^{what} must be >= {least}$"):
            call(x)


@pytest.mark.parametrize("name", sorted(SERIES_DEPTHS))
def test_series_sizes_and_depths_above_their_caps_are_refused(name):
    what, cap, call = SERIES_DEPTHS[name]
    for n in (cap + 1, 10**5):
        with pytest.raises(ValueError, match=f"{what}={n} exceeds the series"):
            call(n)


def test_series_sizes_and_depths_at_their_caps_are_accepted():
    assert pmf_size(MAX_SERIES_SIZE, 2).rational > 0
    assert verify_euler_identity(HALF, HALF, MAX_EULER_TERMS).agree
    assert verify_qbinomial(MAX_QBINOMIAL_DEGREE, HALF, 1).agree


@pytest.mark.parametrize("a", [*NOT_INTS, -1, -2],
                         ids=[*NOT_INT_IDS, "minus-one", "minus-two"])
@pytest.mark.parametrize("name", sorted(HEIGHTS))
def test_kernels_refuse_heights_that_are_not_ints_or_negative(name, a):
    kernel_row(1, 2)  # a cached row of height 1 must not answer for True
    with pytest.raises(ValueError, match="height a must be"):
        HEIGHTS[name](a)


@pytest.mark.parametrize("name", sorted(HEIGHTS))
def test_kernels_refuse_heights_above_the_parts_cap(name):
    error = f"height a={MAX_PARTS + 1} exceeds the parts cap {MAX_PARTS}$"
    with pytest.raises(ValueError, match=error):
        HEIGHTS[name](MAX_PARTS + 1)
    assert HEIGHTS[name](MAX_PARTS)  # the cap itself is a height the chain can reach


@pytest.mark.parametrize("b", NOT_INTS, ids=NOT_INT_IDS)
def test_kernel_refuses_a_next_height_that_is_not_an_int(b):
    with pytest.raises(ValueError, match="b must be an int"):
        kernel(2, b, 2)


def test_int_sizes_parts_counts_and_heights_are_accepted():
    assert size_length_layers(2, 0) == {(0, 0): 1}
    assert pmf_size(0, 2).rational == 1 and pmf_parts(0, 2).rational == 1
    assert [v.rational for v in solve_parts_recursion(2, 1)] == [1, 1]
    assert normalization_check(2, 0)[1]
    assert kernel_row(0, 2).masses == (1,) and kernel(1, 0, 2) == HALF
