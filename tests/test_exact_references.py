"""The exact routes that run on integer numerators equal the Fraction routes they replaced.

``size_length_layers``, both parts recursions and ``kernel_row`` compute on
integers over denominators known before their loops start.  The Fraction
versions below are the earlier code, copied here as oracles on the generic
``finite_qpoch``, so they read none of the numerators they check: every
value, threshold and error message must be the same, at the caps the library
accepts.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import pytest

from clpart import measures, sampler
from clpart.cli import main
from clpart.measures import MAX_PARTS, solve_parts_recursion, size_length_layers
from clpart.qseries import finite_qpoch
from clpart.sampler import kernel, kernel_row

PRIMES = (2, 3, 5, 7)

# Half the series cap: the Fraction oracle takes 0.2-0.5 s per prime at this size
# (Python 3.11.7, 2 vCPUs).
LAYERS_SIZE = 64


@lru_cache(maxsize=None)
def lower_qpoch(p, k):
    """(1-1/p)(1-1/p^2)...(1-1/p^k)"""
    return finite_qpoch(Fraction(1, p), Fraction(1, p), k)


@lru_cache(maxsize=None)
def even_qpoch(p, k):
    """(1-1/p^2)(1-1/p^4)...(1-1/p^(2k))"""
    return finite_qpoch(Fraction(1, p * p), Fraction(1, p * p), k)


@lru_cache(maxsize=None)
def upper_qpoch(p, k):
    """(1+1/p)(1+1/p^2)...(1+1/p^k)"""
    return finite_qpoch(Fraction(-1, p), Fraction(1, p), k)


def column_step(a, b, p):
    """p^-(b(b+1)/2) / (1/p^2)_floor((a-b)/2), the weight of a column of height b after a."""
    return 1 / (Fraction(p) ** (b * (b + 1) // 2) * even_qpoch(p, (a - b) // 2))


def reference_layers(p, max_size):
    grid = {(0, s): Fraction(s == 0) for s in range(max_size + 1)}
    for a in range(1, max_size + 1):
        steps = [column_step(a, b, p) for b in range(a + 1)]
        for s in range(max_size - a + 1):
            grid[a, s] = sum(steps[b] * grid[b, s - b] for b in range(min(a, s) + 1))
    return {(a + s, a): g / p ** (a * (a + 1) // 2) for (a, s), g in grid.items() if g}


def reference_product_form(p, a_max):
    vals = [Fraction(1)]
    for r in range(1, a_max + 1):
        acc = upper_qpoch(p, r) / lower_qpoch(p, r)
        for s in range(r):
            acc -= vals[s] / lower_qpoch(p, r - s)
        vals.append(acc)
    return vals


def reference_kernel_form(p, a_max):
    vals = [Fraction(1)]
    for a in range(1, a_max + 1):
        acc = Fraction(0)
        for b in range(a):
            acc += vals[b] / even_qpoch(p, (a - b) // 2)
        vals.append(acc / (Fraction(p) ** (a * (a + 1) // 2) - 1))
    return vals


def reference_kernel(a, b, p):
    return lower_qpoch(p, a) / lower_qpoch(p, b) * column_step(a, b, p)


def reference_kernel_row(a, p, kernel=reference_kernel):
    """(masses, thresholds) of row a, raising as kernel_row did on a bad row."""
    masses = tuple(kernel(a, b, p) for b in range(a + 1))
    total = sum(masses)
    if total != 1:
        raise ArithmeticError(f"kernel row a={a}, p={p} sums to {total}, not 1")
    return masses, tuple(-((-c.numerator << 64) // c.denominator) for c in accumulate(masses))


@pytest.mark.parametrize("p", PRIMES)
def test_size_length_layers_equal_the_fraction_dp(p):
    layers = size_length_layers.__wrapped__(p, LAYERS_SIZE)
    expected = reference_layers(p, LAYERS_SIZE)
    assert layers == expected
    assert list(layers) == list(expected)  # the same cells, in the same order


@pytest.mark.parametrize("p", PRIMES)
def test_parts_recursions_equal_the_fraction_recursions(p):
    product = measures._parts_recursion_product_form(p, MAX_PARTS)
    kernel_form = measures._parts_recursion_kernel_form(p, MAX_PARTS)
    expected = reference_product_form(p, MAX_PARTS)
    assert product == kernel_form == expected
    assert expected == reference_kernel_form(p, MAX_PARTS)


@pytest.mark.parametrize("p", PRIMES)
def test_kernel_rows_equal_the_fraction_rows(p):
    for a in range(MAX_PARTS + 1):
        masses = tuple(kernel(a, b, p) for b in range(a + 1))
        assert (masses, kernel_row(a, p)) == reference_kernel_row(a, p)


@pytest.mark.parametrize("p, a", [(2, 0), (2, 5), (3, 12), (7, 30)])
def test_a_bad_kernel_row_raises_the_same_message(monkeypatch, p, a):
    # K(a, a) one step of p^-(a(a+1)/2) too large, so the row sums to 1 plus that step
    step = Fraction(1, p ** (a * (a + 1) // 2))
    with pytest.raises(ArithmeticError) as expected:
        reference_kernel_row(a, p, lambda a, b, p: reference_kernel(a, b, p) + step * (b == a))
    real = sampler.kernel_numerators(a, p)
    monkeypatch.setattr(sampler, "kernel_numerators", lambda *_: (*real[:-1], real[-1] + 1))
    kernel_row.cache_clear()
    try:
        with pytest.raises(ArithmeticError) as raised:
            kernel_row(a, p)
    finally:
        kernel_row.cache_clear()
    assert str(raised.value) == str(expected.value)
    assert str(raised.value).endswith(f"sums to {1 + step}, not 1")


def test_a_kernel_form_remainder_prints_fail(capsys, monkeypatch):
    # K(2, 0) doubled: at a = 2 the kernel form's sum, 8 + 3, is no multiple of
    # 2^3 - 1 (at p = 3, 36 + 8 is none of 3^3 - 1; at p = 5, 200 + 24 none of 124)
    real = measures.kernel_numerators
    monkeypatch.setattr(measures, "kernel_numerators",
                        lambda a, p: (2 * real(a, p)[0], *real(a, p)[1:]) if a == 2 else real(a, p))
    code = main(["verify", "--suite", "recursions", "--p", "2,3", "--a-max", "4"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert captured.out.splitlines() == [
        "FAIL parts-recursions-vs-closed-form p=2 a<=4: parts recursions disagree at p=2: "
        "the kernel form leaves a remainder at a=2",
        "FAIL parts-recursions-vs-closed-form p=3 a<=4: parts recursions disagree at p=3: "
        "the kernel form leaves a remainder at a=2",
        "2 check(s) FAILED",
    ]
    with pytest.raises(ArithmeticError, match="remainder at a=2"):
        solve_parts_recursion(5, 3)
