"""The exact routes that run on integer numerators equal the Fraction routes they replaced.

``size_length_layers``, both parts recursions, ``kernel_numerators``,
``kernel_row``, ``Family.layer_sum``, the q-binomial check, the Euler
check's tail bound and the enclosures of the infinite products compute on
integers and build one Fraction per result.  The
Fraction versions below are the earlier code, copied here as oracles on the
generic ``finite_qpoch`` of ``qproducts``, so they read none of the numerators they check:
every value, threshold and error message must be the same, at the caps the
library accepts.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import pytest

from clpart import measures, qseries, sampler
from clpart.cli import main
from clpart.measures import MAX_PARTS, Family, solve_parts_recursion, size_length_layers
from clpart.qseries import DEFAULT_TOLERANCE, BoundedReal
from clpart.sampler import kernel, kernel_row

from qproducts import finite_qpoch, gaussian_binomial

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


def reference_kernel_numerators(a, p):
    """L_a / (L_b N_k) p^(k(k+1)), k = floor((a-b)/2), by one division per entry."""
    lower = [lower_qpoch(p, j) * p ** (j * (j + 1) // 2) for j in range(a + 1)]
    row = []
    for b in range(a + 1):
        k = (a - b) // 2
        evens = even_qpoch(p, k) * p ** (k * (k + 1))
        row.append(lower[a] / (lower[b] * evens) * p ** (k * (k + 1)))
    return tuple(row)


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
        assert qseries.kernel_numerators(a, p) == reference_kernel_numerators(a, p)


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


def reference_enclose(a, r, accept):
    """The enclosure loop as it ran on Fractions, one bracket per factor."""
    partial, term = Fraction(1), a
    while True:
        tail = term / (1 - r)
        if tail < 1:
            enclosure = accept(partial * (1 - tail), partial)
            if enclosure is not None:
                return enclosure
        partial *= 1 - term
        term *= r


def reference_odd(p, tol):
    def accept(lo, hi):
        return BoundedReal.from_endpoints(lo, hi) if hi - lo <= 2 * tol else None

    return reference_enclose(Fraction(1, p), Fraction(1, p * p), accept)


def reference_deformed(p, u, tol):
    prefactor = 1 - u / p

    def accept(lo, hi):
        if prefactor * (hi - lo) <= 2 * tol:
            return BoundedReal.from_endpoints(prefactor * lo, prefactor * hi)
        return None

    return reference_enclose(u * u / p**3, Fraction(1, p * p), accept)


def reference_euler(s, q, tol):
    def accept(lo, hi):
        enclosure = BoundedReal.from_endpoints(lo, hi).reciprocal()
        return enclosure if enclosure.rad <= tol else None

    return reference_enclose(s, q, accept)


TOLERANCES = (Fraction(1, 10**6), Fraction(1, 10**20), DEFAULT_TOLERANCE, Fraction(1, 10**60))


@pytest.mark.parametrize("p", (*PRIMES, 101))
def test_enclosures_equal_the_fraction_loop(p):
    for tol in TOLERANCES:
        pairs = [(qseries.odd_constant.__wrapped__(p, tol), reference_odd(p, tol))]
        for u in (Fraction(1, 2), Fraction(3, 2), Fraction(2)):
            if u < p:
                pairs.append((qseries.deformed_constant.__wrapped__(p, u, tol),
                              reference_deformed(p, u, tol)))
        for s, q in ((Fraction(1, p), Fraction(1, p * p)), (Fraction(1, 2), Fraction(1, 2)),
                     (Fraction(1, 8), Fraction(1, 4)), (Fraction(9, 10), Fraction(1, 2))):
            pairs.append((qseries._euler_product_reciprocal(s, q, tol), reference_euler(s, q, tol)))
        for enclosure, expected in pairs:
            assert (enclosure.mid, enclosure.rad) == (expected.mid, expected.rad)


@pytest.mark.parametrize("s, q", [(Fraction(1, 2), Fraction(1, 2)), (Fraction(9, 10), Fraction(1, 2)),
                                  (Fraction(1, 3), Fraction(1, 9))])
def test_the_euler_reciprocal_stops_on_the_reciprocal_width(s, q):
    # After K factors the reciprocal of [P (1 - T), P] has width T / (P (1 - T)).
    # At 2 tol = T / P that width is just past 2 tol, so the first bracket that
    # is within is the next one; at 2 tol = T / (P (1 - T)) it is this one.
    partial, term = Fraction(1), s
    for _ in range(12):
        tail = term / (1 - q)
        if tail < 1:
            for tol in (tail / (2 * partial), tail / (2 * partial * (1 - tail))):
                enclosure = qseries._euler_product_reciprocal(s, q, tol)
                expected = reference_euler(s, q, tol)
                assert (enclosure.mid, enclosure.rad) == (expected.mid, expected.rad), tol
                assert enclosure.rad <= tol
            assert 1 / enclosure.lower == partial  # at the second tolerance, the bracket of K factors
        partial *= 1 - term
        term *= q


def reference_euler_check(s, q, terms):
    """The Euler check as it ran on Fractions: the partial sum, then the bound
    from its last term, then the enclosure."""
    lhs = denom = s_power = q_power = Fraction(1)
    for _ in range(terms):
        q_power *= q
        denom *= 1 - q_power
        s_power *= s
        lhs += s_power / denom
    ratio = s / (1 - q_power * q * q)
    if ratio >= 1:
        raise ValueError("terms too small for a convergent tail bound; increase terms")
    bound = s_power * s / (denom * (1 - q_power * q)) / (1 - ratio)
    rhs = reference_euler(s, q, min(DEFAULT_TOLERANCE, bound))
    return lhs, (rhs.mid, rhs.rad), abs(lhs - rhs.mid) <= rhs.rad + bound, bound


@pytest.mark.parametrize("s, q, depths", [
    *((Fraction(1, p), Fraction(1, p * p), (1, 6, 30, 64)) for p in (*PRIMES, 101)),
    (Fraction(9, 10), Fraction(1, 2), (1, 3, 40)),  # at 1 term the tail's ratio is 36/35
    (Fraction(99, 100), Fraction(99, 100), (5,)),
    (Fraction(1, 2), Fraction(9, 10), (2,)),
])
def test_euler_checks_equal_the_fraction_loop(s, q, depths):
    for terms in depths:
        try:
            expected = reference_euler_check(s, q, terms)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{exc}$"):
                qseries.verify_euler_identity(s, q, terms)
            continue
        lhs, rhs, agree, bound = qseries.verify_euler_identity(s, q, terms)
        assert (lhs, (rhs.mid, rhs.rad), agree, bound) == expected, terms


def families(p):
    yield Family("cl", p)
    for u in (Fraction(1, 2), Fraction(3, 2), Fraction(2)):
        if u < p:
            yield Family("deformed", p, u=u)
    for r in (1, 3, MAX_PARTS):
        yield Family("truncated", p, r=r)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_layer_sums_equal_the_summed_fractions(p):
    for table_size in (None, 48):
        for n in (0, 1, 7, 30, 40):
            layers = size_length_layers(p, n if table_size is None else table_size)
            for family in families(p):
                expected = Fraction(0)
                for (size, length), value in layers.items():
                    statistic = family.statistic(size, length)
                    if size <= n and statistic is not None:
                        expected += family.factor(statistic) * value
                assert family.layer_sum(n, table_size) == expected, (family, n, table_size)


def reference_qbinomial(r, q, x):
    """Both sides of the q-binomial check as Fraction sums and products."""
    lhs = sum(gaussian_binomial(r, s, q) * q ** (s * (s + 1) // 2) * x**s for s in range(r + 1))
    rhs = Fraction(1)
    for k in range(1, r + 1):
        rhs *= 1 + x * q**k
    return lhs, rhs


@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(-1, 5),
                               Fraction(7, 3), Fraction(1, 101)])
def test_qbinomial_sides_equal_the_fraction_sides(q):
    cases = [(r, x) for r in range(1, 13) for x in (1, 2, Fraction(1, 2), Fraction(-7, 3))]
    for r, x in [*cases, (qseries.MAX_QBINOMIAL_DEGREE, 2)]:
        check = qseries.verify_qbinomial(r, q, x)
        assert (check.lhs, check.rhs) == reference_qbinomial(r, q, x), (r, x)
        assert check.agree
