import random
import sys
from fractions import Fraction

import pytest

from clpart.partitions import Partition
from clpart.qseries import (
    BoundedReal,
    d_lambda,
    deformed_constant,
    even_numerators,
    even_qpoch,
    finite_qpoch,
    fraction_str,
    gaussian_binomial,
    int_text,
    lower_numerators,
    lower_qpoch,
    odd_constant,
    upper_numerators,
    upper_qpoch,
    verify_euler_identity,
    verify_qbinomial,
)

# prod_{i odd} (1 - p^-i) to 40 digits (independent high-precision evaluation,
# frozen); used to pin the enclosures, not just their self-consistency.
ODD_CONSTANT_DIGITS = {
    2: Fraction("0.419422441795107597709956107702974252234"),
    3: Fraction("0.639004576637477780389601420221801308485"),
    5: Fraction("0.793335470058117921584623815584164375126"),
}
DEFORMED_DIGITS = {
    (2, Fraction(1, 2)): Fraction("0.719009900220184453217067613205098718115"),
    (3, Fraction(2)): Fraction("0.278702008213348668768527239071372518247"),
}


def oracle_odd_partial(p, last_odd):
    """Literal partial product over odd i <= last_odd, plus its tail bound."""
    partial = Fraction(1)
    for i in range(1, last_odd + 1, 2):
        partial *= 1 - Fraction(1, p**i)
    tail_sum = Fraction(p * p, p * p - 1) / Fraction(p) ** (last_odd + 2)
    return partial * (1 - tail_sum), partial


def test_finite_qpoch_examples():
    q = Fraction(1, 4)
    assert finite_qpoch(q, q, 0) == 1
    assert finite_qpoch(q, q, 1) == Fraction(3, 4)
    assert finite_qpoch(q, q, 2) == Fraction(45, 64)  # (3/4)(15/16)


def test_finite_qpoch_recurrence_random_grid():
    rng = random.Random(7)
    for _ in range(50):
        x = Fraction(rng.randint(1, 9), rng.randint(10, 30))
        q = Fraction(rng.randint(1, 9), rng.randint(10, 30))
        j = rng.randint(0, 12)
        assert finite_qpoch(x, q, j + 1) == finite_qpoch(x, q, j) * (1 - x * q**j)


def test_d_lambda_examples():
    assert d_lambda(Partition(), 2) == 1
    assert d_lambda(Partition([1, 1]), 2) == Fraction(3, 4)
    assert d_lambda(Partition([2, 2, 1, 1, 1, 1]), 2) == Fraction(135, 256)


def test_odd_constant_enclosure_against_oracle():
    for p in (2, 3, 5):
        enc = odd_constant(p, Fraction(1, 10**20))
        assert enc.rad <= Fraction(1, 10**20)
        lo, hi = oracle_odd_partial(p, 201)
        # the true constant lies in [lo, hi]; the enclosure must overlap it
        assert enc.lower <= hi and lo <= enc.upper
        # and the frozen 40-digit value must be inside (give it its own 1e-39 slack)
        pinned = ODD_CONSTANT_DIGITS[p]
        assert enc.lower - Fraction(1, 10**39) <= pinned <= enc.upper + Fraction(1, 10**39)


def test_odd_constant_tolerances_consistent():
    a = odd_constant(2, Fraction(1, 10**10))
    b = odd_constant(2, Fraction(1, 10**20))
    assert abs(a.mid - b.mid) <= Fraction(1, 10**9)


def test_odd_constant_contains_deeper_partials():
    enc = odd_constant(2, Fraction(1, 10**8))
    partial = Fraction(1)
    previous = None
    for i in range(1, 102, 2):
        partial *= 1 - Fraction(1, 2**i)
        if previous is not None:
            assert partial < previous  # partial products strictly decrease
        previous = partial
        if i > 61:  # well past the truncation needed for 1e-8
            assert enc.lower <= partial <= enc.upper


def test_deformed_constant_matches_odd_constant_at_u_one():
    for p in (2, 3, 5):
        a = deformed_constant(p, 1, Fraction(1, 10**15))
        b = odd_constant(p, Fraction(1, 10**15))
        assert abs(a.mid - b.mid) <= a.rad + b.rad


def test_deformed_constant_values_and_domain():
    enc = deformed_constant(2, Fraction(1, 2), Fraction(1, 10**15))
    pinned = DEFORMED_DIGITS[(2, Fraction(1, 2))]
    assert enc.lower - Fraction(1, 10**38) <= pinned <= enc.upper + Fraction(1, 10**38)
    enc = deformed_constant(3, 2, Fraction(1, 10**15))
    pinned = DEFORMED_DIGITS[(3, Fraction(2))]
    assert enc.lower - Fraction(1, 10**38) <= pinned <= enc.upper + Fraction(1, 10**38)
    assert 0 < enc.lower and enc.upper < 1
    with pytest.raises(ValueError):
        deformed_constant(2, 0)
    with pytest.raises(ValueError):
        deformed_constant(2, 2)
    with pytest.raises(ValueError):
        deformed_constant(3, Fraction(-1, 2))


def test_euler_identity_examples():
    check = verify_euler_identity(Fraction(1, 8), Fraction(1, 4), 30)
    assert check.agree
    check = verify_euler_identity(Fraction(1, 2), Fraction(1, 2), 40)
    assert check.agree
    check = verify_euler_identity(Fraction(1, 4), Fraction(1, 4), 1)
    assert check.lhs == Fraction(4, 3)  # 1 + (1/4)/(3/4)
    with pytest.raises(ValueError):
        verify_euler_identity(Fraction(3, 2), Fraction(1, 2), 10)
    with pytest.raises(ValueError):
        verify_euler_identity(Fraction(1, 2), Fraction(5, 4), 10)


def test_qbinomial_examples_and_exhaustive_grid():
    check = verify_qbinomial(1, Fraction(1, 2), 1)
    assert check.lhs == Fraction(3, 2) and check.agree
    assert verify_qbinomial(3, Fraction(1, 2), 1).agree
    assert verify_qbinomial(5, Fraction(1, 3), 2).agree
    for r in range(1, 13):
        for q in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 5)):
            for x in (1, 2, Fraction(1, 2), Fraction(7, 3)):
                assert verify_qbinomial(r, q, x).agree


def test_gaussian_binomial_counts():
    # [4 choose 2]_q = 1 + q + 2q^2 + q^3 + q^4
    q = Fraction(1, 2)
    expected = 1 + q + 2 * q**2 + q**3 + q**4
    assert gaussian_binomial(4, 2, q) == expected
    with pytest.raises(ValueError):
        gaussian_binomial(3, 4, q)


def test_bounded_real_basics():
    x = BoundedReal.from_endpoints(Fraction(1, 3), Fraction(1, 2))
    assert x.lower == Fraction(1, 3) and x.upper == Fraction(1, 2)
    assert x.contains(Fraction(2, 5))
    assert not x.contains(Fraction(3, 5))
    with pytest.raises(ValueError):
        BoundedReal.from_endpoints(1, 0)
    with pytest.raises(ValueError):
        BoundedReal(Fraction(1), Fraction(-1))
    assert x.to_json() == {"mid": "5/12", "rad": "1/12"}
    assert fraction_str(Fraction(2)) == "2/1"


def test_int_text_past_the_int_to_str_digit_limit():
    rng = random.Random(5)
    for size in (1, 4300, 4301, 20000):
        text = str(rng.randrange(1, 10)) + "".join(rng.choice("0123456789") for _ in range(size - 1))
        n = 0
        for start in range(0, size, 1000):  # int() of short chunks stays under the limit
            chunk = text[start:start + 1000]
            n = n * 10 ** len(chunk) + int(chunk)
        assert int_text(n) == text and int_text(-n) == "-" + text
        assert fraction_str(Fraction(1, n)) == "1/" + text
    assert int_text(10**5000 + 7) == "1" + "0" * 4999 + "7"
    assert int_text(0) == "0"


def test_bounded_real_arithmetic_encloses_exact_results():
    rng = random.Random(11)
    for _ in range(200):
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        b = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        ra = Fraction(rng.randint(0, 3), 100)
        rb = Fraction(rng.randint(0, 3), 100)
        xa, xb = BoundedReal(a, ra), BoundedReal(b, rb)
        # any true values inside the operands must land inside the results
        for ta in (a - ra, a, a + ra):
            for tb in (b - rb, b, b + rb):
                assert (xa + xb).contains(ta + tb)
                assert (xa - xb).contains(ta - tb)
                assert (xa * xb).contains(ta * tb)
                assert (xa * Fraction(-3, 7)).contains(ta * Fraction(-3, 7))
                assert (xa + tb).contains(ta + tb)
                assert xa.abs_enclosure().contains(abs(ta))
                if xb.lower > 0:
                    assert xb.reciprocal().contains(1 / tb)


def test_bounded_real_reciprocal_requires_positive():
    with pytest.raises(ValueError):
        BoundedReal(Fraction(1, 2), Fraction(1)).reciprocal()


def _literal_products(p):
    """(numerators, view, exponent of p in the view's denominator, x, q) for each
    finite q-product, whose literal value at k is finite_qpoch(x, q, k)."""
    t = Fraction(1, p)
    return [
        (lower_numerators, lower_qpoch, lambda k: k * (k + 1) // 2, t, t),
        (even_numerators, even_qpoch, lambda k: k * (k + 1), t * t, t * t),
        (upper_numerators, upper_qpoch, lambda k: k * (k + 1) // 2, -t, t),
    ]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_qpochs_and_numerators_equal_literal_products_in_any_order(p):
    rng = random.Random(60 + p)
    for numerators, view, exponent, x, q in _literal_products(p):
        literal = [finite_qpoch(x, q, k) for k in range(61)]
        assert numerators(p, 60) == [v * p ** exponent(k) for k, v in enumerate(literal)]
        ks = list(range(61))
        rng.shuffle(ks)
        for k in ks:
            assert numerators(p, k)[k] == literal[k] * p ** exponent(k), (numerators.__name__, k)
            assert view(p, k) == literal[k], (view.__name__, k)
        with pytest.raises(ValueError):
            view(p, -1)


def test_qpochs_and_numerators_at_large_k():
    k = 261  # past the 256 running products an earlier cache kept per p
    for numerators, view, exponent, x, q in _literal_products(3):
        literal = finite_qpoch(x, q, k)
        assert view(3, k) == literal, view.__name__
        assert numerators(3, k)[k] == literal * 3 ** exponent(k), numerators.__name__
    # past the recursion limit, where finite_qpoch takes seconds per product:
    # each list grows by its integer factors, and the view is in lowest terms
    k = sys.getrecursionlimit() + 1
    for numerators, _, exponent, x, q in _literal_products(2):
        values = numerators(2, k)
        factor = (1 - x * q ** (k - 1)) * 2 ** (exponent(k) - exponent(k - 1))
        assert factor.denominator == 1, numerators.__name__
        assert len(values) == k + 1 and values[k] == values[k - 1] * factor.numerator
    view = lower_qpoch(2, k)
    assert (view.numerator, view.denominator) == (lower_numerators(2, k)[k], 2 ** (k * (k + 1) // 2))
