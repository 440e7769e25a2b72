"""Exact q-product arithmetic and rigorously enclosed infinite products.

A finite product at q = 1/p is a running product of integer factors over a
known power of p, built per call (``*_numerators``); the column chain's
kernel coefficient is one quotient of them (``kernel_numerators``).
Infinite products are returned as midpoint/radius enclosures
(:class:`BoundedReal`) so downstream checks can assert containment instead
of approximate equality.  Tail bounds all come from the elementary inequality

    prod(1 - a_i) >= 1 - sum(a_i)    for a_i in (0, 1),

applied to the omitted factors.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate
from operator import mul

from .partitions import Frozen, Partition, require_int

# Largest bound, in bits, on the denominator of an enclosure's partial
# product (see _enclose_product), which grows like K^2 bitlen(p) over K
# factors; a finer tolerance is refused before any product is built.  A cap
# of 10^5 factors, reached only by running, let odd_constant(2, 10**-300) run
# 9 s and 10**-1000 over 90 s.  Near this cap, odd_constant(2, 10**-250)
# (258,545 bits) took 0.2-0.33 s, odd_constant(2^61 - 1, 10**-2400) 0.5 s and
# the Euler reciprocal at s = q = 1/2 and tolerance 10**-153 (258,572 bits)
# 1.0 s; at 10**-200 (441,560 bits) it took 4.6 s (in process, Python
# 3.11.7, 2 vCPUs).
MAX_PRODUCT_BITS = 2**18

DEFAULT_TOLERANCE = Fraction(1, 10**30)

# Largest partial-sum depth verify_euler_identity accepts (verify --depth).  At
# s = 1/p, q = 1/p^2, 128 terms took 0.05 / 0.08 / 0.25 / 0.87 s at p = 2 / 3 / 7 / 101,
# 200 terms 0.27 s at p = 2 and 1.4 s at p = 7 (min of 3, Python 3.11.7, 2 vCPUs).
MAX_EULER_TERMS = 128

# Largest bound, in bits, on the exact partial sum of verify_euler_identity,
# terms (terms + 1) / 2 bitlen(den q) + terms bitlen(den s), read off the
# arguments before any arithmetic.  At s = 1/p, q = 1/p^2 it is about
# terms^2 bitlen(p).  Uncapped, verify --suite identities --depth 96 at
# p = 2^61 - 1 (573,888 bits) ran 15.6 s, and depth 128 over 50 s.  Near the
# cap, the check at p = 2^61 - 1 and 64 terms (257,664 bits) took 2.6 s, and
# at an 82-bit p and 52 terms (228,878 bits) 1.6 s; at p = 101 and 128 terms
# (116,480 bits) it took 0.9 s (in process, Python 3.11.7, 2 vCPUs).
MAX_EULER_BITS = 2**18

# Largest r verify_qbinomial accepts (the degree in x of both sides).  At q = 1/p,
# x = 1 or 2, r = 64 took 1 / 2-3 / 4-5 ms at p = 2 / 7 / 101, r = 128 took
# 6-8 / 20-26 / 70-76 ms and r = 256 0.06 / 0.34-0.38 / 1.5-2.2 s (in process,
# min of 3, Python 3.11.7, 2 vCPUs); the Fraction sum it replaced took
# 0.06-0.21 s at r = 64 and 0.37-4.1 s at r = 128.  verify asks for r <= 5.
MAX_QBINOMIAL_DEGREE = 64


# Largest decimal exponent, in magnitude, that a rational's text may carry.
# Fraction expands "1e-k" to a (k+1)-digit denominator, and rendering it takes
# time quadratic in k: uncapped, sample --cutoff 1e-1000000 ran 7.3 s and
# graphs --q 1e-3000000 65 s, while 1e-100000 parses in 5 ms and renders in
# 77 ms (min of 5, Python 3.11.7, 2 vCPUs).
MAX_DECIMAL_EXPONENT = 100_000

# Largest bound, in bits, on one partition's mass that the single-mass routes
# (pmf, pmf_via_conjugate, Family.mass, d_lambda) build; see require_mass_bits.
# Building and rendering a mass takes time superlinear in its bits: uncapped,
# pmf --partition [10000000] at p = 2 ran over 60 s.  At the cap, the slowest
# accepted pmf --partition requests are at p = 2^61 - 1, where the bound is
# tight: [17189] took 0.50 s for cl, 0.53 s for cl-conjugate and 0.36 s for
# truncated (r = 1), and the deformed [16383] at u = 1/2 took 0.41 s.  At
# p = 2 cl [524288] took 0.14 s, cl-conjugate 0.26 s, 1000 ones (1,001,000
# bits) 0.18 s, and the deformed [315] at u = 1e-1000 0.42 s (a fresh
# process, min of 3, Python 3.11.7, 2 vCPUs).
MAX_MASS_BITS = 2**20


def as_fraction(x) -> Fraction:
    """Coerce ints, Fractions, and "a/b" strings to Fraction; each side of a
    string a/b may run past Python's int-to-str digit limit (see text_int),
    and a string's decimal exponent is checked before it is expanded."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        text = x.strip()
        require_decimal_exponent(text)
        try:
            return Fraction(text)
        except ValueError as exc:
            num, slash, den = text.partition("/")
            try:
                return Fraction(text_int(num), text_int(den) if slash else 1)
            except ValueError:
                raise exc from None
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def require_decimal_exponent(text: str) -> None:
    """Raise ValueError if ``text`` ends in a decimal exponent, read as
    Fraction reads it (e or E, a sign, digits and underscores), above
    MAX_DECIMAL_EXPONENT in magnitude."""
    _, e, exponent = text.strip().replace("E", "e").rpartition("e")
    digits = (exponent[1:] if exponent[:1] in "+-" else exponent).replace("_", "").lstrip("0")
    if e and digits.isdecimal() and (len(digits) > 6 or int(digits) > MAX_DECIMAL_EXPONENT):
        raise ValueError(f"decimal exponent {echo(exponent)} exceeds the cap "
                         f"{MAX_DECIMAL_EXPONENT} in magnitude")


def exact_decimals():
    """A ``decimal`` context in which sums and products of ints are exact: its
    precision and exponent range are the largest there are, and an inexact
    result raises.  ``decimal`` is imported here: only these conversions use it."""
    import decimal

    return decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                           traps=[decimal.Inexact])


# Width in bits up to which int_text converts a piece of an int to Decimal directly.
DECIMAL_LEAF_BITS = 4096


def int_text(i: int) -> str:
    """str(i), also past Python's int-to-str digit limit (4300 digits by default;
    a run of 1000 equal parts has a ~150,000-digit mass at p = 2).

    There the int is split into binary halves, high * 2^w + low, down to
    pieces of DECIMAL_LEAF_BITS, and rebuilt as a ``decimal.Decimal`` with
    exact products and sums, as CPython 3.12's ``_pylong`` does; libmpdec
    multiplies in subquadratic time, where int division and str are
    quadratic.  A 1,001,000-bit int takes 0.10 s, against 1.6 s for str with
    the limit lifted (Python 3.11.7).
    """
    try:
        return str(i)
    except ValueError:
        pass
    context = exact_decimals()
    power = lru_cache(maxsize=None)(partial(context.power, 2))  # 2^w, each w once

    def convert(n, width):  # 0 <= n < 2^width
        if width <= DECIMAL_LEAF_BITS:
            return context.create_decimal(n)
        w = width >> 1
        high = n >> w
        return context.fma(convert(high, width - w), power(w), convert(n - (high << w), w))

    n = abs(i)
    return "-" * (i < 0) + str(convert(n, n.bit_length()))


def text_int(text: str) -> int:
    """int(text), also past Python's int-to-str digit limit: the inverse of
    ``int_text``.  There an optional sign and ASCII digits are read as the
    halves high * 10^k + low, k about half the digits."""
    try:
        return int(text)
    except ValueError:
        digits = text[1:] if text[:1] in ("+", "-") else text
        if not (digits.isascii() and digits.isdigit()):
            raise
    k = len(digits) // 2
    value = text_int(digits[:-k]) * 10**k + text_int(digits[-k:])
    return -value if text[0] == "-" else value


def fraction_str(x: Fraction) -> str:
    """Render as "num/den" (denominator always explicit, for stable JSON)."""
    x = as_fraction(x)
    return f"{int_text(x.numerator)}/{int_text(x.denominator)}"


def clipped(text: str) -> tuple[str, str]:
    """``text`` as an error message echoes it, and a note on its length: a
    text over 60 characters is shown by its first 30 and last 10 characters
    and noted as "N characters"; a shorter one is shown whole, with no note."""
    if len(text) <= 60:
        return text, ""
    return f"{text[:30]}...{text[-10:]}", f"{len(text)} characters"


def echo(x) -> str:
    """A text, or a rational's str (also past the int-to-str digit limit), as
    an error message shows it: shortened by ``clipped``, its length noted."""
    if isinstance(x, Fraction):
        x = int_text(x.numerator) if x.denominator == 1 else fraction_str(x)
    text, length = clipped(x)
    return f"{text} ({length})" if length else text


class BoundedReal(Frozen):
    """A real number known to lie in [mid - rad, mid + rad].

    Arithmetic produces enclosures of the exact results; operations never
    silently drop error.  Rationals embed exactly with rad = 0.  Immutable,
    and equal (and hashed alike) when mid and rad are.
    """

    __slots__ = _fields = ("mid", "rad")

    def __init__(self, mid, rad=Fraction(0)):
        mid, rad = as_fraction(mid), as_fraction(rad)
        if rad < 0:
            raise ValueError("radius must be >= 0")
        object.__setattr__(self, "mid", mid)
        object.__setattr__(self, "rad", rad)

    @classmethod
    def exact(cls, x) -> "BoundedReal":
        return cls(as_fraction(x), Fraction(0))

    @classmethod
    def from_endpoints(cls, lo, hi) -> "BoundedReal":
        lo, hi = as_fraction(lo), as_fraction(hi)
        if lo > hi:
            raise ValueError("lower endpoint above upper endpoint")
        return cls((lo + hi) / 2, (hi - lo) / 2)

    @property
    def lower(self) -> Fraction:
        return self.mid - self.rad

    @property
    def upper(self) -> Fraction:
        return self.mid + self.rad

    def contains(self, x) -> bool:
        x = as_fraction(x)
        return self.lower <= x <= self.upper

    def __add__(self, other):
        if isinstance(other, BoundedReal):
            return BoundedReal(self.mid + other.mid, self.rad + other.rad)
        return BoundedReal(self.mid + as_fraction(other), self.rad)

    __radd__ = __add__

    def __neg__(self):
        return BoundedReal(-self.mid, self.rad)

    def __sub__(self, other):
        return self + (-other if isinstance(other, BoundedReal) else -as_fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, BoundedReal):
            products = [
                a * b
                for a in (self.lower, self.upper)
                for b in (other.lower, other.upper)
            ]
            return BoundedReal.from_endpoints(min(products), max(products))
        c = as_fraction(other)
        return BoundedReal(self.mid * c, self.rad * abs(c))

    __rmul__ = __mul__

    def reciprocal(self) -> "BoundedReal":
        if self.lower <= 0:
            raise ValueError("reciprocal requires a strictly positive enclosure")
        return BoundedReal.from_endpoints(1 / self.upper, 1 / self.lower)

    def abs_enclosure(self) -> "BoundedReal":
        if self.lower >= 0:
            return self
        if self.upper <= 0:
            return -self
        return BoundedReal.from_endpoints(0, max(-self.lower, self.upper))

    def to_json(self) -> dict:
        return {"mid": fraction_str(self.mid), "rad": fraction_str(self.rad)}

    def __str__(self):
        return f"{float(self.mid)!r} +/- {float(self.rad)!r}"


# Strong-probable-prime tests to the first 13 prime bases decide primality
# exactly for every p below PRIME_LIMIT (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 2017; PRIME_LIMIT itself
# is a strong pseudoprime to all 13).
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


@lru_cache(maxsize=None, typed=True)
def require_prime(p: int) -> int:
    """Return p if it is a prime int; raise ValueError otherwise.

    Deterministic Miller-Rabin to PRIME_BASES, so the time grows like
    log(p)^3; p >= PRIME_LIMIT is refused, since those bases do not decide it.
    The cache is typed, so a cached 7 does not answer for 7.0 or Fraction(7).
    """
    require_int(p, "p")
    if p < 2:
        raise ValueError(f"p must be a prime >= 2, got {p}")
    if p >= PRIME_LIMIT:
        raise ValueError(f"p={p} is too large to be certified prime (limit {PRIME_LIMIT})")
    if p in PRIME_BASES:
        return p
    d, s = p - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in PRIME_BASES:
        if p % a == 0:
            raise ValueError(f"p must be prime, got {p} = {a} * {p // a}")
        x = pow(a, d, p)
        if x == 1:
            continue
        for _ in range(s):  # a strong probable prime reaches p - 1 before 1
            if x == p - 1:
                break
            x = x * x % p
        else:
            raise ValueError(f"p must be prime, got {p} (base {a} is a Miller-Rabin witness)")
    return p


def require_deformation(p: int, u) -> Fraction:
    """Return the deformation parameter u as a Fraction, checking 0 < u < p."""
    u = as_fraction(u)
    if not (0 < u < p):
        raise ValueError(f"u must satisfy 0 < u < p, got {echo(u)}")
    return u


def lower_numerators(p: int, k: int) -> list[int]:
    """[L_0, ..., L_k], L_j = (p-1)(p^2-1)...(p^j-1), so that
    (1-1/p)...(1-1/p^j) = L_j / p^(j(j+1)/2), in lowest terms since p divides
    no p^i - 1; p unchecked.  L_r / (L_s L_(r-s)) is the Gaussian binomial
    [r choose s] at q = p, an integer."""
    return list(accumulate((p**i - 1 for i in range(1, k + 1)), mul, initial=1))


def even_numerators(p: int, k: int) -> list[int]:
    """[N_0, ..., N_k], N_j = (p^2-1)(p^4-1)...(p^(2j)-1), so that
    (1-1/p^2)...(1-1/p^(2j)) = N_j / p^(j(j+1)), lower_numerators at p^2;
    p unchecked."""
    return lower_numerators(p * p, k)


def upper_numerators(p: int, k: int) -> list[int]:
    """[U_0, ..., U_k], U_j = (p+1)(p^2+1)...(p^j+1), so that
    (1+1/p)...(1+1/p^j) = U_j / p^(j(j+1)/2); p unchecked."""
    return list(accumulate((p**i + 1 for i in range(1, k + 1)), mul, initial=1))


@lru_cache(maxsize=None)
def kernel_numerators(a: int, p: int) -> tuple[int, ...]:
    """The numerators of the column kernel K(a, 0..a) over p^(a(a+1)/2); a and p
    unchecked.  A column of height b follows one of height a with

        K(a, b) = (1-1/p)...(1-1/p^a) / ( (1-1/p)...(1-1/p^b) )
                  * p^-(b(b+1)/2) / ( (1-1/p^2)...(1-1/p^(2k)) )
                = L_a / (L_b N_k) * p^(k(k+1)) / p^(a(a+1)/2),

    k = floor((a-b)/2), with L_j from lower_numerators and N_k from
    even_numerators.  L_a / (L_b N_k) is an integer since 2k <= a - b, and
    kernel_numerators(a, p)[b] is the number of symmetric a x a matrices over
    F_p of corank b (MacWilliams, Amer. Math. Monthly 1969).  This is
    the one definition of the coefficient: the sampler's kernel and rows, the
    chain suite, the chain-consistency recursion for P(a) and the series DP
    read it.

    The row is built from b = a down: L_a / L_b = (p^(b+1)-1)...(p^a-1) is one
    running product, so each entry costs one exact division by N_k.
    """
    evens = even_numerators(p, a // 2)
    row = [0] * (a + 1)
    ratio = 1  # L_a / L_b
    for b in range(a, -1, -1):
        k = (a - b) // 2
        row[b] = ratio // evens[k] * p ** (k * (k + 1))
        ratio *= p**b - 1
    return tuple(row)


def weight_key(parts: tuple[int, ...], evens: list[int]) -> tuple[int, int]:
    """(e, N) with 1 / (p^(n(lam)+|lam|) d_lambda) = 1 / (p^e N), in one pass
    over a weakly decreasing tuple of positive parts and their runs.

    ``evens`` is even_numerators(p, k) for some k >= half the longest run.
    n(lam) + |lam| is sum_i i lambda_i, with i counted from 1.  A run of m
    equal parts contributes (1-1/p^2)...(1-1/p^(2k)) = N_k / p^(k(k+1)),
    k = floor(m/2), to d_lambda, so N_k to N and -k(k+1) to e; a trailing 0
    closes the last run.  N is prime to p, so 1 / (p^e N) is in lowest terms,
    and e >= 0: the run adds at least m(m+1)/2 >= k(k+1) to n(lam) + |lam|.
    """
    total = exponent = run = prev = i = 0
    numerator = 1
    for x in parts + (0,):
        if x == prev:
            run += 1
        else:
            if run > 1:
                k = run >> 1
                numerator *= evens[k]
                exponent += k * (k + 1)
            prev, run = x, 1
        i += 1
        total += i * x
    return total - exponent, numerator


def require_mass_bits(lam: Partition, p: int, u: Fraction | None = None) -> None:
    """Raise ValueError if lam's mass at p, times u^|lam| when u is given, may
    need more than MAX_MASS_BITS bits: the bound e bitlen(p) + |lam|
    (bitlen(u.numerator) + bitlen(u.denominator)), e = n(lam) + |lam|, is
    read off the parts before any power is built."""
    bits = (lam.n_stat() + lam.size) * p.bit_length()
    if u is not None:
        bits += lam.size * (u.numerator.bit_length() + u.denominator.bit_length())
    require_int(bits, "mass bits", cap=MAX_MASS_BITS, kind="mass")


def d_lambda(lam: Partition, p: int) -> Fraction:
    """prod_{i>=1} prod_{j=1}^{floor(m_i/2)} (1 - p^(-2j)), the symmetry weight of lam."""
    require_mass_bits(lam, require_prime(p))
    e, numerator = weight_key(lam.parts, even_numerators(p, lam.length // 2))
    return Fraction(numerator, p ** (lam.n_stat() + lam.size - e))


def _enclose_product(a: Fraction, r: Fraction, width: Fraction, reciprocal=False):
    """(lo, hi), the first bracket within ``width`` that encloses
    prod_{k>=0} (1 - a r^k), for a > 0, 0 < r < 1, and width > 0.

    After K factors the partial product P bounds the product above, and the
    omitted factors multiply to at least 1 - T, T = a r^K / (1 - r), so with
    T < 1 the bracket [lo, hi] = [P (1 - T), P] encloses the product; its
    width is P T.  With ``reciprocal`` the width tested is T / (P (1 - T)),
    that of [1/hi, 1/lo], which encloses the product's reciprocal.

    P, T and a r^K are kept as integer numerators over integer denominators,
    so no Fraction is normalised per factor: lo and hi are built once.
    Before any product is built, the terms are walked until the width at
    P = 1 is within ``width``: as P <= 1, no bracket is within it before.  A
    request whose partial product, (K bitlen(den a) + K (K - 1)/2 bitlen(den r))
    bits over K factors, would pass MAX_PRODUCT_BITS by then, or later, is
    refused.  Every caller's width is a positive multiple of its tolerance,
    so a width <= 0 is refused as a tolerance <= 0.
    """
    if width <= 0:
        raise ValueError("tolerance must be > 0")
    an, ad, rn, rd = a.numerator, a.denominator, r.numerator, r.denominator
    wn, wd = width.numerator, width.denominator
    step = rd - rn  # 1 - r = step / rd

    def terms():
        """(en, ed) with a r^K = en / ed for K = 0, 1, ..., each once the
        partial product of the K factors before it is within the bit cap."""
        en, ed, bits, grow = an, ad, 0, ad.bit_length()
        while True:
            require_int(bits, "product bits", cap=MAX_PRODUCT_BITS, kind="product")
            yield en, ed
            en, ed, bits, grow = en * rn, ed * rd, bits + grow, grow + rd.bit_length()

    def within(pn, pd, en, ed):  # T < 1 and the bracket's width is within width, P = pn / pd
        tn, td = en * rd, ed * step
        if reciprocal:
            return tn < td and pd * tn * wd <= wn * pn * (td - tn)
        return tn < td and pn * tn * wd <= wn * pd * td

    for en, ed in terms():  # refuses before any product is built
        if within(1, 1, en, ed):
            break
    pn = pd = 1
    for en, ed in terms():
        if within(pn, pd, en, ed):
            tn, td = en * rd, ed * step
            return Fraction(pn * (td - tn), pd * td), Fraction(pn, pd)
        pn, pd = pn * (ed - en), pd * ed


@lru_cache(maxsize=None)
def odd_constant(p: int, tolerance=DEFAULT_TOLERANCE) -> BoundedReal:
    """Enclosure of prod over odd i of (1 - p^-i), to the requested radius.

    The factors are 1 - a r^k with a = 1/p and r = 1/p^2.
    """
    require_prime(p)
    width = 2 * as_fraction(tolerance)
    return BoundedReal.from_endpoints(*_enclose_product(Fraction(1, p), Fraction(1, p * p), width))


@lru_cache(maxsize=None)
def deformed_constant(p: int, u, tolerance=DEFAULT_TOLERANCE) -> BoundedReal:
    """Enclosure of (1 - u/p) * prod_{i>=3 odd} (1 - u^2 p^-i), for 0 < u < p.

    This is the normalizing constant of the u-deformed measure; at u = 1 it
    equals odd_constant(p).  The product's factors are 1 - a r^k with
    a = u^2/p^3 and r = 1/p^2.
    """
    u = require_deformation(require_prime(p), u)
    prefactor = 1 - u / p
    lo, hi = _enclose_product(u * u / p**3, Fraction(1, p * p),
                              2 * as_fraction(tolerance) / prefactor)
    return BoundedReal.from_endpoints(prefactor * lo, prefactor * hi)


EulerCheck = namedtuple("EulerCheck", "lhs rhs agree truncation_bound")


def verify_euler_identity(s, q, terms: int) -> EulerCheck:
    """Check 1 + sum_{m>=1} s^m / ((1-q)...(1-q^m)) = prod_{m>=0} (1 - s q^m)^-1.

    The left side is the exact partial sum through ``terms``; the right side
    is a rigorous enclosure of the infinite product's reciprocal.  ``agree``
    asserts |lhs - rhs.mid| <= rhs.rad + truncation_bound, where the bound
    dominates the omitted left-side tail: successive terms shrink by at least
    the ratio s / (1 - q^(terms+2)), so the tail is at most the first omitted
    term times the geometric sum of that ratio.
    """
    s, q = as_fraction(s), as_fraction(q)
    if not (0 < q < 1 and 0 < s < 1):
        raise ValueError("need 0 < s < 1 and 0 < q < 1")
    require_int(terms, "terms", 1, MAX_EULER_TERMS, "series depth")
    bits = (terms * (terms + 1) // 2 * q.denominator.bit_length()
            + terms * s.denominator.bit_length())
    require_int(bits, "euler bits", cap=MAX_EULER_BITS, kind="series bits")

    # (q;q)_m = Q_m / qd^(m(m+1)/2), Q_m = (qd - qn)(qd^2 - qn^2)...(qd^m - qn^m),
    # as lower_numerators is at q = 1/p.  The bound, from (q;q)_(terms+1), and
    # the enclosure, which may refuse, come before the partial sum, which is one
    # integer sum over sd^T Q_T, T = terms.
    n, qn, qd, sn, sd = terms + 1, q.numerator, q.denominator, s.numerator, s.denominator
    products = list(accumulate((qd**k - qn**k for k in range(1, n + 1)), mul, initial=1))
    ratio = s / (1 - q ** (n + 1))
    if ratio >= 1:
        raise ValueError("terms too small for a convergent tail bound; increase terms")
    truncation_bound = s**n / Fraction(products[n], qd ** (n * (n + 1) // 2)) / (1 - ratio)
    rhs = _euler_product_reciprocal(s, q, min(DEFAULT_TOLERANCE, truncation_bound))

    last = products[terms]
    lhs = Fraction(sum(sn**m * sd ** (terms - m) * qd ** (m * (m + 1) // 2) * (last // q_m)
                       for m, q_m in enumerate(products[:n])), sd**terms * last)
    agree = abs(lhs - rhs.mid) <= rhs.rad + truncation_bound
    return EulerCheck(lhs, rhs, agree, truncation_bound)


def _euler_product_reciprocal(s: Fraction, q: Fraction, tolerance: Fraction) -> BoundedReal:
    """Enclosure of prod_{m>=0} (1 - s q^m)^-1 with radius <= tolerance: the
    reciprocal of the first bracket whose reciprocal is within 2 tolerance."""
    lo, hi = _enclose_product(s, q, 2 * tolerance, reciprocal=True)
    return BoundedReal.from_endpoints(lo, hi).reciprocal()


QBinomialCheck = namedtuple("QBinomialCheck", "lhs rhs agree")


def verify_qbinomial(r: int, q, x) -> QBinomialCheck:
    """Check sum_{s=0}^r [r choose s]_q q^(s(s+1)/2) x^s = (1+xq)(1+xq^2)...(1+xq^r).

    Both sides are exact rationals; ``agree`` is exact equality.  r is
    capped at MAX_QBINOMIAL_DEGREE.

    Each side is one Fraction of integers.  With q = n/d, [m choose s]_q is
    G(m, s) / d^(s(m-s)), and q-Pascal's rule [m choose s]_q =
    [m-1 choose s-1]_q + q^s [m-1 choose s]_q gives the rows

        G(m, s) = G(m-1, s-1) d^(m-s) + n^s G(m-1, s),

    so the left side is a sum over d^(r(r+1)/2) den(x)^r; the right side is
    the product of the factors' numerators over that of their denominators.
    """
    require_int(r, "r", 1, MAX_QBINOMIAL_DEGREE, "series degree")
    q, x = as_fraction(q), as_fraction(x)
    n, d, xn, xd = q.numerator, q.denominator, x.numerator, x.denominator
    row = [1]  # G(m, 0..m)
    for m in range(1, r + 1):
        row = [1, *(row[s - 1] * d ** (m - s) + n**s * row[s] for s in range(1, m)), 1]
    top = r * (r + 1) // 2  # the largest power of d, s(r-s) + s(s+1)/2 at s = r
    lhs = Fraction(sum(g * n ** (s * (s + 1) // 2) * d ** (top - s * (2 * r - s + 1) // 2)
                       * xn**s * xd ** (r - s) for s, g in enumerate(row)), d**top * xd**r)
    numerator = denominator = 1
    for k in range(1, r + 1):
        numerator *= xd * d**k + xn * n**k
        denominator *= xd * d**k
    rhs = Fraction(numerator, denominator)
    return QBinomialCheck(lhs, rhs, lhs == rhs)
