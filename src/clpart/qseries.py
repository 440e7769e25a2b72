"""Exact q-product arithmetic and rigorously enclosed infinite products.

A finite product at q = 1/p is a running product of integer factors over a
known power of p, built per call (``*_numerators``); the column chain's
kernel coefficient is one quotient of them (``kernel_numerators``), and
``finite_qpoch`` is the generic ``Fraction`` product.  Infinite products are
returned as midpoint/radius enclosures (:class:`BoundedReal`) so downstream
checks can assert containment instead of approximate equality.  Tail bounds
all come from the elementary inequality

    prod(1 - a_i) >= 1 - sum(a_i)    for a_i in (0, 1),

applied to the omitted factors.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul

from .partitions import Partition, require_int

# Hard cap on adaptive truncation depth, so a pathological tolerance fails
# loudly instead of looping.
MAX_PRODUCT_FACTORS = 10**5

DEFAULT_TOLERANCE = Fraction(1, 10**30)

# Largest partial-sum depth verify_euler_identity accepts (verify --depth).  At
# s = 1/p, q = 1/p^2, 128 terms took 0.05 / 0.08 / 0.25 / 0.87 s at p = 2 / 3 / 7 / 101,
# 200 terms 0.27 s at p = 2 and 1.4 s at p = 7 (min of 3, Python 3.11.7, 2 vCPUs).
MAX_EULER_TERMS = 128

# Largest r verify_qbinomial accepts (the degree in x of both sides).  At q = 1/p,
# x = 1 or 2, r = 64 took 0.06-0.08 / 0.09-0.11 / 0.21 s at p = 2 / 7 / 101, and
# r = 128 took 0.37 / 1.1 / 4.1 s (in process, min of 3, Python 3.11.7, 2 vCPUs);
# the time grows about 7x per doubling of r.  verify asks for r <= 5.
MAX_QBINOMIAL_DEGREE = 64


def as_fraction(x) -> Fraction:
    """Coerce ints, Fractions, and "a/b" strings to Fraction; each side of a
    string a/b may run past Python's int-to-str digit limit (see text_int)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        text = x.strip()
        try:
            return Fraction(text)
        except ValueError as exc:
            num, slash, den = text.partition("/")
            try:
                return Fraction(text_int(num), text_int(den) if slash else 1)
            except ValueError:
                raise exc from None
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def int_text(i: int) -> str:
    """str(i), also past Python's int-to-str digit limit (4300 digits by default;
    a run of 1000 equal parts has a ~150,000-digit mass at p = 2): there the
    halves of a divmod by 10^k, k about half the digits, are joined."""
    try:
        return str(i)
    except ValueError:
        k = abs(i).bit_length() * 3 // 20  # log10(2) ~ 0.301
        high, low = divmod(abs(i), 10**k)
        return "-" * (i < 0) + int_text(high) + int_text(low).zfill(k)


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


def fraction_str(x: Fraction, digits=int_text) -> str:
    """Render as "num/den" (denominator always explicit, for stable JSON).

    ``digits`` turns an int into its decimal text; a caller that renders many
    fractions sharing big numerators or denominators can pass a cached one.
    """
    x = as_fraction(x)
    return f"{digits(x.numerator)}/{digits(x.denominator)}"


def clipped(text: str) -> tuple[str, str]:
    """``text`` as an error message echoes it, and a note on its length: a
    text over 60 characters is shown by its first 30 and last 10 characters
    and noted as "N characters"; a shorter one is shown whole, with no note."""
    if len(text) <= 60:
        return text, ""
    return f"{text[:30]}...{text[-10:]}", f"{len(text)} characters"


class BoundedReal:
    """A real number known to lie in [mid - rad, mid + rad].

    Arithmetic produces enclosures of the exact results; operations never
    silently drop error.  Rationals embed exactly with rad = 0.  Immutable,
    and equal (and hashed alike) when mid and rad are.
    """

    __slots__ = ("mid", "rad")

    def __init__(self, mid, rad=Fraction(0)):
        mid, rad = as_fraction(mid), as_fraction(rad)
        if rad < 0:
            raise ValueError("radius must be >= 0")
        object.__setattr__(self, "mid", mid)
        object.__setattr__(self, "rad", rad)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a BoundedReal is immutable")

    def __eq__(self, other):
        if not isinstance(other, BoundedReal):
            return NotImplemented
        return self.mid == other.mid and self.rad == other.rad

    def __hash__(self):
        return hash((self.mid, self.rad))

    def __repr__(self):
        return f"BoundedReal(mid={self.mid!r}, rad={self.rad!r})"

    def __reduce__(self):
        return BoundedReal, (self.mid, self.rad)

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
        raise ValueError(f"u must satisfy 0 < u < p, got {u}")
    return u


def finite_qpoch(x, q, j: int) -> Fraction:
    """The finite q-Pochhammer product prod_{k=1}^{j} (1 - x q^(k-1)); j=0 gives 1."""
    require_int(j, "j", 0)
    x, q = as_fraction(x), as_fraction(q)
    out = Fraction(1)
    power = Fraction(1)
    for _ in range(j):
        out *= 1 - x * power
        power *= q
    return out


def lower_numerators(p: int, k: int) -> list[int]:
    """[L_0, ..., L_k], L_j = (p-1)(p^2-1)...(p^j-1), so that
    (1-1/p)...(1-1/p^j) = L_j / p^(j(j+1)/2), in lowest terms since p divides
    no p^i - 1; p unchecked.  L_r / (L_s L_(r-s)) is the Gaussian binomial
    [r choose s] at q = p, an integer."""
    return list(accumulate((p**i - 1 for i in range(1, k + 1)), mul, initial=1))


def even_numerators(p: int, k: int) -> list[int]:
    """[N_0, ..., N_k], N_j = (p^2-1)(p^4-1)...(p^(2j)-1), so that
    (1-1/p^2)...(1-1/p^(2j)) = N_j / p^(j(j+1)); p unchecked."""
    return list(accumulate((p ** (2 * i) - 1 for i in range(1, k + 1)), mul, initial=1))


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
    even_numerators.  L_a / (L_b N_k) is an integer since 2k <= a - b.  This is
    the one definition of the coefficient: the sampler's kernel and rows, the
    chain suite and the chain-consistency recursion for P(a) read it.
    """
    lower, evens = lower_numerators(p, a), even_numerators(p, a // 2)
    row = []
    for b in range(a + 1):
        k = (a - b) // 2
        row.append(lower[a] // (lower[b] * evens[k]) * p ** (k * (k + 1)))
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


def d_lambda(lam: Partition, p: int) -> Fraction:
    """prod_{i>=1} prod_{j=1}^{floor(m_i/2)} (1 - p^(-2j)), the symmetry weight of lam."""
    e, numerator = weight_key(lam.parts, even_numerators(require_prime(p), lam.length // 2))
    return Fraction(numerator, p ** (lam.n_stat() + lam.size - e))


def _enclose_product(a: Fraction, r: Fraction, accept):
    """The first accepted enclosure of prod_{k>=0} (1 - a r^k), for a > 0, 0 < r < 1.

    After K factors the partial product P bounds the product above, and the
    omitted factors multiply to at least 1 - a r^K / (1 - r).  Each bracket
    [P (1 - tail), P] with tail < 1 goes to ``accept(lo, hi)``, which returns
    the enclosure to report, or None to take one more factor.
    """
    partial = Fraction(1)
    term = a  # a r^K, the next factor's subtrahend
    for _ in range(MAX_PRODUCT_FACTORS):
        tail = term / (1 - r)
        if tail < 1:
            enclosure = accept(partial * (1 - tail), partial)
            if enclosure is not None:
                return enclosure
        partial *= 1 - term
        term *= r
    raise ArithmeticError(
        f"enclosure was not accepted within {MAX_PRODUCT_FACTORS} factors"
    )


@lru_cache(maxsize=None)
def odd_constant(p: int, tolerance=DEFAULT_TOLERANCE) -> BoundedReal:
    """Enclosure of prod over odd i of (1 - p^-i), to the requested radius.

    The factors are 1 - a r^k with a = 1/p and r = 1/p^2.
    """
    require_prime(p)
    tol = as_fraction(tolerance)
    if tol <= 0:
        raise ValueError("tolerance must be > 0")

    def accept(lo, hi):
        return BoundedReal.from_endpoints(lo, hi) if hi - lo <= 2 * tol else None

    return _enclose_product(Fraction(1, p), Fraction(1, p * p), accept)


@lru_cache(maxsize=None)
def deformed_constant(p: int, u, tolerance=DEFAULT_TOLERANCE) -> BoundedReal:
    """Enclosure of (1 - u/p) * prod_{i>=3 odd} (1 - u^2 p^-i), for 0 < u < p.

    This is the normalizing constant of the u-deformed measure; at u = 1 it
    equals odd_constant(p).  The product's factors are 1 - a r^k with
    a = u^2/p^3 and r = 1/p^2.
    """
    u = require_deformation(require_prime(p), u)
    tol = as_fraction(tolerance)
    if tol <= 0:
        raise ValueError("tolerance must be > 0")
    prefactor = 1 - u / p

    def accept(lo, hi):
        if prefactor * (hi - lo) <= 2 * tol:
            return BoundedReal.from_endpoints(prefactor * lo, prefactor * hi)
        return None

    return _enclose_product(u * u / p**3, Fraction(1, p * p), accept)


def gaussian_binomial(r: int, s: int, q) -> Fraction:
    """The q-binomial coefficient [r choose s]_q as a ratio of finite q-factorials."""
    if not (0 <= s <= r):
        raise ValueError("need 0 <= s <= r")
    q = as_fraction(q)
    num = finite_qpoch(q, q, r)
    den = finite_qpoch(q, q, s) * finite_qpoch(q, q, r - s)
    if den == 0:
        raise ValueError(f"q-factorial vanishes at q={q}; q must avoid roots of unity")
    return num / den


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

    lhs = Fraction(1)
    denom = Fraction(1)
    s_power = Fraction(1)
    q_power = Fraction(1)
    for m in range(1, terms + 1):
        q_power *= q
        denom *= 1 - q_power
        s_power *= s
        lhs += s_power / denom

    first_omitted = s_power * s / (denom * (1 - q_power * q))
    ratio = s / (1 - q_power * q * q)
    if ratio >= 1:
        raise ValueError("terms too small for a convergent tail bound; increase terms")
    truncation_bound = first_omitted / (1 - ratio)

    rhs = _euler_product_reciprocal(s, q, min(DEFAULT_TOLERANCE, truncation_bound))
    agree = abs(lhs - rhs.mid) <= rhs.rad + truncation_bound
    return EulerCheck(lhs, rhs, agree, truncation_bound)


def _euler_product_reciprocal(s: Fraction, q: Fraction, tolerance: Fraction) -> BoundedReal:
    """Enclosure of prod_{m>=0} (1 - s q^m)^-1 with radius <= tolerance."""

    def accept(lo, hi):
        enclosure = BoundedReal.from_endpoints(lo, hi).reciprocal()
        return enclosure if enclosure.rad <= tolerance else None

    return _enclose_product(s, q, accept)


QBinomialCheck = namedtuple("QBinomialCheck", "lhs rhs agree")


def verify_qbinomial(r: int, q, x) -> QBinomialCheck:
    """Check sum_{s=0}^r [r choose s]_q q^(s(s+1)/2) x^s = (1+xq)(1+xq^2)...(1+xq^r).

    Both sides are exact rationals; ``agree`` is exact equality.  r is
    capped at MAX_QBINOMIAL_DEGREE.
    """
    require_int(r, "r", 1, MAX_QBINOMIAL_DEGREE, "series degree")
    q, x = as_fraction(q), as_fraction(x)
    lhs = Fraction(0)
    for s in range(r + 1):
        lhs += gaussian_binomial(r, s, q) * q ** (s * (s + 1) // 2) * x**s
    rhs = Fraction(1)
    for k in range(1, r + 1):
        rhs *= 1 + x * q**k
    return QBinomialCheck(lhs, rhs, lhs == rhs)
