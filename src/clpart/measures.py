"""Probability measures on partitions, exact up to one shared constant.

Every measure tabulated here is a :class:`Family`: the mass of lam is one
:class:`Constant` times an exact rational part, the weight
1 / (p^(n(lam)+|lam|) d_lambda(lam, p)) times a factor of one statistic of lam
(none, |lam| or l(lam)).  The constant is built once per (p, u) with its
rigorous enclosure.  Keeping the rational part separate means equality
between different formulas for the same measure is an exact rational
comparison; a table holds one constant for all its entries, and the
enclosure is multiplied in only at the output boundary.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

from .partitions import (ENUMERATION_CAP, Frozen, Partition, Record, enumerate_partitions,
                         require_int)
from .qseries import (
    BoundedReal,
    as_fraction,
    deformed_constant,
    echo,
    even_numerators,
    exact_decimals,
    fraction_str,
    int_text,
    kernel_numerators,
    lower_numerators,
    odd_constant,
    require_deformation,
    require_mass_bits,
    require_prime,
    upper_numerators,
    weight_key,
)

# Largest max_size the series DP accepts.  Its O(N^3) integer steps took
# 0.04 / 0.29 / 1.29 s at N = 64 / 96 / 128 at p = 2, and 0.15 s at N = 64,
# p = 7 (a fresh process, min of 3, Python 3.11.7, 2 vCPUs; the Fraction DP it
# replaced took 0.31 / 0.83 / 4.4 s and 0.39 s); the verify suites use
# N <= 40, and larger requests are refused rather than left running for hours.
MAX_SERIES_SIZE = 128

# Largest parts count the exact q-product routes accept: pmf_parts's a, the
# truncated family's r and solve_parts_recursion's a_max.  The products'
# sizes grow like k^2 log p bits, so a huge k would run for hours.  At 64 the
# two parts recursions took 0.014 / 0.024 / 0.052 / 0.22 s at
# p = 2 / 3 / 7 / 101, and a truncated table to size 20 took 0.11 s at
# p = 101 (at 96: 0.08 / 0.12 / 0.34 / 1.7 s and 0.34 s; a fresh process, min
# of 3, Python 3.11.7, 2 vCPUs).  The benchmark asks for 50.
MAX_PARTS = 64


class Constant(Frozen):
    """An infinite-product constant: its label (None for the exact 1) and
    enclosure.  Immutable, and equal when both fields are."""

    __slots__ = _fields = ("name", "enclosure")

    def __init__(self, name: str | None, enclosure: BoundedReal):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "enclosure", enclosure)

    def __str__(self):
        if self.name is None:
            return "constant: exact 1 (no infinite product)"
        return f"constant {self.name} = {self.enclosure}"


EXACT = Constant(None, BoundedReal.exact(1))


@lru_cache(maxsize=None)
def odd(p: int) -> Constant:
    """prod_{i odd}(1 - p^-i), the base measure's constant."""
    return Constant(f"odd(p={p})", odd_constant(p))


@lru_cache(maxsize=None)
def deformed(p: int, u: Fraction) -> Constant:
    """(1 - u/p) prod_{i>=3 odd}(1 - u^2 p^-i), the u-deformed measure's constant;
    its label shows u as ``echo`` does, so a long u is shortened."""
    return Constant(f"deformed(p={p}, u={echo(u)})", deformed_constant(p, u))


class MassValue(Frozen):
    """A probability mass: ``constant`` times an exact rational part.
    Immutable, and equal when both fields are."""

    __slots__ = _fields = ("rational", "constant")

    def __init__(self, rational, constant: Constant = EXACT):
        object.__setattr__(self, "rational", as_fraction(rational))
        object.__setattr__(self, "constant", constant)

    def enclosure(self) -> BoundedReal:
        """The numeric mass, as constant enclosure times the rational part."""
        return self.constant.enclosure * self.rational


def pmf_via_conjugate(lam: Partition, p: int) -> MassValue:
    """Mass of lam under the limiting p-Sylow measure, in the conjugate form.

    With mu the conjugate of lam (and mu_{l+1} = 0 past the last column):

        odd-constant * p^-(mu_1(mu_1+1)/2) * prod_j step(mu_j, mu_{j+1}),

    where a column of height b after one of height a steps by
    p^-(b(b+1)/2) / ((1-1/p^2)...(1-1/p^(2k))) = p^(k(k+1) - b(b+1)/2) / N_k,
    k = floor((a-b)/2), N_k from even_numerators: one p-exponent and one
    integer product over the columns, and one Fraction at the end.
    """
    require_mass_bits(lam, require_prime(p))  # before the conjugate is built
    mu = lam.conjugate().parts + (0,)
    evens = even_numerators(p, mu[0] // 2)
    exponent, denominator = mu[0] * (mu[0] + 1) // 2, 1
    for a, b in zip(mu, mu[1:]):
        k = (a - b) // 2
        exponent += b * (b + 1) // 2 - k * (k + 1)
        denominator *= evens[k]
    return MassValue(Fraction(1, p**exponent * denominator), odd(p))


def _weight(lam: Partition, p: int) -> Fraction:
    """1 / (p^(n(lam)+|lam|) d_lambda(lam, p)), the multiplicity form; p unchecked.

    weight_key gives it as 1 / (p^e N): one integer denominator, already in
    lowest terms.
    """
    e, numerator = weight_key(lam.parts, even_numerators(p, lam.length // 2))
    return Fraction(1, p**e * numerator)


def pmf(lam: Partition, p: int) -> MassValue:
    """Mass of lam under the limiting p-Sylow measure (multiplicity form).

        odd-constant / ( p^(n(lam) + |lam|) * d_lambda(lam, p) )

    Equal, term by term, to pmf_via_conjugate; this form is the cheaper one.
    """
    require_mass_bits(lam, require_prime(p))
    return MassValue(_weight(lam, p), odd(p))


def pmf_parts(a: int, p: int) -> MassValue:
    """Chance that a partition drawn from the measure has exactly ``a`` parts:

        odd-constant / ( p^(a(a+1)/2) * (1-1/p)...(1-1/p^a) )
    """
    require_prime(p)
    require_int(a, "a", 0, MAX_PARTS, "parts")
    # p^(a(a+1)/2) (1-1/p)...(1-1/p^a) = (p-1)...(p^a-1) = L_a
    return MassValue(Fraction(1, lower_numerators(p, a)[a]), odd(p))


def pmf_size(n: int, p: int) -> MassValue:
    """Chance that a partition drawn from the measure has size n:

        odd-constant * p^-n * sum_{j even, 0 <= j <= n} p^-(j/2) / ((1-1/p^2)...(1-1/p^j))

    The k = j/2 term is p^(k^2) / N_k (even_numerators), one integer over
    N_K p^n, K = floor(n/2).  n is capped at MAX_SERIES_SIZE, like the series
    layers whose sizes this marginal sums.
    """
    require_prime(p)
    require_int(n, "n", 0, MAX_SERIES_SIZE, "series")
    evens = even_numerators(p, n // 2)
    total = sum(p ** (k * k) * (evens[-1] // even) for k, even in enumerate(evens))
    return MassValue(Fraction(total, evens[-1] * p**n), odd(p))


class Family(Frozen):
    """A measure family: name, prime and its one parameter, u or r.  The mass
    of lam is constant * w(lam) * factor(statistic), w(lam) = _weight(lam, p):

        cl         no parameter   statistic 0        factor 1                constant odd(p)
        deformed   0 < u < p      statistic |lam|    factor u^|lam|          constant deformed(p, u)
        truncated  1 <= r <= 64   statistic l(lam)   _truncated_factor, no mass past r parts

    The constructor is the one check of the name, of which parameter is given
    and of its range.  Immutable, and equal when every field is.
    """

    __slots__ = _fields = ("name", "p", "u", "r")
    PARAMETERS = {"cl": None, "deformed": "u", "truncated": "r"}  # name -> its parameter

    def __init__(self, name: str, p: int, u=None, r=None):
        require_prime(p)
        if name not in self.PARAMETERS:
            raise ValueError(f"unknown measure {name!r} (expected {', '.join(self.PARAMETERS)})")
        param = self.PARAMETERS[name]
        if param is not None and {"u": u, "r": r}[param] is None:
            raise ValueError(f"the {name} measure needs {param}")
        if (u is not None and param != "u") or (r is not None and param != "r"):
            raise ValueError("u/r apply only to the deformed/truncated measures")
        if u is not None:
            u = require_deformation(p, u)
        if r is not None:
            require_int(r, "r", 1, MAX_PARTS, "parts")  # r < 1 would leave the table empty
        for field, value in zip(self._fields, (name, p, u, r)):
            object.__setattr__(self, field, value)

    def constant(self) -> Constant:
        if self.name == "deformed":
            return deformed(self.p, self.u)
        return odd(self.p) if self.name == "cl" else EXACT

    def statistic(self, size: int, length: int) -> int | None:
        """The statistic the factor reads (0, the size or the length), or None
        where the family has no mass (more than r parts)."""
        if self.name == "truncated":
            return length if length <= self.r else None
        return size if self.name == "deformed" else 0

    def factor(self, statistic: int) -> Fraction:
        if self.name == "deformed":
            return self.u**statistic
        return Fraction(1) if self.name == "cl" else _truncated_factor(self.p, self.r, statistic)

    def params(self) -> dict:
        """The parameter as a table's JSON params: {}, {"u": "a/b"} or {"r": r}."""
        if self.u is not None:
            return {"u": fraction_str(self.u)}
        return {} if self.r is None else {"r": self.r}

    def mass(self, lam: Partition) -> MassValue:
        statistic = self.statistic(lam.size, lam.length)
        if statistic is None:
            raise ValueError(f"partition has {lam.length} parts, more than r={self.r}")
        require_mass_bits(lam, self.p, self.u)
        return MassValue(_weight(lam, self.p) * self.factor(statistic), self.constant())

    def tail(self, max_size: int) -> Fraction:
        """Exact rational bound on the family's mass at sizes > max_size.

        The base measure's mass at size n is odd-constant * p^-n * S_n with
        S_n increasing to 1/odd-constant, so it is at most p^-n.  A deformed
        mass at size n is at most (u/p)^n * (deformed constant) / odd-constant
        <= (u/p)^n * inverse_odd_constant_upper(p).  A truncated one is at
        most p^-n * inverse_odd_constant_upper(p): its normalizer and trailing
        ratio are both <= 1.  Each bound is summed geometrically.
        """
        ratio = Fraction(1 if self.u is None else self.u, self.p)
        bound = 1 if self.name == "cl" else inverse_odd_constant_upper(self.p)
        return bound * ratio ** (max_size + 1) / (1 - ratio)

    def layer_sum(self, max_size: int, table_size: int | None = None) -> Fraction:
        """sum of w(lam) * factor over sizes <= max_size, read off the cells of
        size_length_layers(p, table_size) up to max_size (table_size defaults
        to max_size; a larger table's cells of size <= max_size are the
        smaller table's, so one table serves each smaller sum): the cells of
        each statistic are summed first, then multiplied by one factor each."""
        if table_size is None:
            table_size = max_size
        require_int(max_size, "max_size", 0, table_size, "table")
        by_statistic = {}
        for (n, length), value in size_length_layers(self.p, table_size).items():
            statistic = self.statistic(n, length)
            if statistic is not None and n <= max_size:
                by_statistic[statistic] = by_statistic.get(statistic, 0) + value
        return sum(self.factor(statistic) * value for statistic, value in by_statistic.items())


def pmf_deformed(lam: Partition, p: int, u) -> MassValue:
    """Mass of lam under the u-deformed measure, 0 < u < p (see Family); at
    u = 1 the rational part coincides with pmf()."""
    return Family("deformed", p, u=u).mass(lam)


def pmf_truncated(lam: Partition, p: int, r: int) -> Fraction:
    """Mass of lam under the at-most-r-parts measure; fully exact, no constant:

        [ (1+1/p)...(1+1/p^r) ]^-1
        * 1 / ( p^(n(lam)+|lam|) * d_lambda(lam, p) )
        * (1-1/p)...(1-1/p^r) / ( (1-1/p)...(1-1/p^(r-l(lam))) )
    """
    return Family("truncated", p, r=r).mass(lam).rational


@lru_cache(maxsize=None)
def _truncated_factor(p: int, r: int, length: int) -> Fraction:
    """The first and last factors of pmf_truncated for a partition of ``length``
    parts, one value per (p, r, length); p and r unchecked.  It is
    L_r p^(m(m+1)/2) / (L_m U_r), m = r - length, with L and U from
    lower_numerators and upper_numerators; L_r / L_m is an integer."""
    lower, m = lower_numerators(p, r), r - length
    return Fraction(lower[r] // lower[m] * p ** (m * (m + 1) // 2), upper_numerators(p, r)[r])


def _parts_recursion_product_form(p: int, a_max: int) -> list[Fraction]:
    """Rational parts of P(0..a_max) from the finite-product recursion:

        (1-1/p)...(1-1/p^r) * sum_{s=0}^r P~(s) / ((1-1/p)...(1-1/p^(r-s)))
            = (1+1/p)...(1+1/p^r),

    solved inductively from P~(0) = 1.  It runs on integers: with
    P~(r) = Y_r / L_r, L_r from lower_numerators and U_r from
    upper_numerators (both over p^(r(r+1)/2)), multiplying by L_r gives

        Y_r = U_r - sum_{s<r} Y_s p^((r-s)(r-s+1)/2) L_r / (L_s L_(r-s)),

    and L_r / (L_s L_(r-s)) is a Gaussian binomial, so the division is exact.
    """
    lower, upper = lower_numerators(p, a_max), upper_numerators(p, a_max)
    powers = [p ** (j * (j + 1) // 2) for j in range(a_max + 1)]
    ys = [1]
    for r in range(1, a_max + 1):
        acc = upper[r]
        for s in range(r):
            acc -= ys[s] * powers[r - s] * (lower[r] // (lower[s] * lower[r - s]))
        ys.append(acc)
    return [Fraction(y, d) for y, d in zip(ys, lower)]


def _parts_recursion_kernel_form(p: int, a_max: int) -> list[Fraction]:
    """Rational parts of P(0..a_max) from the chain-consistency recursion:

        sum_{b<=a} P~(b) / ( p^(binom(a+1,2)) P~(a) (1/p^2)_{floor((a-b)/2)} ) = 1,

    solved inductively from P~(0) = 1.  It runs on integers: with
    P~(a) = Y_a / L_a, L_a from lower_numerators, multiplying by L_a gives

        Y_a (p^(a(a+1)/2) - 1) = sum_{b<a} Y_b C(a, b),

    where C(a, b) = kernel_numerators(a, p)[b], the integer numerator of the
    sampler's kernel K(a, b) over p^(a(a+1)/2); so this recursion also checks
    the integers the sampler draws from.  A remainder in the division by
    p^(a(a+1)/2) - 1 means this P~(a) is no integer over L_a, so it cannot
    equal the product form's: that raises ArithmeticError, as any
    disagreement of the two does.
    """
    ys = [1]
    for a in range(1, a_max + 1):
        acc = sum(y * c for y, c in zip(ys, kernel_numerators(a, p)))  # ys stops at b = a - 1
        y, remainder = divmod(acc, p ** (a * (a + 1) // 2) - 1)
        if remainder:
            raise ArithmeticError(f"parts recursions disagree at p={p}: the kernel form "
                                  f"leaves a remainder at a={a}")
        ys.append(y)
    return [Fraction(y, d) for y, d in zip(ys, lower_numerators(p, a_max))]


def solve_parts_recursion(p: int, a_max: int) -> list[MassValue]:
    """P(0..a_max) computed independently from both recursions.

    The two solutions must agree exactly (and both match the closed form
    pmf_parts); any discrepancy is an arithmetic bug, so it raises.
    """
    require_prime(p)
    require_int(a_max, "a_max", 0, MAX_PARTS, "parts")
    from_product = _parts_recursion_product_form(p, a_max)
    from_kernel = _parts_recursion_kernel_form(p, a_max)
    if from_product != from_kernel:
        raise ArithmeticError(
            f"parts recursions disagree at p={p}: {from_product} vs {from_kernel}"
        )
    return [MassValue(v, odd(p)) for v in from_product]


@lru_cache(maxsize=None)
def inverse_odd_constant_upper(p: int) -> Fraction:
    """A rational upper bound on 1 / prod_{i odd}(1 - p^-i), for tail bounds.

    The reciprocal appears because the full size-generating sum
    sum_k p^-k / (1-1/p^2)...(1-1/p^(2k)) converges to exactly that value
    (the classical Euler series/product identity at s=1/p, q=1/p^2).
    """
    return 1 / odd_constant(p, Fraction(1, 10**6)).lower


class PartitionDistribution(Record):
    """A table partition -> mass, plus the mass provably outside the table.

    Every entry's mass is ``constant`` times its exact rational in
    ``entries``, which hold their partitions in canonical order
    (Partition.sort_key): tabulate and frequency_table insert them so, and
    the outputs list them as they are.  ``tail_mass`` is a rigorous enclosure
    of the un-enumerated mass computed from analytic bounds, never from
    1 - (table total): normalization checks stay meaningful.  ``counts`` is
    set on empirical tables only.  Tables are equal when every field is, and
    are not hashable.
    """

    __slots__ = _fields = ("p", "measure", "params", "entries", "constant", "tail_mass",
                           "counts")

    def __init__(self, p: int, measure: str, params: dict | None = None,
                 entries: dict[Partition, Fraction] | None = None, constant: Constant = EXACT,
                 tail_mass: BoundedReal | None = None, counts: dict[Partition, int] | None = None):
        self.p = p
        self.measure = measure
        self.params = {} if params is None else params
        self.entries = {} if entries is None else entries
        self.constant = constant
        self.tail_mass = BoundedReal(0) if tail_mass is None else tail_mass
        self.counts = counts

    def _rendered(self, render):
        """(partition, render(mid, rad)) in the entries' canonical order, with mid
        and rad the entry's mass enclosure as ``_product`` triples.

        Each distinct rational is multiplied by the constant and rendered
        once: the base measure's depends only on n(lam) + |lam| and the
        multiplicities, so many entries share one.  The renderings are keyed
        by (numerator, denominator), so no Fraction is hashed.
        """
        enclosure = self.constant.enclosure
        mid = enclosure.mid.numerator, enclosure.mid.denominator
        rad = enclosure.rad.numerator, enclosure.rad.denominator
        rendered = {}
        for lam, r in self.entries.items():
            key = r.numerator, r.denominator
            text = rendered.get(key)
            if text is None:
                text = rendered[key] = render(_product(*mid, *key), _product(*rad, *key))
            yield lam, text

    def total_enclosure(self) -> BoundedReal:
        """Enclosure of the summed entry masses (tail not included).

        The rationals are summed exactly first, each distinct one once times
        its multiplicity, as integers over the lcm of their denominators, so
        the enclosure is as tight as the constant's own.
        """
        multiplicity = {}
        for r in self.entries.values():
            key = (r.numerator, r.denominator)
            multiplicity[key] = multiplicity.get(key, 0) + 1
        common = lcm(*(den for _, den in multiplicity))
        total = sum(num * m * (common // den) for (num, den), m in multiplicity.items())
        return self.constant.enclosure * Fraction(total, common)

    def normalization_enclosure(self) -> BoundedReal:
        return self.total_enclosure() + self.tail_mass

    def to_json_dict(self) -> dict:
        """The table as a JSON-ready dict; ``json_parts`` is its streamed form."""
        head, entries = self.json_parts()
        rows = []
        for lam, count, (mid, rad) in entries:
            row = {"partition": str(lam), "mid": mid, "rad": rad}
            if count is not None:
                row["count"] = count
            rows.append(row)
        return {**head, "entries": rows}

    def json_parts(self, fields=None):
        """(the JSON object without "entries", an iterator of entry fields).

        The fields are (partition, count or None, rendered) in canonical
        order, where ``rendered`` is fields(mid, rad), by default (mid, rad),
        of the mid and rad fraction strings.  Both are rendered once per
        distinct rational, and entries sharing a mass share them.  The mids
        and rads share their numerators and the big factors of their
        denominators, so each distinct numerator is converted to decimal once,
        and each big factor to a ``decimal.Decimal`` once, which an exact
        product with the small factor turns into the denominator's digits.
        """
        counts = self.counts
        context = exact_decimals()
        digits, factors = _Cache(int_text), _Cache(context.create_decimal)

        def text(product):
            numerator, big, small = product
            return f"{digits[numerator]}/{context.multiply(factors[big], small)!s}"

        def render(mid, rad):
            mid, rad = text(mid), text(rad)
            return (mid, rad) if fields is None else fields(mid, rad)

        head = {"p": self.p, "measure": self.measure, "params": dict(self.params),
                "tail": self.tail_mass.to_json()}
        return head, (
            (lam, None if counts is None else counts.get(lam, 0), rendered)
            for lam, rendered in self._rendered(render))

    def to_csv_rows(self) -> list[list[str]]:
        rows = [["partition", "midpoint", "radius"]]
        for lam, (mid, rad) in self._rendered(lambda mid, rad: (_float_text(*mid),
                                                                _float_text(*rad))):
            rows.append([str(lam), mid, rad])
        return rows


def _product(n: int, d: int, a: int, b: int) -> tuple[int, int, int]:
    """n/d times a/b, both in lowest terms with d, a and b > 0, reduced as
    Fraction multiplication reduces it, by gcd(n, b) and gcd(a, d):
    (numerator, big, small), the denominator being big * small.

    In a table n/d is the constant's midpoint or radius and a/b an entry's
    rational, so ``big`` = d / gcd(a, d) takes few values and ``small`` =
    b / gcd(n, b) is no longer than b.
    """
    g, h = gcd(n, b), gcd(a, d)
    return n // g * (a // h), d // h, b // g


def _float_text(numerator: int, big: int, small: int) -> str:
    """repr of the float nearest a ``_product``, as Fraction's float rounds it:
    int true division rounds correctly."""
    return repr(numerator / (big * small))


class _Cache(dict):
    """key -> convert(key), converted on the first lookup."""

    __slots__ = ("convert",)

    def __init__(self, convert):
        self.convert = convert

    def __missing__(self, key):
        value = self[key] = self.convert(key)
        return value


def frequency_table(p: int, measure: str, params: dict, counts: dict,
                    total: int) -> PartitionDistribution:
    """The empirical table of ``counts`` over ``total`` observations.

    Masses are count/total with an exact-0 tail, in canonical order;
    ``counts`` is stored as a plain dict, so looking up an unseen partition
    raises.
    """
    entries = {lam: Fraction(counts[lam], total)
               for lam in sorted(counts, key=Partition.sort_key)}
    return PartitionDistribution(p=p, measure=measure, params=params, entries=entries,
                                 counts=dict(counts))


def tabulate(p: int, max_size: int, measure: str = "cl", *, u=None, r=None) -> PartitionDistribution:
    """Exact mass table over all partitions of size <= max_size of the Family
    ``measure`` (with its u or r); the tail enclosure covers everything outside."""
    require_int(max_size, "max_size", 0, ENUMERATION_CAP, "enumeration")
    family = Family(measure, p, u, r)

    # An entry's rational is _weight's 1 / (p^e N) times the family's factor of
    # its statistic.  Each distinct ((e, N), statistic) gets one Fraction,
    # shared by its entries.
    evens = even_numerators(p, max_size // 2)
    entries: dict[Partition, Fraction] = {}
    rationals: dict[tuple, Fraction] = {}
    for n in range(max_size + 1):
        statistics = [family.statistic(n, length) for length in range(n + 1)]
        factors = [None if s is None else family.factor(s) for s in statistics]
        for lam in enumerate_partitions(n):
            length = len(lam.parts)
            statistic = statistics[length]
            if statistic is None:
                continue  # no mass: the truncated family past r parts
            key = weight_key(lam.parts, evens), statistic
            rational = rationals.get(key)
            if rational is None:
                e, numerator = key[0]
                factor = factors[length]
                rational = Fraction(factor.numerator, factor.denominator * p**e * numerator)
                rationals[key] = rational
            entries[lam] = rational
    return PartitionDistribution(p=p, measure=measure, params=family.params(), entries=entries,
                                 constant=family.constant(),
                                 tail_mass=BoundedReal.from_endpoints(0, family.tail(max_size)))


@lru_cache(maxsize=None, typed=True)
def size_length_layers(p: int, max_size: int) -> dict:
    """(size, parts-count) -> sum of 1 / (p^(n(lam)+|lam|) d_lambda) over that cell.

    A column DP; every generating-sum check and marginal is a cheap
    reweighting of this table.  The weight factorises over the conjugate's
    columns as in pmf_via_conjugate, so with G(a, s) the summed column steps
    of all column sequences of total s that follow a column of height a
    (G(0, s) = [s == 0]):

        G(a, s) = sum_{b <= min(a, s)} step(a, b) G(b, s - b),
        step(a, b) = p^-(b(b+1)/2) / ( (1-1/p^2)...(1-1/p^(2k)) ),  k = floor((a-b)/2),

    and the cell (a + s, a) holds p^-(a(a+1)/2) G(a, s).  This takes O(N^3)
    exact operations where enumerating the partitions takes O(p(<= N)).

    The DP runs on integers: G(a, s) = X(a, s) / (M_a p^(s(s+1)/2)), with
    M_a = prod_{j>=1} (p^(2j) - 1)^floor(a/2j) and N_k from even_numerators,
    so step(a, b) = p^(k(k+1) - b(b+1)/2) / N_k gives

        X(a, s) = sum_{b <= min(a, s)} [M_a / (N_k M_b)] p^(b(s-b) + k(k+1)) X(b, s - b).

    M_a / (N_k M_b) is an integer since a >= b + 2k, and each cell is one
    Fraction.  Any other M with integer coefficients gives the same cells:
    L_a of lower_numerators does, which makes the coefficients the kernel's
    kernel_numerators(a, p), but that DP ran 9-20 % slower (10.1 -> 11.8 ms
    at N = 40, p = 2; 158 -> 190 ms at N = 64, p = 7; 1.41 -> 1.53 s at
    N = 128, p = 2; min of 3-7, Python 3.11.7, 2 vCPUs), so M_a stays.
    ``max_size`` must be an int in [0, MAX_SERIES_SIZE]; ValueError otherwise.
    """
    require_prime(p)
    require_int(max_size, "max_size", 0, MAX_SERIES_SIZE, "series")
    evens = even_numerators(p, max_size // 2)
    # M_a = prod_{i>=1} N_floor(a/2i): p^(2j) - 1 lies in N_floor(a/2i) for floor(a/2j) i's
    m = [prod(evens[a // (2 * i)] for i in range(1, a // 2 + 1)) for a in range(max_size + 1)]
    powers = [p**e for e in range((max_size // 2 + 1) ** 2 + 1)]
    x = [[1] + [0] * max_size]
    for a in range(1, max_size + 1):
        coefficients = []
        for b in range(a + 1):
            k = (a - b) // 2
            coefficients.append(m[a] // (evens[k] * m[b]) * powers[k * (k + 1)])
        row = []
        x.append(row)  # the b = a term reads this row
        for s in range(max_size - a + 1):
            row.append(sum(coefficients[b] * powers[b * (s - b)] * x[b][s - b]
                           for b in range(min(a, s) + 1)))
    return {(a + s, a): Fraction(v, m[a] * p ** ((s * (s + 1) + a * (a + 1)) // 2))
            for a, row in enumerate(x) for s, v in enumerate(row) if v}


def normalization_check(p: int, max_size: int, table_size: int | None = None):
    """(total, agree): odd-constant * (summed layers) + [0, size tail] must
    contain 1.  ``total`` equals tabulate(p, max_size).normalization_enclosure(),
    without building the table; the layers are read off the table of
    ``table_size`` >= max_size, as in Family.layer_sum."""
    family = Family("cl", p)
    total = (family.constant().enclosure * family.layer_sum(max_size, table_size)
             + BoundedReal.from_endpoints(0, family.tail(max_size)))
    return total, total.contains(1)


def deformed_series_check(p: int, u, max_size: int):
    """Truncated generating-sum check for the u-deformation:

        sum_lam u^|lam| / (p^(n+|lam|) d_lam)  ==  1 / deformed-constant.

    Returns (partial_lhs, rhs_enclosure, tail_bound, agree) where the partial
    sum runs over |lam| <= max_size and agree asserts containment within
    rhs radius plus the geometric tail bound.
    """
    family = Family("deformed", p, u=u)
    partial = family.layer_sum(max_size)
    rhs = family.constant().enclosure.reciprocal()
    tail = family.tail(max_size)
    agree = abs(partial - rhs.mid) <= rhs.rad + tail
    return partial, rhs, tail, agree


def truncated_series_check(p: int, r: int, max_size: int):
    """Truncated generating-sum check for the at-most-r-parts family:

        sum_{l(lam) <= r} [body(lam) * trailing(lam)]  ==  (1+1/p)...(1+1/p^r).

    Returns (partial_lhs, rhs_exact, tail_bound, agree); the identity has an
    exact rational right side, so agree asserts
    partial <= rhs <= partial + tail_bound.
    """
    family = Family("truncated", p, r=r)
    # (1+1/p)...(1+1/p^r); trailing(lam) = rhs * _truncated_factor(p, r, l(lam))
    rhs = Fraction(upper_numerators(p, r)[r], p ** (r * (r + 1) // 2))
    partial = rhs * family.layer_sum(max_size)
    tail = family.tail(max_size)
    agree = partial <= rhs <= partial + tail
    return partial, rhs, tail, agree
