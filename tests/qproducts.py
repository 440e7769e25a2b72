"""The generic q-Pochhammer product and q-binomial in Fractions, the tests' oracle.

``clpart.qseries`` builds every finite product at q = 1/p as integer
numerators over a known power of p.  The tests check those, and what is built
from them, against these products of ``Fraction`` factors, which share no code
with them.  Lengths are checked as ints, so an oracle never runs on a float.
"""

from fractions import Fraction

from clpart.partitions import require_int


def finite_qpoch(x, q, j: int) -> Fraction:
    """The finite q-Pochhammer product prod_{k=1}^{j} (1 - x q^(k-1)); j=0 gives 1."""
    require_int(j, "j", 0)
    x, q = Fraction(x), Fraction(q)
    out = Fraction(1)
    power = Fraction(1)
    for _ in range(j):
        out *= 1 - x * power
        power *= q
    return out


def gaussian_binomial(r: int, s: int, q) -> Fraction:
    """The q-binomial coefficient [r choose s]_q = (q^(r-s+1); q)_s / (q; q)_s."""
    require_int(r, "r", 0)
    require_int(s, "s", 0)
    if s > r:
        raise ValueError("need 0 <= s <= r")
    q = Fraction(q)
    return finite_qpoch(q ** (r - s + 1), q, s) / finite_qpoch(q, q, s)
