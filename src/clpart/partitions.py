"""Integer partitions and the combinatorial statistics the measure formulas use.

A partition is a weakly decreasing tuple of positive integers.  Everything
downstream (measures, sampler, sandpile experiments) works with these values,
so they are immutable and hashable.  The module also holds the library's
shared rules: ``Record`` and ``Frozen``, the one record protocol of its value
classes, and ``require_int``, its one bounded-int check.
"""

from __future__ import annotations

from operator import index, neg

# Exact-arithmetic desk scale; enumeration requests above this are refused
# rather than silently truncated.
ENUMERATION_CAP = 60


class Record:
    """A value named by its fields: ``_fields`` lists the constructor's
    parameters in order.  Records of one type are equal when their fields
    are, print like a dataclass, pickle and copy through the constructor
    (so its checks run again), and are not hashable.

    This is the library's one record protocol; every value class derives
    from Record or Frozen.
    """

    __slots__ = ()
    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self):
        fields = zip(self._fields, self._values())
        return f"{type(self).__name__}({', '.join([f'{name}={value!r}' for name, value in fields])})"

    def __reduce__(self):
        return type(self), self._values()


class Frozen(Record):
    """An immutable Record, hashed by its fields; its constructor sets them
    through ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a {type(self).__name__} is immutable")


class Partition(Frozen):
    """Weakly decreasing positive integer parts; ``Partition()`` is empty.

    Parts are taken through ``operator.index``, so a float or Fraction part
    raises TypeError instead of being truncated.  Its own ``==``, hash and
    ``repr`` skip the Record protocol's field walk, since every table and
    Counter keys on partitions.
    """

    __slots__ = _fields = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(map(index, parts))
        for i, x in enumerate(parts):
            if x <= 0:
                raise ValueError(f"parts must be positive integers, got {x}")
            if i > 0 and parts[i - 1] < x:
                raise ValueError(f"parts must be weakly decreasing: {list(parts)}")
        object.__setattr__(self, "parts", parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        """Number of parts, often written l(lambda)."""
        return len(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    def __str__(self):
        # the list's repr without its spaces: the same text as joining the
        # parts with commas, ~25 % faster per entry of a table
        return str(list(self.parts)).replace(" ", "")

    def conjugate(self) -> "Partition":
        """Transpose of the diagram: part j of the conjugate is #{i : lambda_i >= j}."""
        if not self.parts:
            return Partition()
        cols = [0] * self.parts[0]
        for x in self.parts:
            for j in range(x):
                cols[j] += 1
        return Partition(cols)

    def n_stat(self) -> int:
        """The statistic n(lambda) = sum_i (i-1) * lambda_i."""
        return sum(i * x for i, x in enumerate(self.parts))

    def multiplicities(self) -> dict[int, int]:
        """Map part size -> multiplicity, for the sizes that occur.

        The library reads d_lambda off runs of the parts (weight_key); this
        map is the independent oracle for it in
        test_weights_match_their_formulas_on_random_partitions.
        """
        out: dict[int, int] = {}
        for x in self.parts:
            out[x] = out.get(x, 0) + 1
        return out

    def sort_key(self):
        """Canonical global order: by size, then reverse lexicographic on parts."""
        return (sum(self.parts), tuple(map(neg, self.parts)))

    @classmethod
    def from_string(cls, text: str) -> "Partition":
        """Parse the bracket form used everywhere in CLI/JSON output, e.g. "[3,1,1]"."""
        s = text.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise ValueError(f"partition must look like [3,1,1], got {text!r}")
        body = s[1:-1].strip()
        if not body:
            return cls()
        try:
            parts = [int(tok) for tok in body.split(",")]
        except ValueError:
            raise ValueError(f"partition parts must be integers: {text!r}") from None
        return cls(parts)


# Sets a Partition's parts without Partition.__init__'s checks, for callers
# whose parts are positive and weakly decreasing by construction.
_set_parts = Partition.parts.__set__


def require_int(x, what: str, least: int | None = None, cap: int | None = None,
                kind: str = "") -> None:
    """Raise ValueError unless x is an int in [least, cap]; bool, float and
    Fraction are refused, and either bound may be None.  The messages name x
    by ``what``, and a value above the cap names the cap by ``kind``.

    This is the library's one check of a count, size, height or cap.
    """
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} must be an int, got {x!r}")
    if least is not None and x < least:
        raise ValueError(f"{what} must be >= {least}")
    if cap is not None and x > cap:
        raise ValueError(f"{what}={x} exceeds the {kind} cap {cap}")


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n, in reverse lexicographic order ([n] first, [1,...,1] last).

    The order is fixed so distribution tables are byte-stable across runs.
    n must be an int, and is capped at ENUMERATION_CAP to keep exact
    arithmetic desk-scale.
    """
    require_int(n, "n", 0, ENUMERATION_CAP, "enumeration")
    return _walk(n)


def _walk(n: int) -> list[Partition]:
    """The partitions of n >= 0 in reverse lexicographic order, by Zoghbi and
    Stojmenovic's ZS1 ("Fast algorithms for generating integer partitions",
    Int. J. Comput. Math. 70, 1998).

    x[:m] is the current partition and x[:h] its parts above 1; x[h:] holds
    1s.  The next partition lowers the last part above 1 by one and refills
    the rest, the freed units included, with copies of the lowered part and
    a remainder.  Every x[:m] is weakly decreasing and positive, so each
    Partition is built without Partition.__init__'s checks.
    """
    new, set_parts = object.__new__, _set_parts
    lam = new(Partition)
    set_parts(lam, (n,) if n else ())
    out = [lam]
    x = [n] + [1] * (n - 1)
    m = h = 1
    while x[0] > 1:
        if x[h - 1] == 2:
            x[h - 1] = 1
            m += 1
            h -= 1
        else:
            r = x[h - 1] - 1
            t = m - h + 1  # the lowered part's freed unit and the m - h trailing 1s
            x[h - 1] = r
            while t >= r:
                x[h] = r
                h += 1
                t -= r
            if t == 0:
                m = h
            else:
                m = h + 1
                if t > 1:
                    x[h] = t
                    h += 1
        lam = new(Partition)
        set_parts(lam, tuple(x[:m]))
        out.append(lam)
    return out
