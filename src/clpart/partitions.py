"""Integer partitions and the combinatorial statistics the measure formulas use.

A partition is a weakly decreasing tuple of positive integers.  Everything
downstream (measures, sampler, sandpile experiments) works with these values,
so they are immutable and hashable.
"""

from __future__ import annotations

from operator import index

# Exact-arithmetic desk scale; enumeration requests above this are refused
# rather than silently truncated.
ENUMERATION_CAP = 60


class Partition:
    """Weakly decreasing positive integer parts; ``Partition()`` is empty.

    Parts are taken through ``operator.index``, so a float or Fraction part
    raises TypeError instead of being truncated.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(map(index, parts))
        for i, x in enumerate(parts):
            if x <= 0:
                raise ValueError(f"parts must be positive integers, got {x}")
            if i > 0 and parts[i - 1] < x:
                raise ValueError(f"parts must be weakly decreasing: {list(parts)}")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

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
        return "[" + ",".join(str(x) for x in self.parts) + "]"

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

        The library reads d_lambda off runs of the parts (d_lambda_pair); this
        map is the independent oracle for it in
        test_weights_match_their_formulas_on_random_partitions.
        """
        out: dict[int, int] = {}
        for x in self.parts:
            out[x] = out.get(x, 0) + 1
        return out

    def sort_key(self):
        """Canonical global order: by size, then reverse lexicographic on parts."""
        return (self.size, tuple(-x for x in self.parts))

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


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n, in reverse lexicographic order ([n] first, [1,...,1] last).

    The order is fixed so distribution tables are byte-stable across runs.
    n is capped at ENUMERATION_CAP to keep exact arithmetic desk-scale.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > ENUMERATION_CAP:
        raise ValueError(f"n={n} exceeds the enumeration cap {ENUMERATION_CAP}")
    return [Partition(parts) for parts in _descending(n, n)]


def _descending(n, max_part):
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _descending(n - first, first):
            yield (first,) + rest
