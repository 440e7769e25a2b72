"""Random-graph sandpile experiments: the empirical side of the measure.

Pipeline per trial: draw an Erdos-Renyi graph, skip it if disconnected
(recorded, not resampled), present the sandpile group by the reduced
Laplacian, and read off the p-Sylow partition from the Smith normal form.
A graph is its per-vertex neighbour bitmasks: ``erdos_renyi`` writes the
edge draws' flags straight into them, and connectivity is a graph search
over them.
At p = 2 the plocal route never builds the Laplacian: ``two_sylow_partition``
runs one Gauss-Jordan pass mod 2 over the same masks, which ends the trial
when the spanning-tree count (the group's order) is odd, and otherwise
lifts the k x k 2-adic Schur complement of the unit block (k the corank mod
2) and eliminates only that.

Two Smith-form routes are provided.  ``smith_normal_form`` is the reference:
classical elimination over the integers with minimal-absolute-value pivoting,
arbitrary precision throughout.  ``sylow_valuations_mod_prime_power`` is the
fast path used by experiments: elimination modulo p^cap with minimal
p-valuation pivoting, which determines every valuation below the cap exactly
(pivot valuations are the elementary-divisor valuations truncated at cap).
Each of its rows is one packed int, so one big-int op clears a pivot-column
entry, with no per-entry reduction mod p^cap.
"""

from __future__ import annotations

from array import array
from collections import Counter
from fractions import Fraction
from functools import partial

from .measures import PartitionDistribution, frequency_table
from .partitions import Frozen, Partition, Record, require_int
from .qseries import BoundedReal, as_fraction, echo, fraction_str, require_prime
from .rng import draw_threshold, draws_below, require_seed, substream
from .workers import split_counts, worker_count

DEFAULT_VALUATION_CAP = 12  # p^12 exceeds any plausible invariant at desk scale

# Largest vertex count and valuation cap a trial accepts.  The Laplacian is
# n x n and the elimination grows like n^3 times its lane width, which grows
# with cap, so huge values would run for hours.  The vertex cap was sized at
# q = 1/2: one such trial at n = 500 and cap 64 took 1.9 s at p = 3 and 18 s
# at p = 101 (Python 3.11.7, 2 vCPUs).  At p = 2 (``two_sylow_partition``) it
# took 0.30 s at caps 12 and 64 on a busier host of the same kind, where
# eliminating the whole Laplacian took 0.66 / 3.1 s.  Dense graphs cost far
# more: a near-complete one (q = 1 - 10^-6, corank 498), whose Schur
# complement is nearly the whole matrix, took 27 / 87 s there at caps 12 /
# 64 (whole Laplacian 30 / 73 s).  The benchmark asks for 40.
MAX_VERTICES = 500
MAX_CAP = 64

# Largest matrix (rows) and vertex count the Smith normal form route accepts:
# its integer elimination's entries grow with n.  On one q = 1/2 graph (seed
# 1, trial 0, p = 2, cap 12) it took 0.05 / 0.72 / 1.8 / 5.9 / 38 s at n = 50 /
# 80 / 100 / 120 / 150 and did not finish in 300 s at n = 200 (Python
# 3.11.7, 2 vCPUs).
MAX_SNF_VERTICES = 100

# Fewest vertex pairs (edge draws; binom(n, 2) per trial) ``run_experiment``
# gives one worker process.  A p = 2 trial at n = 40 (780 pairs) took ~0.45 ms
# and forking a worker and merging its counts ~3 ms (Python 3.11.7, 2 vCPUs).
MIN_WORKER_PAIRS = 10**4


# Bytes 0 and 1 as the ASCII digits '0' and '1', and back to 0 and -1.
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_NEGATED = bytes.maketrans(b"01", b"\x00\xff")


class Graph(Frozen):
    """Simple undirected graph on vertices 0..n-1, held as neighbour masks.

    Bit v of ``masks[u]`` is set iff {u, v} is an edge.  ``edges``, the
    frozenset of pairs u < v, is derived from the masks on first access.
    Graphs are equal, and hash alike, when they have the same n and edges
    (so the same masks); they pickle and copy through ``Graph(n, edges)``.
    """

    __slots__ = ("n", "masks", "_edges")
    _fields = ("n", "masks")

    def __init__(self, n: int, edges):
        require_int(n, "vertex count", 1)
        masks = [0] * n
        for e in edges:
            u, v = e
            require_int(u, "vertex label")
            require_int(v, "vertex label")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {e} outside vertex range")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._init(n, tuple(masks))

    def _init(self, n: int, masks: tuple) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "_edges", None)

    @classmethod
    def _from_flags(cls, n: int, flags) -> "Graph":
        """The graph on n >= 2 vertices with edge {u, v} iff the flag of the
        pair u < v, in lexicographic pair order, is 1 (flags are 0 or 1, as
        bytes or bools): not checked again.

        Row u's flags go into row u of an n x n adjacency bytearray and, with
        step n, into its column u; one ``translate`` makes the bytes ASCII
        digits, and the text reversed once reads, n digits at a time, as the
        masks from u = n - 1 down, most significant bit first.
        """
        adj = bytearray(n * n)
        start = 0
        for u in range(n - 1):
            row = flags[start:start + n - 1 - u]
            adj[u * n + u + 1:u * n + n] = row
            adj[(u + 1) * n + u::n] = row
            start += n - 1 - u
        text = adj.translate(_DIGITS)[::-1]
        g = object.__new__(cls)
        g._init(n, tuple(int(text[i:i + n], 2) for i in range(n * n - n, -1, -n)))
        return g

    @property
    def edges(self) -> frozenset:
        if self._edges is None:
            object.__setattr__(self, "_edges", frozenset(
                (u, v) for u, m in enumerate(self.masks) for v in range(u + 1, self.n) if m >> v & 1))
        return self._edges

    def __repr__(self):
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"

    def __reduce__(self):
        return Graph, (self.n, self.edges)

    def is_connected(self) -> bool:
        """Search from vertex 0, taking the lowest unvisited frontier vertex's mask per step."""
        masks = self.masks
        seen = frontier = 1
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = masks[low.bit_length() - 1] & ~seen
            seen |= new
            frontier |= new
        return seen == (1 << self.n) - 1


def erdos_renyi(n: int, q, stream) -> Graph:
    """G(n, q): each of the binom(n,2) edges included independently.

    Inclusion compares a 64-bit draw k (as k/2^64) against the exact rational
    q, in the fixed lexicographic edge order, so graphs are a pure function
    of the stream state.  The draws are taken together by ``draws_below``,
    and their flags become the neighbour masks with no per-edge step.
    """
    require_int(n, "n", 2, MAX_VERTICES, "vertex")
    q = as_fraction(q)
    if not (0 < q < 1):
        raise ValueError(f"edge probability must lie strictly in (0,1), got {echo(q)}")
    return Graph._from_flags(n, draws_below(stream, draw_threshold(q), n * (n - 1) // 2))


def reduced_laplacian(g: Graph, root: int | None = None) -> list[list[int]]:
    """Graph Laplacian with the root's row and column deleted.

    Root defaults to the highest-labeled vertex; the Sylow partition does not
    depend on the choice.  The masks' binary digits, joined and reversed
    once, translate to the 0 / -1 adjacency entries of all rows together;
    each row then takes its degree on the diagonal.
    """
    if root is None:
        root = g.n - 1
    require_int(root, "root")
    if not (0 <= root < g.n):
        raise ValueError(f"root {root} outside vertex range")
    n, masks = g.n, g.masks
    digits = f"0{n}b"
    flat = array("b", "".join([format(m, digits) for m in reversed(masks)])[::-1]
                 .encode().translate(_NEGATED)).tolist()
    m = [flat[i:i + n] for i in range(0, n * n, n)]
    for u, row in enumerate(m):
        row[u] = masks[u].bit_count()
        del row[root]
    del m[root]
    return m


def smith_normal_form(matrix) -> list[int]:
    """Diagonal of the Smith normal form of a square integer matrix.

    Classical elimination with pivoting on the entry of minimal absolute
    value; returns nonnegative d_1 | d_2 | ... | d_k (zeros, if any, at the
    end).  Arbitrary-precision integers throughout.
    """
    m = [[int(x) for x in row] for row in matrix]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")

    for t in range(n):
        while True:
            pivot = _min_abs_entry(m, t)
            if pivot is None:
                break  # submatrix all zero; trailing diagonal stays 0
            pi, pj = pivot
            if pi != t:
                m[t], m[pi] = m[pi], m[t]
            if pj != t:
                for row in m:
                    row[t], row[pj] = row[pj], row[t]
            clean = True
            d = m[t][t]
            for i in range(t + 1, n):
                if m[i][t]:
                    qt = m[i][t] // d
                    if qt:
                        mi, mt = m[i], m[t]
                        for j in range(t, n):
                            mi[j] -= qt * mt[j]
                    if m[i][t]:
                        clean = False
            for j in range(t + 1, n):
                if m[t][j]:
                    qt = m[t][j] // d
                    if qt:
                        for row in m:
                            row[j] -= qt * row[t]
                    if m[t][j]:
                        clean = False
            if not clean:
                continue  # remainders became smaller pivot candidates
            offender = _non_divisible_entry(m, t, d)
            if offender is None:
                break
            # pull the non-divisible entry into row t; next sweep shrinks the pivot
            oi = offender
            mt, mo = m[t], m[oi]
            for j in range(t, n):
                mt[j] += mo[j]
    diag = [abs(m[i][i]) for i in range(n)]
    for i in range(len(diag) - 1):  # cheap structural sanity: divisibility chain
        if diag[i] == 0:
            if diag[i + 1] != 0:
                raise ArithmeticError("zero before nonzero in Smith diagonal")
        elif diag[i + 1] % diag[i]:
            raise ArithmeticError(f"divisibility broken in Smith diagonal {diag}")
    return diag


def _min_abs_entry(m, t):
    best = None
    best_abs = None
    for i in range(t, len(m)):
        row = m[i]
        for j in range(t, len(m)):
            x = row[j]
            if x:
                a = -x if x < 0 else x
                if best_abs is None or a < best_abs:
                    best, best_abs = (i, j), a
                    if a == 1:
                        return best
    return best


def _non_divisible_entry(m, t, d):
    for i in range(t + 1, len(m)):
        row = m[i]
        for j in range(t + 1, len(m)):
            if row[j] % d:
                return i
    return None


def p_sylow_partition(matrix, p: int, cap: int = DEFAULT_VALUATION_CAP):
    """Partition of p-adic valuations of the Smith diagonal (reference route).

    Returns (partition, capped).  Valuations are computed exactly up to
    ``cap``; anything >= cap is recorded as cap with capped=True.  A singular
    matrix raises: it means a disconnected graph slipped through upstream.
    """
    require_prime(p)
    require_int(cap, "cap", 1, MAX_CAP, "valuation")
    require_int(len(matrix), "row count", cap=MAX_SNF_VERTICES, kind="SNF")
    diag = smith_normal_form(matrix)
    if any(d == 0 for d in diag):
        raise ValueError("singular matrix: sandpile group undefined (disconnected graph?)")
    parts = []
    capped = False
    for d in diag:
        v = 0
        while v < cap and d % p == 0:
            d //= p
            v += 1
        if v == cap:
            capped = True
        if v:
            parts.append(v)
    parts.sort(reverse=True)
    return Partition(parts), capped


def sylow_valuations_mod_prime_power(matrix, p: int, cap: int = DEFAULT_VALUATION_CAP):
    """Fast path: same partition as p_sylow_partition, via elimination mod p^cap.

    Row i is one int whose lane j, W = 2*bitlen(p^cap) + bitlen(n) + 1 bits
    wide, holds entry j as a nonnegative residue.  Each step pivots on an
    entry p^v*u of minimal valuation v, scales the pivot row by u^-1 and
    reduces it mod p^cap lane by lane, and clears the pivot column of every
    other active row with one op, row += (p^cap - c/p^v)*pivot_row.  A lane grows
    by less than p^(2cap) per op, in at most n - 1 ops, so it stays below
    2^(W-1) and never carries into the next lane; lanes are read mod p^cap.
    Valuation >= cap reports cap with capped=True, and so does each zero
    divisor of a singular matrix.
    """
    require_prime(p)
    require_int(cap, "cap", 1, MAX_CAP, "valuation")
    require_int(len(matrix), "row count", cap=MAX_VERTICES, kind="vertex")
    if any(len(row) != len(matrix) for row in matrix):
        raise ValueError("matrix must be square")
    vals = _pivot_valuations(matrix, p, cap)
    return Partition(sorted((v for v in vals if v), reverse=True)), cap in vals


def _pivot_valuations(matrix, p: int, cap: int) -> list[int]:
    """The pivot valuations of ``sylow_valuations_mod_prime_power``, one per
    row, each truncated at cap; the arguments are not checked."""
    mod = p**cap
    n = len(matrix)
    width = 2 * mod.bit_length() + n.bit_length() + 1
    lane = (1 << width) - 1
    cols = [width * j for j in range(n)]  # bit offsets of the active columns
    rows = [sum(x % mod << s for s, x in zip(cols, row) if x) for row in matrix]

    vals = []
    while rows:
        best = None  # (valuation, row index, column offset)
        for i, row in enumerate(rows):
            for s in cols:
                x = (row >> s & lane) % mod
                if x:
                    v = 0
                    while x % p == 0:
                        x //= p
                        v += 1
                    if best is None or v < best[0]:
                        best = (v, i, s)
                        if v == 0:
                            break
            if best is not None and best[0] == 0:
                break
        if best is None:
            vals.extend([cap] * len(rows))
            break
        v, pi, ps = best
        pivot = rows.pop(pi)
        cols.remove(ps)
        pv = p**v
        inv = pow((pivot >> ps & lane) % mod // pv, -1, mod)
        # scale to the unit pivot p^v: lanes < p^cap, the pivot's own dropped
        pivot = sum((pivot >> s & lane) * inv % mod << s for s in cols)
        for i, row in enumerate(rows):
            c = (row >> ps & lane) % mod
            if c:
                rows[i] = row + (mod - c // pv) * pivot
        vals.append(v)
    return vals


def _pivots_mod_2(g: Graph) -> tuple[list, list, list]:
    """Gauss-Jordan elimination of the reduced Laplacian L (root n - 1) mod 2.

    Row u is mask u with bit u set to the degree parity and the root's bit
    dropped, followed by bit r + u (an identity augment, r = n - 1); the rows
    sit in byte-aligned lanes of one int.  Each column c takes ``col``, bit 0
    of every lane whose row has bit c, pivots on the lowest such lane that is
    not a pivot row yet, and XORs that row into every other lane of ``col``
    (earlier pivot rows included) with one multiply.  A column with no such
    lane is free.  Returns (pivots, free, spare): a pair (c, a) per pivot
    column c, where ``a``, the augment of its pivot row, is row c of A^-1 mod
    2 for A = L[D, P] (pivot rows by pivot columns) as a mask over the rows
    D; the free columns; and the rows that never pivoted.  There are as many
    free columns as spare rows: the corank of L mod 2.
    """
    r = g.n - 1
    if r == 0:
        return [], [], []  # one vertex: L is 0 x 0
    nbytes = (2 * r + 7) // 8
    width = 8 * nbytes
    rowmask = (1 << width) - 1
    low = (1 << r) - 1
    grid = int.from_bytes(b"".join(
        ((m | (m.bit_count() & 1) << u) & low | 1 << r + u).to_bytes(nbytes, "little")
        for u, m in enumerate(g.masks[:r])), "little")
    ones = int.from_bytes((b"\x01" + bytes(nbytes - 1)) * r, "little")
    unused = ones  # bit 0 of every lane that is not a pivot row yet
    pivots, free = [], []
    for c in range(r):
        col = grid >> c & ones
        lane = col & unused
        if not lane:
            free.append(c)
            continue
        lane &= -lane
        unused ^= lane
        shift = lane.bit_length() - 1
        grid ^= (col ^ lane) * (grid >> shift & rowmask)
        pivots.append((c, shift))
    return ([(c, grid >> shift + r & low) for c, shift in pivots], free,
            [u for u in range(r) if unused >> u * width & 1])


def two_sylow_partition(g: Graph, cap: int = DEFAULT_VALUATION_CAP) -> tuple[Partition, bool]:
    """Same pair as ``sylow_valuations_mod_prime_power(reduced_laplacian(g), 2, cap)``.

    ``_pivots_mod_2`` splits the reduced Laplacian L into k spare rows and k
    free columns and a block A = L[D, P] that is invertible mod 2, where k is
    the corank of L mod 2, the number of parts; k = 0 is an odd
    spanning-tree count and the empty partition.  A is then a unit over the
    2-adic integers, so the 2-part of coker L is that of the k x k Schur
    complement.  L is symmetric, so this route takes it as S = L[F, R] -
    L[F, D] B^-1 L[P, R] with B = L[P, D] = A^T (F the free columns, R the
    spare rows), and B^-1 x is the XOR of the rows c of A^-1 over the odd
    x_c.  Dixon lifting: Z starts as L[:, R]; lift t = 0, 1, ... sets
    y = B^-1 (Z[P] / 2^t mod 2) per column and Z -= 2^t L y, where (L y)_i
    is degree_i y_i - popcount(mask_i & y).  After lift t, Z[P] = 0 and
    Z[F] = S mod 2^(t+1).  For k <= t < cap - 1 the lifting stops once
    ``_pivot_valuations`` finds no valuation t + 1 in Z[F] mod 2^(t+1).  Every
    elementary divisor of S then has valuation <= t, and any M = S mod
    2^(t+1) has the same ones: with S = U D V, U and V unimodular,
    M = U D (I + 2^(t+1) D^-1 E') V, and the middle factor is a 2-adic unit.
    So lifting ends at t = max(k, lam_1), or at cap - 1, and Z[F] goes to one
    ``sylow_valuations_mod_prime_power`` call.  Probes start at t = k, since
    each is a k x k elimination: on a dense graph k is near n and lam_1 large.
    """
    require_int(cap, "cap", 1, MAX_CAP, "valuation")
    pivots, free, spare = _pivots_mod_2(g)
    if not free:
        return Partition(), False
    k = len(free)
    masks = g.masks[:g.n - 1]
    degrees = [m.bit_count() for m in masks]
    zs = [[degrees[q] if i == q else -(masks[q] >> i & 1) for i in range(len(masks))]
          for q in spare]
    for t in range(cap):
        for z in zs:
            y = 0
            for c, a in pivots:
                if z[c] >> t & 1:
                    y ^= a
            if y:
                z[:] = [zi - ((d if y >> i & 1 else 0) - (m & y).bit_count() << t)
                        for i, (zi, d, m) in enumerate(zip(z, degrees, masks))]
        if k <= t < cap - 1 and t + 1 not in _pivot_valuations(
                [[z[i] for z in zs] for i in free], 2, t + 1):
            break
    # module global, read per call, so a route wrapped for tracing is the one called
    return sylow_valuations_mod_prime_power([[z[i] for z in zs] for i in free], 2, cap)


def _require_trial_args(n: int, p: int, seed: int, cap: int, method: str) -> None:
    """The domain of a trial, checked whether or not its graph is connected."""
    require_int(n, "n", 2, MAX_VERTICES, "vertex")
    require_prime(p)
    require_seed(seed)
    require_int(cap, "cap", 1, MAX_CAP, "valuation")
    if method not in ("plocal", "snf"):
        raise ValueError(f"unknown method {method!r} (expected plocal or snf)")
    if method == "snf":
        require_int(n, "n", cap=MAX_SNF_VERTICES, kind="SNF vertex")


def sample_graph_record(n: int, q, p: int, seed: int, trial: int, cap: int = DEFAULT_VALUATION_CAP,
                        method: str = "plocal") -> tuple[Partition, bool] | None:
    """One experiment trial, deterministically from (seed, trial): None for a
    disconnected graph, else the (partition, capped) pair of the chosen route.

    At p = 2 the plocal route is ``two_sylow_partition``, which works on the
    graph's neighbour masks and returns the elimination's pair without
    building the Laplacian; an odd spanning-tree count gives (empty
    partition, False) after one pass mod 2.  The SNF route never takes it,
    so it stays an independent reference.
    """
    _require_trial_args(n, p, seed, cap, method)
    g = erdos_renyi(n, q, substream(seed, trial))
    if not g.is_connected():
        return None
    if method == "plocal" and p == 2:
        return two_sylow_partition(g, cap)
    # module globals, read per call, so a route wrapped for tracing is the one called
    route = p_sylow_partition if method == "snf" else sylow_valuations_mod_prime_power
    return route(reduced_laplacian(g), p, cap)


class ExperimentResult(Record):
    """A graph experiment's table and its tallies of disconnected graphs
    discarded and of capped valuations.  Results are equal when all three
    are, and are not hashable."""

    __slots__ = _fields = ("distribution", "discarded_disconnected", "capped_count")

    def __init__(self, distribution: PartitionDistribution, discarded_disconnected: int,
                 capped_count: int):
        self.distribution = distribution
        self.discarded_disconnected = discarded_disconnected
        self.capped_count = capped_count

    def _tallies(self) -> dict:
        return {"discarded_disconnected": self.discarded_disconnected,
                "capped": self.capped_count}

    def to_json_dict(self) -> dict:
        return {**self.distribution.to_json_dict(), **self._tallies()}

    def json_parts(self, fields=None):
        """The table's ``json_parts`` with the tallies added to the head."""
        head, entries = self.distribution.json_parts(fields)
        return {**head, **self._tallies()}, entries


def _outcome_counts(n: int, q: Fraction, p: int, seed: int, cap: int, method: str,
                    start: int, stop: int) -> Counter:
    """Counts of the outcomes of trials start..stop-1: None for a disconnected
    graph, else the trial's (partition parts, capped) pair."""
    records = (sample_graph_record(n, q, p, seed, t, cap=cap, method=method)
               for t in range(start, stop))
    return Counter(None if r is None else (r[0].parts, r[1]) for r in records)


def _split_route() -> bool:
    """Whether ``run_experiment`` may split its trials across worker processes.

    It may only while every name of this module, and every attribute of
    ``Graph``, is bound as it was at import: a caller that replaced a function
    a trial reaches (the benchmark's tracer, a test counting calls) is owed
    every call in its own process.  ``sampler._block_route`` is the
    sampler's rule.
    """
    return (all(globals().get(k) is v for k, v in _OWN_GLOBALS.items())
            and all(vars(Graph).get(k) is v for k, v in _OWN_GRAPH.items()))


def run_experiment(n: int, q, p: int, trials: int, seed: int,
                   cap: int = DEFAULT_VALUATION_CAP, method: str = "plocal") -> ExperimentResult:
    """Sample graphs and tabulate p-Sylow partitions among connected ones.

    Deterministic given (seed, trial index); disconnected graphs are counted
    and skipped, so frequencies condition on connectivity.  The arguments are
    checked before the first trial, so a bad n, seed, cap or method is
    refused even when every graph would be disconnected.  The trials are
    split across ``workers.split_counts``; the table is built from the summed
    counts in canonical order, so it is the same for any worker count.
    """
    _require_trial_args(n, p, seed, cap, method)
    require_int(trials, "trials", 1)
    q = as_fraction(q)
    min_trials = -(-MIN_WORKER_PAIRS // (n * (n - 1) // 2))
    workers = worker_count(trials, min_trials) if _split_route() else 1
    outcomes = split_counts(partial(_outcome_counts, n, q, p, seed, cap, method), trials, workers)
    discarded = outcomes.pop(None, 0)
    counts = Counter()
    capped_count = 0
    for (parts, capped), k in outcomes.items():
        counts[Partition(parts)] += k
        capped_count += capped * k

    params = {"n": n, "q": fraction_str(q), "trials": trials, "seed": seed,
              "cap": cap, "method": method}
    dist = frequency_table(p, "graph-empirical", params, counts, trials - discarded)
    return ExperimentResult(dist, discarded, capped_count)


def tv_distance(d1: PartitionDistribution, d2: PartitionDistribution) -> BoundedReal:
    """Total variation distance between two partition tables, as an enclosure.

    Half the L1 distance over the union of supports; the unresolvable tail
    contribution is bounded by (tail1 + tail2)/2 and folded into the radius.
    """
    support = set(d1.entries) | set(d2.entries)
    c1, c2 = d1.constant.enclosure, d2.constant.enclosure
    acc = BoundedReal.exact(0)
    for lam in support:
        e1 = c1 * d1.entries.get(lam, 0)
        e2 = c2 * d2.entries.get(lam, 0)
        acc = acc + (e1 - e2).abs_enclosure()
    half = acc * Fraction(1, 2)
    tail_bound = (d1.tail_mass.upper + d2.tail_mass.upper) / 2
    return BoundedReal(half.mid, half.rad + tail_bound)


# Every name of the module and of ``Graph`` as bound at import; see _split_route.
_OWN_GLOBALS, _OWN_GRAPH = dict(globals()), dict(vars(Graph))
