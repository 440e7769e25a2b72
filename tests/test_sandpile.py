import itertools
import math
import random
from fractions import Fraction

import pytest

from clpart.measures import PartitionDistribution
from clpart.partitions import Partition
from clpart.qseries import BoundedReal
from clpart import sandpile
from clpart.rng import DRAW_BLOCK, SplitMix64, draw_threshold, substream
from clpart.sandpile import (
    MAX_CAP,
    MAX_SNF_VERTICES,
    MAX_VERTICES,
    Graph,
    erdos_renyi,
    p_sylow_partition,
    reduced_laplacian,
    run_experiment,
    sample_graph_record,
    smith_normal_form,
    sylow_valuations_mod_prime_power,
    tv_distance,
    two_sylow_partition,
)


def det_bareiss(matrix):
    """Fraction-free integer determinant (independent of the Smith form code)."""
    m = [row[:] for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def spanning_tree_count_bruteforce(g: Graph) -> int:
    """Oracle: enumerate (n-1)-edge subsets and count the spanning trees."""
    edges = sorted(g.edges)
    if g.n == 1:
        return 1
    count = 0
    for combo in itertools.combinations(edges, g.n - 1):
        parent = list(range(g.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for u, v in combo:
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False  # cycle
                break
            parent[ru] = rv
        if ok:
            count += 1
    return count


def complete_graph(n):
    return Graph(n=n, edges=frozenset((u, v) for u in range(n) for v in range(u + 1, n)))


K3 = complete_graph(3)
K4 = complete_graph(4)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(n=2, edges=frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        Graph(n=2, edges=frozenset({(0, 5)}))
    g = Graph(n=3, edges=frozenset({(2, 0)}))
    assert (0, 2) in g.edges  # canonical orientation
    g = Graph(n=3, edges={(0, 1), (1, 2)})  # canonical pairs in a plain set
    assert isinstance(g.edges, frozenset) and g.edges == {(0, 1), (1, 2)}


def test_connectivity():
    assert K3.is_connected()
    assert not Graph(n=3, edges=frozenset({(0, 1)})).is_connected()
    assert Graph(n=1, edges=frozenset()).is_connected()


def _graph(n, pairs):
    return Graph(n=n, edges=frozenset(pairs))


def _tree_count_families():
    """(graph, spanning-tree count) for families whose counts have closed forms."""
    for n in range(1, 10):
        yield complete_graph(n), n ** (n - 2) if n > 1 else 1  # Cayley
    for n in range(3, 11):
        yield _graph(n, ((v, (v + 1) % n) for v in range(n))), n  # cycle C_n
    for n in range(1, 10):
        yield _graph(n, ((v, v + 1) for v in range(n - 1))), 1  # path
        yield _graph(n, ((0, v) for v in range(1, n))), 1  # star
    for a, b in itertools.product(range(1, 6), repeat=2):
        pairs = ((u, a + v) for u in range(a) for v in range(b))
        yield _graph(a + b, pairs), a ** (b - 1) * b ** (a - 1)  # K_{a,b}


def _mod_2_corank_checked(g):
    """The pass's free-column count, after checking its pieces against L mod 2."""
    pivots, free, spare = sandpile._pivots_mod_2(g)
    m = reduced_laplacian(g)
    cols = [c for c, _ in pivots]
    assert sorted(cols + free) == list(range(g.n - 1)) and len(free) == len(spare)
    for c, a in pivots:  # a = row c of A^-1 mod 2, a mask over the pivot rows
        assert not any(a >> u & 1 for u in spare)
        product = [sum(m[u][j] for u in range(g.n - 1) if a >> u & 1) % 2 for j in cols]
        assert product == [int(j == c) for j in cols], (g, c)
    return len(free)


def test_odd_spanning_trees_on_known_families():
    # the spanning-tree count is odd iff the pass finds no free column, and
    # the free columns are as many as the even entries of the Smith diagonal
    parities = set()
    for g, trees in _tree_count_families():
        odd = trees % 2 == 1
        diag = smith_normal_form(reduced_laplacian(g))
        k = _mod_2_corank_checked(g)
        assert (k == 0) == odd, (g, trees)
        assert (math.prod(diag) % 2 == 1) == odd, (g, trees)
        assert k == sum(d % 2 == 0 for d in diag), (g, diag)
        parities.add(odd)
    assert parities == {False, True}


def test_odd_spanning_trees_iff_plocal_finds_no_2_part():
    # the pass packs n - 1 rows of 2(n - 1) bits: n = 5 and 9 fill one and
    # two byte lanes exactly, n = 8, 64 and 65 fall short, 10 and 66 spill over
    seen = set()
    for n, q in itertools.product((2, 8, 9, 10, 40, 64, 65, 66, 100), ("1/10", "1/2", "9/10")):
        for trial in range(6):
            g = erdos_renyi(n, Fraction(q), substream(31, trial))
            if not g.is_connected():
                continue
            k = len(sandpile._pivots_mod_2(g)[1])
            got = sylow_valuations_mod_prime_power(reduced_laplacian(g), 2, 12)
            assert (k == 0) == (got[0] == Partition()), (n, q, trial)
            assert k == len(got[0].parts), (n, q, trial)
            seen.add((n, k == 0))
    assert {odd for _, odd in seen} == {False, True}
    assert {(40, False), (40, True), (100, False), (100, True)} <= seen


CAPS = (1, 2, 3, 12)


def test_two_sylow_partition_matches_both_routes():
    lengths, capped = set(), 0
    for n, q in itertools.product((2, 8, 9, 10, 40, 64, 65, 66, 100), ("1/10", "1/2", "9/10")):
        for trial in range(4):
            g = erdos_renyi(n, Fraction(q), substream(47, trial))
            m = reduced_laplacian(g)
            for cap in CAPS:
                got = two_sylow_partition(g, cap)
                assert got == sylow_valuations_mod_prime_power(m, 2, cap), (n, q, trial, cap)
                if n <= 40 and g.is_connected():
                    assert got == p_sylow_partition(m, 2, cap), (n, q, trial, cap)
                lengths.add(len(got[0].parts))
                capped += got[1]
    assert max(lengths) >= 2 and 0 in lengths
    assert capped > 0


def test_two_sylow_partition_at_every_cap_where_lam_1_is_below_the_size():
    # the lifting may stop once S mod 2^(t+1) fixes every valuation, at
    # t = max(k, lam_1), which lam_1 < |lam| lets fall below |lam|: each cap
    # up to |lam| + 1
    cases = [complete_graph(n) for n in (4, 6, 8, 10)]  # (Z/n)^(n-2)
    for n, q, trial in itertools.product((8, 12, 16, 20), ("1/2", "3/4"), range(12)):
        g = erdos_renyi(n, Fraction(q), substream(61, trial))
        if g.is_connected():
            cases.append(g)
    checked = set()
    for g in cases:
        m = reduced_laplacian(g)
        lam, capped = p_sylow_partition(m, 2, MAX_CAP)
        assert not capped
        if not lam.parts or lam.parts[0] == lam.size:
            continue
        for cap in range(1, lam.size + 2):
            got = two_sylow_partition(g, cap)
            assert got == sylow_valuations_mod_prime_power(m, 2, cap), (g, cap)
            assert got == p_sylow_partition(m, 2, cap), (g, cap)
        checked.add(lam)
    assert len(checked) >= 8, checked


def test_two_sylow_partition_on_disconnected_graphs():
    # a singular L: each zero divisor is a part equal to the cap, as on the
    # elimination route
    cases = [_graph(2, ()), _graph(3, ()), _graph(5, K4.edges),
             _graph(5, [(1, 2), (2, 3), (3, 4)]), _graph(6, [(0, 1), (2, 3), (4, 5)]),
             _graph(8, complete_graph(4).edges | {(u + 4, v + 4) for u, v in complete_graph(4).edges})]
    for n, trial in itertools.product((6, 12, 40), range(8)):
        g = erdos_renyi(n, Fraction(1, 10), substream(53, trial))
        if not g.is_connected():
            cases.append(g)
    assert len(cases) > 20
    for g in cases:
        m = reduced_laplacian(g)
        for cap in CAPS:
            got = two_sylow_partition(g, cap)
            assert got == sylow_valuations_mod_prime_power(m, 2, cap), (g, cap)
            assert got[1], (g, cap)
    assert two_sylow_partition(_graph(2, ()), 5) == (Partition([5]), True)
    assert two_sylow_partition(_graph(1, ()), 5) == (Partition(), False)  # L is 0 x 0


def _two_part(group, cap):
    """(partition, capped) of the 2-parts of a list of cyclic orders."""
    vals = [min((d & -d).bit_length() - 1, cap) for d in group]
    return Partition(sorted((v for v in vals if v), reverse=True)), cap in vals


def test_two_sylow_partition_on_known_families():
    families = []
    for n in range(2, 19):
        families.append((complete_graph(n), [n] * (n - 2)))  # K_n: (Z/n)^(n-2)
    families.append((complete_graph(34), [34] * 32))
    for n in range(3, 40):
        families.append((_graph(n, ((v, (v + 1) % n) for v in range(n))), [n]))  # C_n: Z/n
    for a, b in itertools.product(range(2, 9), repeat=2):
        # K_{a,b}: (Z/a)^(b-2) + (Z/b)^(a-2) + Z/ab
        pairs = ((u, a + v) for u in range(a) for v in range(b))
        families.append((_graph(a + b, pairs), [a] * (b - 2) + [b] * (a - 2) + [a * b]))
    long_lengths = 0
    for g, group in families:
        for cap in CAPS:
            assert two_sylow_partition(g, cap) == _two_part(group, cap), (g.n, group, cap)
        long_lengths += len(_two_part(group, 12)[0].parts) >= 3
    assert long_lengths > 10
    # K_16: (Z/16)^14, fourteen parts of valuation 4
    assert two_sylow_partition(complete_graph(16), 12) == (Partition([4] * 14), False)
    assert two_sylow_partition(complete_graph(16), 3) == (Partition([3] * 14), True)


def test_is_connected_iff_reduced_laplacian_nonsingular():
    cases = [_graph(1, ()), _graph(2, ()), _graph(2, [(0, 1)]),
             _graph(5, K4.edges),  # last vertex isolated
             _graph(5, [(0, 1), (2, 3), (3, 4)]),
             _graph(4, [(1, 2), (2, 3)])]  # vertex 0 isolated
    for n, q, trial in itertools.product((2, 3, 6, 9, 12), ("1/10", "1/4", "1/2"), range(5)):
        cases.append(erdos_renyi(n, Fraction(q), substream(17, trial)))
    outcomes = set()
    for g in cases:
        nonsingular = all(smith_normal_form(reduced_laplacian(g)))
        assert g.is_connected() == nonsingular, g
        outcomes.add(nonsingular)
    assert outcomes == {False, True}


@pytest.mark.parametrize("p", [2, 3])
def test_plocal_runs_only_where_the_parity_exit_does_not(monkeypatch, p):
    calls = []
    real = sandpile.sylow_valuations_mod_prime_power

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(sandpile, "sylow_valuations_mod_prime_power", counting)
    result = run_experiment(40, Fraction(1, 2), p, 200, seed=8)
    connected = 200 - result.discarded_disconnected
    if p == 3:
        assert len(calls) == connected
        return
    # kappa is even exactly when the 2-part is nontrivial
    assert len(calls) == connected - result.distribution.counts[Partition()]
    assert 0 < len(calls) < connected
    plocal = run_experiment(20, Fraction(1, 2), p, 120, seed=8)
    snf = run_experiment(20, Fraction(1, 2), p, 120, seed=8, method="snf")
    assert plocal.distribution.counts == snf.distribution.counts
    assert plocal.capped_count == snf.capped_count == 0


def test_reduced_laplacian_examples():
    assert reduced_laplacian(K3, root=2) == [[2, -1], [-1, 2]]
    assert det_bareiss(reduced_laplacian(K3, root=2)) == 3
    path = Graph(n=2, edges=frozenset({(0, 1)}))
    assert reduced_laplacian(path, root=1) == [[1]]
    m4 = reduced_laplacian(K4, root=3)
    assert len(m4) == 3 and det_bareiss(m4) == 16  # Cayley: 4^2 spanning trees
    assert reduced_laplacian(K3) == reduced_laplacian(K3, root=2)  # default root
    with pytest.raises(ValueError):
        reduced_laplacian(K3, root=7)


def test_smith_normal_form_examples():
    assert smith_normal_form([[2, -1], [-1, 2]]) == [1, 3]
    assert smith_normal_form(reduced_laplacian(K4)) == [1, 4, 4]
    assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]
    assert smith_normal_form([[6]]) == [6]
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2, 3], [4, 5, 6]])


def test_smith_normal_form_random_matrices():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        diag = smith_normal_form(m)
        # divisibility chain (zeros trail)
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
        # product of invariants equals |det|
        prod = 1
        for d in diag:
            prod *= d
        assert prod == abs(det_bareiss(m))


def test_p_sylow_partition_examples():
    m3 = reduced_laplacian(K3)
    assert p_sylow_partition(m3, 3) == (Partition([1]), False)
    assert p_sylow_partition(m3, 2) == (Partition(), False)
    m4 = reduced_laplacian(K4)
    assert p_sylow_partition(m4, 2) == (Partition([2, 2]), False)
    # cap semantics: valuations >= cap are recorded as cap and flagged
    assert p_sylow_partition(m4, 2, cap=1) == (Partition([1, 1]), True)
    assert p_sylow_partition(m4, 2, cap=2) == (Partition([2, 2]), True)
    with pytest.raises(ValueError):
        p_sylow_partition([[0, 0], [0, 0]], 2)  # singular
    # the integer elimination's entries grow with n, so its size is capped
    size = MAX_SNF_VERTICES + 1
    with pytest.raises(ValueError, match="exceeds the SNF cap"):
        p_sylow_partition([[int(i == j) for j in range(size)] for i in range(size)], 2)
    sandpile._require_trial_args(MAX_SNF_VERTICES, 2, 1, 12, "snf")
    sandpile._require_trial_args(MAX_SNF_VERTICES + 1, 2, 1, 12, "plocal")


def test_plocal_route_matches_reference():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if det_bareiss(m) == 0:
            continue
        for p in (2, 3):
            assert sylow_valuations_mod_prime_power(m, p) == p_sylow_partition(m, p)
    # and on random connected graphs
    for t in range(30):
        g = erdos_renyi(10, Fraction(1, 2), substream(5, t))
        if not g.is_connected():
            continue
        m = reduced_laplacian(g)
        for p in (2, 3, 5):
            assert sylow_valuations_mod_prime_power(m, p) == p_sylow_partition(m, p)


def _capped_valuations(diag, p, cap):
    """(partition, capped) read off a Smith diagonal; a zero counts as cap."""
    vals = []
    for d in diag:
        v = 0
        while v < cap and d % p == 0:
            d //= p
            v += 1
        vals.append(v)
    return Partition(sorted((v for v in vals if v), reverse=True)), cap in vals


def _p_rich_matrix(rng, n, p):
    m = [[rng.choice((-1, 1)) * rng.randint(0, 3) * p ** rng.randint(0, 6) for _ in range(n)]
         for _ in range(n)]
    if n > 1 and rng.random() < 0.25:
        a, b = rng.sample(range(n), 2)
        m[a] = [x * rng.choice((-1, 1)) * p ** rng.randint(0, 2) for x in m[b]]  # singular
    return m


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_plocal_matches_snf_on_p_rich_matrices(p):
    rng = random.Random(1000 + p)
    singular = 0
    # caps 20 and 40 widen the p = 2 lanes
    caps = (1, 3, 12, 20, 40) if p == 2 else (1, 3, 12)
    for _ in range(25):
        m = _p_rich_matrix(rng, rng.randint(1, 12), p)
        diag = smith_normal_form(m)
        singular += 0 in diag
        for cap in caps:
            expected = _capped_valuations(diag, p, cap)
            assert sylow_valuations_mod_prime_power(m, p, cap) == expected
            if 0 not in diag:
                assert p_sylow_partition(m, p, cap) == expected
    assert singular > 0


def test_plocal_matches_snf_on_n40_laplacians():
    checked = 0
    for t in range(12):
        g = erdos_renyi(40, Fraction(1, 2), substream(606, t))
        if not g.is_connected():
            continue
        m = reduced_laplacian(g)
        diag = smith_normal_form(m)
        for p, cap in itertools.product((2, 3, 5, 7), (1, 3, 12)):
            assert sylow_valuations_mod_prime_power(m, p, cap) == _capped_valuations(diag, p, cap)
        checked += 1
    assert checked >= 10


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _random_unimodular(rng, n, bound):
    """L*R with L unit lower and R unit upper triangular, entries below bound."""
    lower = [[rng.randrange(bound) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    upper = [[rng.randrange(bound) if j > i else int(i == j) for j in range(n)] for i in range(n)]
    return _matmul(lower, upper)


@pytest.mark.parametrize("p, unit, valuations, expected", [
    (7, 6, [1, 1, 2, 3, 3, 5, 8, 11, 12, 14], (Partition([12, 12, 11, 8, 5, 3, 3, 2, 1, 1]), True)),
    (7, 6, [1, 2, 2, 4, 6, 9, 11, 11], (Partition([11, 11, 9, 6, 4, 2, 2, 1]), False)),
    (2, 3, [1, 2, 4, 4, 7, 10, 11, 13], (Partition([12, 11, 10, 7, 4, 4, 2, 1]), True)),
], ids=["valuations0-expected0", "valuations1-expected1", "valuations2-expected2"])
def test_plocal_on_known_smith_form_at_widest_lane(p, unit, valuations, expected):
    # M = U*D*V with D a divisibility chain (``unit`` is prime to p): no SNF
    # needed, the answer is D's.  At cap=12 the residues fill [0, p^12), the
    # widest lane growth.
    n, cap = 60, 12
    rng = random.Random(7)
    vals = [0] * (n - len(valuations)) + valuations
    chain = [p**v * unit ** (i // 15) for i, v in enumerate(vals)]
    u, w = _random_unimodular(rng, n, p**cap), _random_unimodular(rng, n, p**cap)
    m = _matmul([[x * d for x, d in zip(row, chain)] for row in u], w)
    assert max(x % p**cap for row in m for x in row) > p**cap * 99 // 100
    assert sylow_valuations_mod_prime_power(m, p, cap) == expected


def test_singular_matrix_contract():
    # plocal reports each zero divisor as a capped part; the reference refuses
    assert sylow_valuations_mod_prime_power([[0, 0], [0, 0]], 2, 3) == (Partition([3, 3]), True)
    assert sylow_valuations_mod_prime_power([[2, 4], [1, 2]], 2, 3) == (Partition([3]), True)
    with pytest.raises(ValueError, match="singular"):
        p_sylow_partition([[0, 0], [0, 0]], 2, 3)
    assert sylow_valuations_mod_prime_power([], 2) == (Partition(), False)


def test_sylow_partition_invariant_under_root_and_relabeling():
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randint(3, 6)
        edges = set()
        for u in range(n - 1):
            edges.add((u, u + 1))  # spanning path keeps it connected
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.5:
                    edges.add((u, v))
        g = Graph(n=n, edges=frozenset(edges))
        reference = p_sylow_partition(reduced_laplacian(g, root=0), 2)
        for root in range(1, n):
            assert p_sylow_partition(reduced_laplacian(g, root=root), 2) == reference
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = Graph(n=n, edges=frozenset((perm[u], perm[v]) for u, v in g.edges))
        assert p_sylow_partition(reduced_laplacian(relabeled), 2) == reference


def test_sylow_product_matches_det_p_part():
    rng = random.Random(31)
    for t in range(25):
        g = erdos_renyi(8, Fraction(1, 2), substream(77, t))
        if not g.is_connected():
            continue
        m = reduced_laplacian(g)
        det = abs(det_bareiss(m))
        for p in (2, 3):
            lam, capped = p_sylow_partition(m, p)
            if capped:
                continue
            p_part = p ** lam.size
            assert det % p_part == 0 and (det // p_part) % p != 0


def test_det_equals_spanning_tree_count_n_up_to_5():
    # exhaustive over all graphs on <= 5 vertices (acceptance covers n=6)
    for n in range(2, 6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            edges = frozenset(e for i, e in enumerate(pairs) if mask >> i & 1)
            g = Graph(n=n, edges=edges)
            det = abs(det_bareiss(reduced_laplacian(g)))
            assert det == spanning_tree_count_bruteforce(g)


def test_erdos_renyi_determinism_and_domain():
    a = erdos_renyi(12, Fraction(1, 3), substream(4, 0))
    b = erdos_renyi(12, Fraction(1, 3), substream(4, 0))
    assert a.edges == b.edges
    with pytest.raises(ValueError):
        erdos_renyi(1, Fraction(1, 2), substream(0, 0))
    with pytest.raises(ValueError):
        erdos_renyi(5, Fraction(1), substream(0, 0))
    with pytest.raises(ValueError):
        erdos_renyi(5, Fraction(0), substream(0, 0))
    with pytest.raises(ValueError, match="exceeds the vertex cap"):
        erdos_renyi(MAX_VERTICES + 1, Fraction(1, 2), substream(0, 0))
    sandpile._require_trial_args(MAX_VERTICES, 2, 2**64 - 1, MAX_CAP, "plocal")  # the caps are in range


def _literal_reduced_laplacian(g, root):
    """Degree minus adjacency, built entry by entry, without the root's row and column."""
    def entry(u, v):
        if u == v:
            return sum(u in e for e in g.edges)
        return -((min(u, v), max(u, v)) in g.edges)

    keep = [v for v in range(g.n) if v != root]
    return [[entry(u, v) for v in keep] for u in keep]


def test_reduced_laplacian_matches_its_definition_at_every_root():
    rng = random.Random(43)
    validated = [Graph(1, ()), Graph(2, {(1, 0)}), complete_graph(5)]
    for n in (3, 6, 11):
        pairs = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        g = Graph(n, [(u, v) if rng.random() < 0.5 else (v, u) for u, v in pairs])
        assert g.edges == set(pairs)  # each pair given in a random orientation
        validated.append(g)
    sampled = [erdos_renyi(3 + 2 * t, Fraction(1 + t % 3, 4), substream(43, t)) for t in range(8)]
    for g in validated + sampled:
        for root in range(g.n):
            assert reduced_laplacian(g, root) == _literal_reduced_laplacian(g, root)
    m = reduced_laplacian(g)
    m[0][0] += 1  # a fresh matrix each call: changing one leaves the next as it was
    assert reduced_laplacian(g) == _literal_reduced_laplacian(g, g.n - 1)


def _rebuilt_one_draw_at_a_time(n, q, seed):
    """G(n, q) from the stream of ``seed`` by the definition alone: one draw per
    pair of ``combinations``, an edge below ``draw_threshold(q)``, and the
    validated constructor."""
    draw, threshold = SplitMix64(seed).next_u64, draw_threshold(q)
    return Graph(n, frozenset(e for e in itertools.combinations(range(n), 2) if draw() < threshold))


@pytest.mark.parametrize("n", [2, 3, 7, 46, 72, 200])
def test_erdos_renyi_matches_an_independent_construction(n):
    assert _graph(4, [(3, 1), (0, 2), (1, 0)]).masks == (0b0110, 0b1001, 0b0001, 0b0010)
    for t, q in enumerate((Fraction(1, 2), Fraction(1, 3), Fraction(7, 10),
                           Fraction(1, 2**64), 1 - Fraction(1, 2**64))):
        seed = 7000 + 10 * n + t
        g, rebuilt = erdos_renyi(n, q, SplitMix64(seed)), _rebuilt_one_draw_at_a_time(n, q, seed)
        # erdos_renyi skips Graph's validation: it must give what the
        # validated constructor gives, from any orientation and container
        for other in (rebuilt, Graph(n, frozenset((v, u) for u, v in g.edges)),
                      Graph(n, set(g.edges))):
            assert g == other and hash(g) == hash(other) and g.masks == other.masks
        assert len(g.masks) == n
        for u, m in enumerate(g.masks):
            assert not m >> u & 1 and 0 <= m < 1 << n
            assert all((g.masks[v] >> u & 1) == (m >> v & 1) for v in range(n))
        assert isinstance(g.edges, frozenset) and g.edges == rebuilt.edges
        assert all(type(u) is int and type(v) is int and 0 <= u < v < n for u, v in g.edges)
        assert sum(m.bit_count() for m in g.masks) == 2 * len(g.edges)
    assert erdos_renyi(n, Fraction(1, 2**64), SplitMix64(1)) == Graph(n, ())
    assert erdos_renyi(n, 1 - Fraction(1, 2**64), SplitMix64(1)) == complete_graph(n)


class CountingDraws:
    """A SplitMix64 behind a plain next_u64 that counts its calls: the per-draw route."""

    def __init__(self, seed):
        self.inner = SplitMix64(seed)
        self.draws = 0

    def next_u64(self):
        self.draws += 1
        return self.inner.next_u64()


def test_erdos_renyi_packed_draws_match_one_draw_at_a_time():
    # n = 46 and 72 need two and three blocks of packed draws
    assert 46 * 45 // 2 > DRAW_BLOCK and 72 * 71 // 2 > 2 * DRAW_BLOCK
    for t, n in enumerate((2, 3, 7, 40, 46, 72)):
        for q in (Fraction(1, 2), Fraction(1, 3), Fraction(7, 10), Fraction(1, 2**64)):
            seed = 1000 + t
            packed, oracle = SplitMix64(seed), CountingDraws(seed)
            assert erdos_renyi(n, q, packed) == erdos_renyi(n, q, oracle)
            assert oracle.draws == n * (n - 1) // 2
            assert packed.state == oracle.inner.state


def test_erdos_renyi_forced_edge():
    class StubStream:
        def next_u64(self):
            return 0  # below every positive threshold

    g = erdos_renyi(2, Fraction(1, 2), StubStream())
    assert g.edges == frozenset({(0, 1)})


def test_erdos_renyi_edge_count_concentration():
    total_edges = 0
    trials = 100
    for t in range(trials):
        g = erdos_renyi(50, Fraction(1, 2), substream(1001, t))
        total_edges += len(g.edges)
    mean = total_edges / trials
    expected = 1225 / 2
    sigma_mean = (1225 * 0.25) ** 0.5 / trials**0.5
    assert abs(mean - expected) <= 4 * sigma_mean


def test_run_experiment_forced_triangle():
    # q = 1 - 2^-64 makes every edge a near-certainty; with one trial the
    # sample is the complete triangle and its 3-Sylow partition is [1]
    q = Fraction(2**64 - 1, 2**64)
    result = run_experiment(3, q, 3, trials=1, seed=0)
    assert result.distribution.counts == {Partition([1]): 1}
    assert result.discarded_disconnected == 0


@pytest.mark.parametrize("bad, message", [
    ({"p": 4}, "prime"),
    ({"trials": 0}, "trials"),
    ({"cap": 0}, "cap"),
    ({"method": "bogus"}, "method"),
    ({"seed": -1}, "seed must lie in"),
    ({"seed": 2**64}, "seed must lie in"),
    ({"n": 1}, "n must be >= 2"),
    ({"n": MAX_VERTICES + 1}, "exceeds the vertex cap"),
    ({"cap": MAX_CAP + 1}, "exceeds the valuation cap"),
    ({"n": MAX_SNF_VERTICES + 1, "method": "snf"}, "exceeds the SNF vertex cap"),
])
def test_run_experiment_checks_arguments_before_first_trial(bad, message, monkeypatch):
    # q = 1/1000 leaves every graph on 6 vertices disconnected, so a check made
    # only on connected graphs would never run.
    args = {"n": 6, "q": "1/1000", "p": 2, "trials": 3, "seed": 1, "cap": 12,
            "method": "plocal", **bad}
    if "trials" not in bad:
        with pytest.raises(ValueError, match=message):
            sample_graph_record(args["n"], args["q"], args["p"], args["seed"], 0,
                                cap=args["cap"], method=args["method"])
    trials = []
    monkeypatch.setattr(sandpile, "sample_graph_record", lambda *a, **k: trials.append(a))
    with pytest.raises(ValueError, match=message):
        run_experiment(**args)
    assert trials == []


def test_run_experiment_deterministic_and_bookkeeping():
    r1 = run_experiment(10, Fraction(1, 4), 2, 80, seed=21)
    r2 = run_experiment(10, Fraction(1, 4), 2, 80, seed=21)
    assert r1.distribution.counts == r2.distribution.counts
    assert r1.discarded_disconnected == r2.discarded_disconnected
    connected = 80 - r1.discarded_disconnected
    assert sum(r1.distribution.counts.values()) == connected
    total = sum(r1.distribution.entries.values())
    assert total == 1
    doc = r1.to_json_dict()
    assert doc["discarded_disconnected"] == r1.discarded_disconnected
    assert "capped" in doc
    assert run_experiment(10, Fraction(1, 4), 2, 80, seed=22).distribution.counts != r1.distribution.counts
    with pytest.raises(ValueError):
        run_experiment(10, Fraction(1, 4), 2, 0, seed=0)
    with pytest.raises(ValueError):
        run_experiment(10, Fraction(1, 4), 2, 5, seed=0, method="bogus")


def test_run_experiment_methods_agree():
    a = run_experiment(9, Fraction(1, 2), 2, 60, seed=13, method="plocal")
    b = run_experiment(9, Fraction(1, 2), 2, 60, seed=13, method="snf")
    assert a.distribution.counts == b.distribution.counts


def test_sample_graph_record_contract():
    assert sample_graph_record(3, Fraction(2**64 - 1, 2**64), 3, seed=0, trial=0) == (Partition([1]), False)
    # a graph that is almost surely disconnected
    assert sample_graph_record(6, Fraction(1, 2**64), 2, seed=0, trial=0) is None
    # seeded trials: None exactly for a disconnected graph, else the pair both
    # Sylow routes give on the reduced Laplacian of the same graph
    outcomes = set()
    for seed, trial in itertools.product((5, 6), range(30)):
        g = erdos_renyi(9, Fraction(1, 4), substream(seed, trial))
        for method in ("plocal", "snf"):
            got = sample_graph_record(9, "1/4", 2, seed, trial, cap=3, method=method)
            if g.is_connected():
                m = reduced_laplacian(g)
                assert got == p_sylow_partition(m, 2, 3) == sylow_valuations_mod_prime_power(m, 2, 3)
            else:
                assert got is None
            outcomes.add(got and got[1])
    assert outcomes == {None, False, True}  # disconnected, uncapped and capped trials


def _dist(masses: dict, tail=BoundedReal.exact(0)):
    return PartitionDistribution(p=2, measure="test", entries=masses, tail_mass=tail)


def test_tv_distance_examples():
    d1 = _dist({Partition(): Fraction(1)})
    assert tv_distance(d1, d1).mid == 0
    d2 = _dist({Partition([1]): Fraction(1)})
    tv = tv_distance(d1, d2)
    assert tv.mid == 1 and tv.rad == 0
    # half mass moved: TV = 1/2
    d3 = _dist({Partition(): Fraction(1, 2), Partition([1]): Fraction(1, 2)})
    assert tv_distance(d1, d3).mid == Fraction(1, 2)
    # tails fold into the radius: mid = (1/2)|1 - 3/4|, rad = (0 + 1/4)/2
    d4 = _dist({Partition(): Fraction(3, 4)}, tail=BoundedReal.from_endpoints(0, Fraction(1, 4)))
    tv = tv_distance(d1, d4)
    assert tv.mid == Fraction(1, 8) and tv.rad == Fraction(1, 8)
