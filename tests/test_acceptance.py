"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Criterion 9 checks an asymptotic prediction at finite n with the
stated soft tolerances; its seeds are fixed, so the outcome is reproducible.
"""

import itertools
import math
from fractions import Fraction

from clpart.measures import (
    PartitionDistribution,
    deformed_series_check,
    pmf,
    pmf_parts,
    pmf_size,
    pmf_via_conjugate,
    solve_parts_recursion,
    tabulate,
    truncated_series_check,
)
from clpart.partitions import Partition, enumerate_partitions
from clpart.qseries import (
    BoundedReal,
    even_qpoch,
    odd_constant,
    verify_euler_identity,
    verify_qbinomial,
)
from clpart.sampler import SamplerConfig, empirical_distribution, kernel, kernel_row
from clpart.sandpile import (
    Graph,
    p_sylow_partition,
    reduced_laplacian,
    run_experiment,
    tv_distance,
)

PRIMES = (2, 3, 5)


def report(number, ok, detail):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_1_form_equivalence():
    cases = 0
    ok = True
    for p in PRIMES:
        for n in range(16):
            for lam in enumerate_partitions(n):
                cases += 1
                if pmf(lam, p).rational != pmf_via_conjugate(lam, p).rational:
                    ok = False
    assert report(1, ok, f"both pmf forms agree exactly on {cases} cases "
                         f"(all |lam| <= 15, p in {PRIMES})")


def test_criterion_2_normalization():
    ok = True
    details = []
    for p in PRIMES:
        dist = tabulate(p, 30)
        total = dist.normalization_enclosure()
        tail_ok = dist.tail_mass.rad < Fraction(1, 10**6)
        ok = ok and total.contains(1) and tail_ok
        details.append(f"p={p}: total+tail={total} tail_rad={float(dist.tail_mass.rad):.2e}")
    assert report(2, ok, "mass tables to size 30 enclose 1; " + "; ".join(details))


def test_criterion_3_size_distribution():
    ok = True
    for p in PRIMES:
        for n in range(16):
            total = sum(pmf(lam, p).rational for lam in enumerate_partitions(n))
            if total != pmf_size(n, p).rational:
                ok = False
    assert report(3, ok, f"size-distribution formula matches exact sums for n <= 15, p in {PRIMES}")


def test_criterion_4_parts_formula_and_recursions():
    ok = True
    for p in PRIMES:
        values = solve_parts_recursion(p, 20)  # raises unless both recursions agree
        for a, mass in enumerate(values):
            if mass.rational != pmf_parts(a, p).rational:
                ok = False
    assert report(4, ok, f"closed form and both recursions agree exactly for a <= 20, p in {PRIMES}")


def test_criterion_5_kernel():
    ok_sums = True
    for p in PRIMES:
        for a in range(51):
            if sum(kernel_row(a, p).masses) != 1:
                ok_sums = False
    ok_ratio = True
    for p in PRIMES:
        parts = [pmf_parts(a, p).rational for a in range(31)]
        for a in range(31):
            for b in range(a + 1):
                lhs = parts[b] / (
                    Fraction(p) ** (a * (a + 1) // 2) * parts[a] * even_qpoch(p, (a - b) // 2)
                )
                if lhs != kernel(a, b, p):
                    ok_ratio = False
    assert report(5, ok_sums and ok_ratio,
                  f"exact row sums (a <= 50) and ratio identity (a <= 30) hold, p in {PRIMES}")


def test_criterion_6_sampler_fidelity():
    trials = 10**6
    config = SamplerConfig(p=2, seed=2024)
    empirical = empirical_distribution(config, trials)
    exact = tabulate(2, 12)

    # the size <= 12 table covers every partition with pmf >= 1e-4: the
    # largest mass at size n is the single-row partition's C_2 * 2^-n,
    # already below 1e-4 at n = 13
    worst_z = 0.0
    checked = 0
    ok_freq = True
    for lam, rational in exact.entries.items():
        prob = float((exact.constant.enclosure * rational).mid)
        if prob < 1e-4:
            continue
        checked += 1
        freq = float(empirical.entries.get(lam, 0))
        sigma = math.sqrt(prob * (1 - prob) / trials)
        z = abs(freq - prob) / sigma
        worst_z = max(worst_z, z)
        if z > 4:
            ok_freq = False

    restricted = PartitionDistribution(
        p=2, measure="empirical-restricted",
        entries={lam: m for lam, m in empirical.entries.items() if lam in exact.entries},
        tail_mass=BoundedReal.exact(0),
    )
    tv = tv_distance(restricted, exact)
    ok_tv = tv.upper < Fraction(1, 200)
    assert report(6, ok_freq and ok_tv,
                  f"10^6 samples (seed 2024): worst |z| = {worst_z:.2f} over {checked} "
                  f"partitions with pmf >= 1e-4; TV to exact table (size <= 12) = "
                  f"{float(tv.mid):.5f} +/- {float(tv.rad):.1e} (< 0.005)")


def test_criterion_7_identity_suite():
    ok = True
    details = []

    for s, q, terms in ((Fraction(1, 8), Fraction(1, 4), 30), (Fraction(1, 2), Fraction(1, 2), 40)):
        check = verify_euler_identity(s, q, terms)
        ok = ok and check.agree
        details.append(f"euler(s={s},q={q})={'ok' if check.agree else 'BAD'}")

    qb_ok = all(
        verify_qbinomial(r, q, x).agree
        for r in range(1, 13)
        for q in (Fraction(1, 2), Fraction(1, 3))
        for x in (1, 2)
    )
    ok = ok and qb_ok
    details.append(f"q-binomial grid={'ok' if qb_ok else 'BAD'}")

    for p, u in ((2, Fraction(1, 2)), (3, Fraction(2))):
        partial, rhs, tail, agree = deformed_series_check(p, u, 40)
        ok = ok and agree
        details.append(f"u-series(p={p},u={u})={'ok' if agree else 'BAD'}")

    for p in (2, 3):
        for r in range(1, 6):
            partial, rhs, tail, agree = truncated_series_check(p, r, 40)
            ok = ok and agree
        details.append(f"r-series(p={p},r<=5)=ok" if ok else f"r-series(p={p})=BAD")

    assert report(7, ok, "; ".join(details))


def spanning_tree_masks(n, pairs):
    """Bitmasks of the (n-1)-edge subsets of K_n that are spanning trees."""
    masks = []
    for combo in itertools.combinations(range(len(pairs)), n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        good = True
        for idx in combo:
            u, v = pairs[idx]
            ru, rv = find(u), find(v)
            if ru == rv:
                good = False
                break
            parent[ru] = rv
        if good:
            masks.append(sum(1 << idx for idx in combo))
    return masks


def det_int(matrix):
    """Bareiss determinant, independent of the package's Smith form code."""
    m = [row[:] for row in matrix]
    n = len(m)
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


def test_criterion_8_sandpile_exact_cases():
    k3 = Graph(n=3, edges=frozenset({(0, 1), (1, 2), (0, 2)}))
    k4 = Graph(n=4, edges=frozenset((u, v) for u in range(4) for v in range(u + 1, 4)))
    ok = p_sylow_partition(reduced_laplacian(k3), 3) == (Partition([1]), False)
    ok = ok and p_sylow_partition(reduced_laplacian(k3), 2) == (Partition(), False)
    ok = ok and p_sylow_partition(reduced_laplacian(k4), 2) == (Partition([2, 2]), False)

    # determinant == spanning-tree count for every graph on <= 6 vertices,
    # against a brute-force subset-enumeration oracle
    graphs_checked = 0
    det_ok = True
    for n in range(2, 7):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        counts = [0] * (1 << len(pairs))
        full = (1 << len(pairs)) - 1
        for tree in spanning_tree_masks(n, pairs):
            free = full & ~tree
            sub = free
            while True:
                counts[tree | sub] += 1
                if sub == 0:
                    break
                sub = (sub - 1) & free
        for mask in range(1 << len(pairs)):
            edges = frozenset(e for i, e in enumerate(pairs) if mask >> i & 1)
            g = Graph(n=n, edges=edges)
            graphs_checked += 1
            if abs(det_int(reduced_laplacian(g))) != counts[mask]:
                det_ok = False
    ok = ok and det_ok
    assert report(8, ok, f"K3/K4 Sylow partitions exact; determinant equals brute-force "
                         f"spanning-tree count on all {graphs_checked} graphs with <= 6 vertices")


def test_criterion_9_asymptotic_empirical_soft():
    # SOFT criterion: finite-n check of an n -> infinity limit, at the stated
    # tolerances; seeds fixed so the outcome is reproducible.
    c2 = float(odd_constant(2).mid)
    trials = 2000

    half = run_experiment(40, Fraction(1, 2), 2, trials, seed=3)
    connected = trials - half.discarded_disconnected
    freq_trivial = half.distribution.counts.get(Partition(), 0) / connected
    ok_trivial = abs(freq_trivial - c2) <= 0.03

    # TV over partitions of size <= 3 with everything else bucketed
    support = [lam for n in range(4) for lam in enumerate_partitions(n)]
    theo = {lam: float(pmf(lam, 2).enclosure().mid) for lam in support}
    emp = {lam: half.distribution.counts.get(lam, 0) / connected for lam in support}
    theo_rest = 1 - sum(theo.values())
    emp_rest = 1 - sum(emp.values())
    tv_small = 0.5 * (sum(abs(theo[lam] - emp[lam]) for lam in support)
                      + abs(theo_rest - emp_rest))
    ok_tv = tv_small < 0.08

    quarter = run_experiment(40, Fraction(1, 4), 2, trials, seed=5)
    three_quarter = run_experiment(40, Fraction(3, 4), 2, trials, seed=6)
    tv_q = tv_distance(quarter.distribution, three_quarter.distribution)
    ok_q = tv_q.upper < Fraction(8, 100)

    ok = ok_trivial and ok_tv and ok_q
    assert report(9, ok,
                  f"(SOFT) n=40: Prob(trivial 2-Sylow) = {freq_trivial:.4f} vs {c2:.5f} "
                  f"(tol 0.03); TV(size<=3, bucketed) = {tv_small:.4f} (< 0.08); "
                  f"TV(q=1/4 vs q=3/4) = {float(tv_q.mid):.4f} (< 0.08); "
                  f"discarded = {half.discarded_disconnected + quarter.discarded_disconnected + three_quarter.discarded_disconnected}")
