import json
import random
from fractions import Fraction
from math import gcd

import pytest

from clpart import measures
from clpart.measures import (
    EXACT,
    Family,
    MassValue,
    deformed,
    deformed_series_check,
    inverse_odd_constant_upper,
    normalization_check,
    odd,
    pmf,
    pmf_deformed,
    pmf_parts,
    pmf_size,
    pmf_truncated,
    pmf_via_conjugate,
    size_length_layers,
    solve_parts_recursion,
    tabulate,
    truncated_series_check,
)
from clpart.partitions import Partition, enumerate_partitions
from clpart.qseries import BoundedReal, d_lambda, fraction_str
from clpart.sandpile import tv_distance

from qproducts import finite_qpoch


def test_pmf_examples():
    assert pmf(Partition(), 2).rational == 1
    assert pmf(Partition([1]), 2).rational == Fraction(1, 2)
    assert pmf(Partition([1, 1]), 2).rational == Fraction(1, 6)
    assert pmf(Partition([2]), 3).rational == Fraction(1, 9)
    assert pmf(Partition(), 2).constant is odd(2)


def test_pmf_via_conjugate_examples():
    assert pmf_via_conjugate(Partition(), 2).rational == 1
    assert pmf_via_conjugate(Partition([1]), 2).rational == Fraction(1, 2)
    assert pmf_via_conjugate(Partition([1, 1]), 2).rational == Fraction(1, 6)


def test_form_equivalence_small():
    for p in (2, 3, 5):
        for n in range(9):
            for lam in enumerate_partitions(n):
                assert pmf(lam, p).rational == pmf_via_conjugate(lam, p).rational


def test_pmf_denominator_uses_symmetry_weight():
    # pmf is the closed form 1 / (p^(n(lam)+|lam|) d_lambda(lam, p))
    from clpart.qseries import d_lambda

    for p in (2, 3):
        for n in range(11):
            for lam in enumerate_partitions(n):
                expected = 1 / (Fraction(p) ** (lam.n_stat() + lam.size) * d_lambda(lam, p))
                assert pmf(lam, p).rational == expected


def _random_partition(rng, max_size):
    """A partition of a uniform size <= max_size, each part uniform below the last."""
    n = rng.randint(0, max_size)
    parts = []
    while n:
        parts.append(rng.randint(1, min(n, parts[-1] if parts else n)))
        n -= parts[-1]
    return Partition(parts)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_weights_match_their_formulas_on_random_partitions(p):
    # oracle: d_lambda from the multiplicities by literal finite products
    t = Fraction(1, p)
    rng = random.Random(9000 + p)
    u = Fraction(rng.randint(1, 4 * p - 1), 4)  # 0 < u < p
    for _ in range(300):
        lam = _random_partition(rng, 40)
        d = 1
        for m in lam.multiplicities().values():
            d *= finite_qpoch(t * t, t * t, m // 2)
        assert d_lambda(lam, p) == d
        body = 1 / (Fraction(p) ** (lam.n_stat() + lam.size) * d)
        assert pmf(lam, p).rational == pmf_via_conjugate(lam, p).rational == body
        assert pmf_deformed(lam, p, u).rational == u**lam.size * body
        r = max(lam.length, 1) + rng.randint(0, 3)
        trailing = finite_qpoch(t, t, r) / finite_qpoch(t, t, r - lam.length)
        assert pmf_truncated(lam, p, r) == body * trailing / finite_qpoch(-t, t, r)


def test_pmf_parts_examples_and_sum_oracle():
    assert pmf_parts(0, 2).rational == 1
    assert pmf_parts(1, 2).rational == 1
    assert pmf_parts(2, 2).rational == Fraction(1, 3)
    # oracle for a=1: single-part masses are geometric, sum_k p^-k = 1/(p-1)
    partial = sum(pmf(Partition([k]), 2).rational for k in range(1, 41))
    assert partial < 1 <= partial + Fraction(1, 2**40) * 2


def test_parts_marginal_containment():
    # sum over exactly-a-part partitions of size <= 40 reaches pmf_parts
    # up to the rigorous size-tail bound
    layers = size_length_layers(2, 40)
    bound = Family("truncated", 2, r=1).tail(40)  # w's tail, as the truncated factor <= 1
    for a in range(6):
        partial = sum(v for (n, length), v in layers.items() if length == a)
        target = pmf_parts(a, 2).rational
        assert partial <= target <= partial + bound


def test_size_length_layers_match_enumeration():
    # oracle: the multiplicity-form weight summed over enumerated partitions
    from clpart.qseries import d_lambda

    for p in (2, 3, 5):
        expected = {}
        for n in range(21):
            for lam in enumerate_partitions(n):
                weight = 1 / (Fraction(p) ** (lam.n_stat() + n) * d_lambda(lam, p))
                expected[n, lam.length] = expected.get((n, lam.length), 0) + weight
            assert size_length_layers(p, n) == {
                key: value for key, value in expected.items() if key[0] <= n
            }


def test_size_length_layers_do_not_enumerate(monkeypatch):
    import clpart.measures
    import clpart.partitions

    def refuse(*args):
        raise AssertionError("size_length_layers enumerated partitions")

    monkeypatch.setattr(clpart.partitions, "_walk", refuse)
    monkeypatch.setattr(clpart.measures, "enumerate_partitions", refuse)
    layers = size_length_layers.__wrapped__(2, 40)
    assert len(layers) == 1 + 40 * 41 // 2
    assert layers[40, 1] == Fraction(1, 2**40)


def test_pmf_size_examples():
    assert pmf_size(0, 2).rational == 1
    assert pmf_size(1, 2).rational == Fraction(1, 2)
    assert pmf_size(2, 2).rational == Fraction(5, 12)


def test_size_length_layers_refuse_oversized_requests():
    with pytest.raises(ValueError, match="series cap"):
        size_length_layers(2, 10**4)
    with pytest.raises(ValueError, match="series cap"):
        size_length_layers(3, measures.MAX_SERIES_SIZE + 1)


def test_parts_counts_refuse_oversized_requests():
    # each call would run for hours at k = 10**6; refused before any product
    cap = measures.MAX_PARTS
    for k in (cap + 1, 10**6):
        with pytest.raises(ValueError, match=f"a={k} exceeds the parts cap {cap}"):
            pmf_parts(k, 2)
        with pytest.raises(ValueError, match=f"r={k} exceeds the parts cap {cap}"):
            pmf_truncated(Partition([1]), 2, k)
        with pytest.raises(ValueError, match=f"r={k} exceeds the parts cap {cap}"):
            tabulate(2, 3, measure="truncated", r=k)
        with pytest.raises(ValueError, match=f"r={k} exceeds the parts cap {cap}"):
            truncated_series_check(2, k, 10)
        with pytest.raises(ValueError, match=f"a_max={k} exceeds the parts cap {cap}"):
            solve_parts_recursion(2, k)
    # the cap itself is accepted, and the two routes still agree there
    assert [v.rational for v in solve_parts_recursion(2, cap)][-1] == pmf_parts(cap, 2).rational
    assert pmf_truncated(Partition([1]), 2, cap) > 0


def test_size_marginal_exact():
    for p in (2, 3, 5):
        for n in range(13):
            total = sum(pmf(lam, p).rational for lam in enumerate_partitions(n))
            assert total == pmf_size(n, p).rational
    # the same marginals from the column DP, past the enumeration cap
    layers = size_length_layers(2, 64)
    for n in range(65):
        total = sum(value for (size, _), value in layers.items() if size == n)
        assert total == pmf_size(n, 2).rational


@pytest.mark.parametrize("p", [2, 3])
def test_pmf_of_a_thousand_ones_equals_the_conjugate_form(p):
    # one run of 1000 equal parts reads N_500: an earlier cached route rebuilt
    # each N_j, j > 256, from N_256 and took 20 s at p = 2
    lam = Partition([1] * 1000)
    assert pmf(lam, p).rational == pmf_via_conjugate(lam, p).rational


def test_pmf_deformed_examples_and_domain():
    u = Fraction(1, 2)
    assert pmf_deformed(Partition(), 2, u).rational == 1
    assert pmf_deformed(Partition([1]), 2, u).rational == Fraction(1, 4)
    mass = pmf_deformed(Partition([2, 1]), 3, u)
    assert mass.constant is deformed(3, u)
    with pytest.raises(ValueError):
        pmf_deformed(Partition([1]), 2, 2)
    with pytest.raises(ValueError):
        pmf_deformed(Partition([1]), 2, 0)


def test_deformed_at_u_one_matches_base_measure():
    for p in (2, 3):
        for n in range(13):
            for lam in enumerate_partitions(n):
                assert pmf_deformed(lam, p, 1).rational == pmf(lam, p).rational


def test_pmf_truncated_examples():
    assert pmf_truncated(Partition(), 2, 1) == Fraction(2, 3)
    for k in range(1, 21):
        expected = Fraction(2, 3) * Fraction(1, 2) ** (k + 1)
        assert pmf_truncated(Partition([k]), 2, 1) == expected
    with pytest.raises(ValueError):
        pmf_truncated(Partition([1, 1]), 2, 1)


def test_truncated_r1_total_is_geometric():
    # the whole r=1 family is (2/3) * (1, 1/4, 1/8, ...): total mass exactly 1
    total = pmf_truncated(Partition(), 2, 1)
    total += sum(pmf_truncated(Partition([k]), 2, 1) for k in range(1, 41))
    assert 1 - total == Fraction(2, 3) * Fraction(1, 2) ** 41


def test_truncated_table_computes_each_trailing_factor_once(monkeypatch):
    # the factor depends on (p, r) and the parts count only, so a table takes
    # O(r) q-products however many entries it holds
    calls = []
    real = measures.lower_numerators

    def counted(p, k):
        calls.append(k)
        return real(p, k)

    monkeypatch.setattr(measures, "lower_numerators", counted)
    measures._truncated_factor.cache_clear()
    r = 5
    table = tabulate(2, 12, "truncated", r=r)
    assert len(table.entries) > 2 * (r + 1)
    assert 0 < len(calls) <= r + 1  # the factor reads lower_numerators through measures


def test_solve_parts_recursion_examples():
    values = solve_parts_recursion(2, 0)
    assert len(values) == 1 and values[0].rational == 1
    assert solve_parts_recursion(2, 1)[1].rational == 1
    for p in (2, 3, 5):
        for a, mass in enumerate(solve_parts_recursion(p, 12)):
            assert mass.rational == pmf_parts(a, p).rational


def test_mass_value_validation_and_enclosure():
    exact = MassValue(Fraction(2, 3))
    assert exact.constant is EXACT
    assert exact.enclosure().mid == Fraction(2, 3) and exact.enclosure().rad == 0
    enc = MassValue(Fraction(1, 6), odd(2)).enclosure()
    assert abs(enc.mid - Fraction("0.0699037403")) < Fraction(1, 10**9)


def test_tabulate_base_measure_trivial_and_normalized():
    dist = tabulate(2, 0)
    assert set(dist.entries) == {Partition()}
    assert dist.entries[Partition()] == 1
    # the unit mass minus the empty partition's mass must fit inside the tail
    assert dist.tail_mass.upper >= 1 - dist.total_enclosure().upper
    for p in (2, 3):
        dist = tabulate(p, 12)
        total = dist.normalization_enclosure()
        assert total.contains(1)


def test_tabulate_deformed_and_truncated_normalized():
    dist = tabulate(2, 12, measure="deformed", u=Fraction(1, 2))
    assert dist.normalization_enclosure().contains(1)
    dist = tabulate(3, 12, measure="deformed", u=Fraction(2))
    assert dist.normalization_enclosure().contains(1)
    dist = tabulate(2, 20, measure="truncated", r=1)
    assert dist.normalization_enclosure().contains(1)
    for k in range(1, 21):
        assert dist.entries[Partition([k])] == Fraction(2, 3) * Fraction(1, 2) ** (k + 1)
    dist = tabulate(2, 14, measure="truncated", r=2)
    assert dist.normalization_enclosure().contains(1)
    assert all(lam.length <= 2 for lam in dist.entries)


# every table family with its per-partition mass function, the oracle for
# tabulate's keyed weights
FAMILIES = {
    "cl": ({}, lambda lam, p: pmf(lam, p)),
    "deformed-1/2": ({"measure": "deformed", "u": Fraction(1, 2)},
                     lambda lam, p: pmf_deformed(lam, p, Fraction(1, 2))),
    "deformed-3/2": ({"measure": "deformed", "u": Fraction(3, 2)},
                     lambda lam, p: pmf_deformed(lam, p, Fraction(3, 2))),
    "truncated-1": ({"measure": "truncated", "r": 1},
                    lambda lam, p: MassValue(pmf_truncated(lam, p, 1))),
    "truncated-3": ({"measure": "truncated", "r": 3},
                    lambda lam, p: MassValue(pmf_truncated(lam, p, 3))),
    "truncated-16": ({"measure": "truncated", "r": 16},
                     lambda lam, p: MassValue(pmf_truncated(lam, p, 16))),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("p", [2, 3, 5])
def test_tabulate_equals_the_per_partition_mass(p, family):
    kwargs, mass = FAMILIES[family]
    r = kwargs.get("r")
    for max_size in (0, 1, 16):
        dist = tabulate(p, max_size, **kwargs)
        expected = {lam: mass(lam, p).rational
                    for n in range(max_size + 1) for lam in enumerate_partitions(n)
                    if r is None or lam.length <= r}
        assert dist.entries == expected
        assert list(dist.entries) == sorted(dist.entries, key=Partition.sort_key)
        assert dist.constant is mass(Partition(), p).constant


def _truncated_by_qpochs(lam, p, r):
    """The truncated family's factor of lam, by literal finite products."""
    t = Fraction(1, p)
    return finite_qpoch(t, t, r) / finite_qpoch(t, t, r - lam.length) / finite_qpoch(-t, t, r)


CONJUGATE_FACTORS = {
    "cl": ({}, lambda lam, p: 1),
    "deformed-1/2": ({"measure": "deformed", "u": Fraction(1, 2)},
                     lambda lam, p: Fraction(1, 2) ** lam.size),
    "deformed-3/2": ({"measure": "deformed", "u": Fraction(3, 2)},
                     lambda lam, p: Fraction(3, 2) ** lam.size),
    "truncated-1": ({"measure": "truncated", "r": 1},
                    lambda lam, p: _truncated_by_qpochs(lam, p, 1)),
    "truncated-3": ({"measure": "truncated", "r": 3},
                    lambda lam, p: _truncated_by_qpochs(lam, p, 3)),
}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_tabulate_equals_the_conjugate_form(p):
    # pmf_via_conjugate multiplies column steps and the factors are literal
    # powers and q-products: they share no code with weight_key and
    # Family.rational, which build the table and pmf alike
    for family, (kwargs, factor) in CONJUGATE_FACTORS.items():
        r = kwargs.get("r")
        dist = tabulate(p, 14, **kwargs)
        assert len(dist.entries) == sum(1 for n in range(15) for lam in enumerate_partitions(n)
                                        if r is None or lam.length <= r), family
        for lam, rational in dist.entries.items():
            assert rational == pmf_via_conjugate(lam, p).rational * factor(lam, p), (family, lam)


def test_tabulate_argument_validation():
    with pytest.raises(ValueError):
        tabulate(2, 100)
    with pytest.raises(ValueError):
        tabulate(2, 5, measure="deformed")
    with pytest.raises(ValueError):
        tabulate(2, 5, measure="truncated")
    with pytest.raises(ValueError):
        tabulate(2, 5, measure="cl", u=Fraction(1, 2))
    with pytest.raises(ValueError):
        tabulate(2, 5, measure="deformed", u=Fraction(1, 2), r=3)
    with pytest.raises(ValueError):
        tabulate(2, 5, measure="nope")


def test_series_checks_small_depth():
    partial, rhs, tail, agree = deformed_series_check(2, Fraction(1, 2), 20)
    assert agree and partial < rhs.upper + tail
    partial, rhs, tail, agree = truncated_series_check(2, 3, 20)
    assert agree and partial <= rhs <= partial + tail


def test_normalization_check_matches_table():
    # oracle: the enumerated table's total plus its tail
    for p in (2, 3, 5):
        for n in range(13):
            total, agree = normalization_check(p, n)
            assert total == tabulate(p, n).normalization_enclosure()
            assert agree


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("max_size", [0, 1, 8, 16])
def test_family_tables_match_the_series_layers(p, max_size):
    # two routes to each family's partial sum: enumerated table vs column DP
    for u in (Fraction(1, 2), Fraction(3, 2)):
        table = tabulate(p, max_size, "deformed", u=u)
        assert sum(table.entries.values()) == deformed_series_check(p, u, max_size)[0]
    for r in (1, 3, 16):
        partial, rhs, _, _ = truncated_series_check(p, r, max_size)
        assert rhs * sum(tabulate(p, max_size, "truncated", r=r).entries.values()) == partial


def test_family_tails_are_geometric_size_bounds():
    # the closed form p^-n / (p - 1) of the size tail, and the one geometric
    # sum (u/p)^(n+1) / (1 - u/p) at u = 1
    for p in (2, 3, 7):
        for n in (0, 5, 26):
            size = Fraction(1, p**n * (p - 1))
            assert Family("cl", p).tail(n) == size
            assert Family("truncated", p, r=3).tail(n) == inverse_odd_constant_upper(p) * size
            assert Family("deformed", p, u=1).tail(n) == inverse_odd_constant_upper(p) * size


@pytest.mark.parametrize("p", [2, 3, 5])
def test_family_tails_bound_the_layers_past_them(p):
    # what the checks read each tail as: a bound on the base measure's mass
    # (odd-constant times the layers), and on the deformed and truncated layer
    # sums, at sizes N+1 .. 48
    us = (Fraction(1, 2), Fraction(3, 2), p - Fraction(1, 2))
    families = [Family("cl", p), *(Family("deformed", p, u=u) for u in us),
                *(Family("truncated", p, r=r) for r in (1, 3, 16))]
    for family in families:
        scale = family.constant().enclosure.upper if family.name == "cl" else 1
        far = family.layer_sum(48)
        for n in (0, 1, 5, 10, 20, 30):
            assert scale * (far - family.layer_sum(n)) <= family.tail(n), (family, n)


@pytest.mark.parametrize("measure", ["bogus", "cl-conjugate"])
def test_tabulate_refuses_a_measure_without_a_table(measure):
    with pytest.raises(ValueError):
        tabulate(2, 3, measure)


def test_deformed_series_all_stated_points_full_depth():
    for p, u in ((2, Fraction(1, 2)), (3, Fraction(1, 2)), (3, Fraction(2))):
        partial, rhs, tail, agree = deformed_series_check(p, u, 40)
        assert agree, (p, u, float(partial), rhs, float(tail))


def test_json_serialization_is_canonical():
    dist = tabulate(2, 4)
    doc = dist.to_json_dict()
    partitions = [row["partition"] for row in doc["entries"]]
    assert partitions[:5] == ["[]", "[1]", "[2]", "[1,1]", "[3]"]
    assert doc["p"] == 2 and doc["measure"] == "cl"
    # stable under re-serialization
    assert json.dumps(doc, sort_keys=True) == json.dumps(tabulate(2, 4).to_json_dict(), sort_keys=True)
    rows = dist.to_csv_rows()
    assert rows[0] == ["partition", "midpoint", "radius"]
    assert rows[1][0] == "[]"


def test_distribution_total_groups_by_constant():
    dist = tabulate(2, 6)
    total = dist.total_enclosure()
    plain = sum(dist.entries.values())
    # total = constant enclosure times the exact rational sum
    from clpart.qseries import odd_constant
    enc = odd_constant(2) * plain
    assert abs(total.mid - enc.mid) <= total.rad + enc.rad


@pytest.mark.parametrize("p", [2, 3, 5])
def test_distribution_total_is_the_plain_fraction_sum(p):
    # total_enclosure sums over the lcm of the denominators; this is the oracle
    for dist in (tabulate(p, 16), tabulate(p, 16, "deformed", u=Fraction(1, 2)),
                 tabulate(p, 16, "truncated", r=3), tabulate(p, 0)):
        plain = sum(dist.entries.values(), Fraction(0))
        assert dist.total_enclosure() == dist.constant.enclosure * plain
    assert measures.PartitionDistribution(p, "empty").total_enclosure() == BoundedReal(0)


def test_table_outputs_read_the_constant_once_per_table(monkeypatch):
    dist = tabulate(2, 8)
    assert dist.constant is pmf(Partition(), 2).constant
    recorded = (dist.to_json_dict(), dist.to_csv_rows(), dist.normalization_enclosure(),
                tv_distance(dist, dist))

    def boom(*args, **kwargs):
        raise AssertionError("odd_constant called after the table was built")

    monkeypatch.setattr(measures, "odd_constant", boom)
    assert (dist.to_json_dict(), dist.to_csv_rows(), dist.normalization_enclosure(),
            tv_distance(dist, dist)) == recorded


def test_table_outputs_render_each_distinct_rational_once(monkeypatch):
    dist = tabulate(3, 12)
    distinct = len(set(dist.entries.values()))
    assert distinct < len(dist.entries)
    # oracle: every entry rendered on its own
    masses = [(str(lam), dist.constant.enclosure * dist.entries[lam])
              for lam in sorted(dist.entries, key=Partition.sort_key)]
    expected_json = [{"partition": lam, "mid": fraction_str(m.mid), "rad": fraction_str(m.rad)}
                     for lam, m in masses]
    expected_csv = [[lam, repr(float(m.mid)), repr(float(m.rad))] for lam, m in masses]
    calls = {"product": 0, "mul": 0}

    def counted_product(*args, product=measures._product):
        calls["product"] += 1
        return product(*args)

    def counted_mul(self, other, mul=BoundedReal.__mul__):
        calls["mul"] += 1
        return mul(self, other)

    monkeypatch.setattr(measures, "_product", counted_product)
    monkeypatch.setattr(BoundedReal, "__mul__", counted_mul)
    doc = dist.to_json_dict()
    assert doc["entries"] == expected_json
    # one integer product for the mid and one for the rad of each distinct
    # rational, and no BoundedReal product at all
    assert calls == {"product": 2 * distinct, "mul": 0}
    calls.update(product=0)
    assert dist.to_csv_rows()[1:] == expected_csv
    assert calls == {"product": 2 * distinct, "mul": 0}


def test_table_json_converts_each_distinct_int_once(monkeypatch):
    dist = tabulate(2, 16)
    enclosure = dist.constant.enclosure
    rationals = set(dist.entries.values())
    masses = {enclosure * r for r in rationals}
    numerators = {x.numerator for m in masses for x in (m.mid, m.rad)}
    # a denominator is a big factor of the constant's times a small one of the rational's
    factors = {x.denominator // gcd(r.numerator, x.denominator)
               for r in rationals for x in (enclosure.mid, enclosure.rad)}
    # the masses share their numerators and big factors, so caching pays
    assert len(numerators) + len(factors) < len(masses)
    converted = {"digits": [], "decimals": []}
    real_text, real_decimals = measures.int_text, measures.exact_decimals

    def counted_text(i):
        converted["digits"].append(i)
        return real_text(i)

    class CountingContext(type(real_decimals())):
        def create_decimal(self, num):
            converted["decimals"].append(num)
            return super().create_decimal(num)

    def counting_decimals():
        context = real_decimals()
        return CountingContext(prec=context.prec, Emax=context.Emax, Emin=context.Emin,
                               traps=[t for t, on in context.traps.items() if on])

    monkeypatch.setattr(measures, "int_text", counted_text)
    monkeypatch.setattr(measures, "exact_decimals", counting_decimals)
    for _ in range(2):  # the caches live for one json_parts call
        for keys in converted.values():
            keys.clear()
        rows = dist.to_json_dict()["entries"]
        assert sorted(converted["digits"]) == sorted(numerators)
        assert sorted(converted["decimals"]) == sorted(factors)
    assert len(rows) == len(dist.entries)


PRODUCT_TABLES = {
    **{f"{name}-p{p}": (lambda p=p, measure=measure, kw=kw: tabulate(p, 10, measure, **kw))
       for p in (2, 3, 5)
       for name, measure, kw in (("cl", "cl", {}),
                                 ("deformed-1/2", "deformed", {"u": Fraction(1, 2)}),
                                 ("deformed-3/2", "deformed", {"u": Fraction(3, 2)}),
                                 ("truncated-3", "truncated", {"r": 3}))},
    # the exact constant: mid 1, rad 0
    "frequency": lambda: measures.frequency_table(
        3, "cl", {}, {Partition(): 6, Partition([1]): 3, Partition([2]): 3,
                      Partition([1, 1]): 1, Partition([3, 1]): 2}, 15),
}


@pytest.mark.parametrize("name", sorted(PRODUCT_TABLES))
def test_table_renderings_equal_the_enclosure_products(name):
    dist = PRODUCT_TABLES[name]()
    enclosure = dist.constant.enclosure
    for r in set(dist.entries.values()):
        for x in (enclosure.mid, enclosure.rad):
            numerator, big, small = measures._product(x.numerator, x.denominator,
                                                      r.numerator, r.denominator)
            assert (numerator, big * small) == ((x * r).numerator, (x * r).denominator)
    rows = dist.to_json_dict()["entries"]
    csv = dist.to_csv_rows()[1:]
    assert len(rows) == len(csv) == len(dist.entries)
    for row, line, (lam, r) in zip(rows, csv, dist.entries.items()):
        mass = enclosure * r
        assert row["partition"] == line[0] == str(lam)
        assert (row["mid"], row["rad"]) == (fraction_str(mass.mid), fraction_str(mass.rad))
        assert line[1:] == [repr(float(mass.mid)), repr(float(mass.rad))]


@pytest.mark.parametrize("p", [2, 3])
def test_normalization_check_reads_a_larger_table_exactly(p):
    for max_size in (0, 5, 30):
        assert normalization_check(p, max_size, 40) == normalization_check(p, max_size)
    with pytest.raises(ValueError, match="max_size=31 exceeds the table cap 30"):
        normalization_check(p, 31, 30)
