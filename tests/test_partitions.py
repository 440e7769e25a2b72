from fractions import Fraction

import pytest

from clpart.partitions import ENUMERATION_CAP, Partition, enumerate_partitions


def partition_counts_pentagonal(limit):
    """Independent oracle: p(n) via Euler's pentagonal-number recurrence."""
    counts = [1]
    for n in range(1, limit + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = 1 if k % 2 == 1 else -1
            if g1 <= n:
                total += sign * counts[n - g1]
            if g2 <= n:
                total += sign * counts[n - g2]
            k += 1
        counts.append(total)
    return counts


def test_validation_rejects_bad_parts():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([3, 0])
    with pytest.raises(ValueError):
        Partition([-1])
    # non-integer parts raise instead of being truncated
    for parts in ([2.7, 1.2], [1.9], [2.0], [Fraction(3, 2)], [Fraction(2)], [3, 1.9]):
        with pytest.raises(TypeError):
            Partition(parts)


def test_immutable():
    lam = Partition([2, 1])
    with pytest.raises(AttributeError):
        lam.parts = (3,)


def test_conjugate_examples():
    assert Partition().conjugate() == Partition()
    assert Partition([3, 1]).conjugate() == Partition([2, 1, 1])
    assert Partition([2, 2]).conjugate() == Partition([2, 2])


def test_conjugate_involution_exhaustive():
    for n in range(21):
        for lam in enumerate_partitions(n):
            mu = lam.conjugate()
            assert mu.size == lam.size
            assert mu.conjugate() == lam


def test_n_stat_examples():
    assert Partition().n_stat() == 0
    assert Partition([1, 1]).n_stat() == 1
    assert Partition([3, 2, 1]).n_stat() == 4


def test_n_stat_equals_conjugate_binomials():
    # classical identity: n(lam) = sum_j binom(mu_j, 2) with mu the conjugate
    for n in range(21):
        for lam in enumerate_partitions(n):
            mu = lam.conjugate()
            assert lam.n_stat() == sum(m * (m - 1) // 2 for m in mu)


def test_multiplicity_examples():
    assert Partition([2, 2, 1]).multiplicities() == {2: 2, 1: 1}


def test_enumeration_order_and_small_cases():
    assert enumerate_partitions(0) == [Partition()]
    assert enumerate_partitions(2) == [Partition([2]), Partition([1, 1])]
    assert len(enumerate_partitions(5)) == 7
    # reverse lexicographic: each partition strictly precedes the next
    for n in range(12):
        lams = enumerate_partitions(n)
        for a, b in zip(lams, lams[1:]):
            assert a.parts > b.parts


def _descending(n, max_part):
    """Reference enumeration: the partitions of n with parts <= max_part, as
    tuples in reverse lexicographic order, by recursion on the first part."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _descending(n - first, first):
            yield (first,) + rest


def test_enumeration_matches_recursive_reference():
    for n in range(31):
        lams = enumerate_partitions(n)
        assert [lam.parts for lam in lams] == list(_descending(n, n))
        # the walk builds its partitions unchecked: each must pass the checks
        assert all(type(lam) is Partition and Partition(lam.parts) == lam for lam in lams)


def test_enumeration_counts_match_recurrence():
    counts = partition_counts_pentagonal(40)
    for n in range(41):
        assert len(enumerate_partitions(n)) == counts[n]


def test_enumeration_cap():
    with pytest.raises(ValueError):
        enumerate_partitions(ENUMERATION_CAP + 1)
    with pytest.raises(ValueError):
        enumerate_partitions(-1)


def test_string_round_trip():
    for text in ("[]", "[1]", "[3,1,1]", "[10,10,2]"):
        assert str(Partition.from_string(text)) == text
    assert Partition.from_string(" [ 2 , 1 ] ".replace(" ", "")) == Partition([2, 1])
    with pytest.raises(ValueError):
        Partition.from_string("3,1")
    with pytest.raises(ValueError):
        Partition.from_string("[1,2]")
    with pytest.raises(ValueError):
        Partition.from_string("[a]")


def test_string_equals_the_joined_parts_and_round_trips():
    assert str(Partition()) == "[]"
    for n in range(15):
        for lam in enumerate_partitions(n):
            text = str(lam)
            assert text == "[" + ",".join(map(str, lam.parts)) + "]"
            assert Partition.from_string(text) == lam


def test_sort_key_orders_by_size_then_reverse_lex():
    lams = [Partition([1, 1]), Partition(), Partition([2]), Partition([1])]
    ordered = sorted(lams, key=Partition.sort_key)
    assert ordered == [Partition(), Partition([1]), Partition([2]), Partition([1, 1])]


def test_hash_and_equality():
    assert Partition([2, 1]) == Partition((2, 1))
    assert hash(Partition([2, 1])) == hash(Partition((2, 1)))
    table = {Partition([2, 1]): "x"}
    assert table[Partition([2, 1])] == "x"
    assert Partition([1]) != Partition([1, 1])
