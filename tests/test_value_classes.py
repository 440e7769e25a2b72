"""The library's record classes: field-wise ``==`` and ``repr``, a hash and
refused assignment for the frozen ones, and their constructors' checks.

BoundedReal, Constant, MassValue, SamplerConfig and KernelRow are frozen;
PartitionDistribution and ExperimentResult are mutable and unhashable.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from clpart import sampler
from clpart.measures import EXACT, Constant, MassValue, PartitionDistribution, odd
from clpart.partitions import Partition
from clpart.qseries import BoundedReal
from clpart.sampler import DEFAULT_CUTOFF, KernelRow, SamplerConfig
from clpart.sandpile import ExperimentResult, run_experiment

EXACT_REPR = ("Constant(name=None, enclosure="
              "BoundedReal(mid=Fraction(1, 1), rad=Fraction(0, 1)))")


def table(**changes):
    fields = {"p": 2, "measure": "m", "params": {"n": 3},
              "entries": {Partition([1]): Fraction(1, 3)}, "constant": EXACT,
              "tail_mass": BoundedReal(Fraction(1, 4), Fraction(1, 8)), "counts": None}
    return PartitionDistribution(**{**fields, **changes})


# class -> (fields of one value, {field: another value}, repr of the first)
FROZEN = {
    BoundedReal: (
        {"mid": Fraction(1, 2), "rad": Fraction(1, 8)},
        {"mid": Fraction(1, 3), "rad": Fraction(1, 9)},
        "BoundedReal(mid=Fraction(1, 2), rad=Fraction(1, 8))"),
    Constant: (
        {"name": "c", "enclosure": BoundedReal(Fraction(1))},
        {"name": "d", "enclosure": BoundedReal(Fraction(2))},
        "Constant(name='c', enclosure=BoundedReal(mid=Fraction(1, 1), rad=Fraction(0, 1)))"),
    MassValue: (
        {"rational": Fraction(1, 6), "constant": EXACT},
        {"rational": Fraction(1, 7), "constant": Constant("c", BoundedReal(Fraction(1)))},
        f"MassValue(rational=Fraction(1, 6), constant={EXACT_REPR})"),
    SamplerConfig: (
        {"p": 2, "seed": 1, "initial_tail_cutoff": Fraction(1, 10)},
        {"p": 3, "seed": 2, "initial_tail_cutoff": Fraction(1, 11)},
        "SamplerConfig(p=2, seed=1, initial_tail_cutoff=Fraction(1, 10))"),
    KernelRow: (
        {"masses": (Fraction(1, 2), Fraction(1, 2)), "thresholds": (1, 2)},
        {"masses": (Fraction(1),), "thresholds": (3,)},
        "KernelRow(masses=(Fraction(1, 2), Fraction(1, 2)), thresholds=(1, 2))"),
}


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_frozen_records_compare_hash_and_refuse_assignment(cls):
    fields, others, text = FROZEN[cls]
    value = cls(**fields)
    assert repr(value) == text
    assert cls(*fields.values()) == value and hash(cls(**fields)) == hash(value)
    assert value != tuple(fields.values()) and value != None  # noqa: E711
    for name, other in others.items():
        changed = cls(**{**fields, name: other})
        assert changed != value and not changed == value
        with pytest.raises(AttributeError):
            setattr(value, name, other)
        assert getattr(value, name) == fields[name]
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.copy(value) == value and copy.deepcopy(value) == value


def test_frozen_records_hash_by_value():
    keys = {BoundedReal(Fraction(1, 2)): 1, MassValue(Fraction(1, 6)): 2,
            SamplerConfig(p=2, seed=1): 3, Constant(None, BoundedReal(Fraction(1))): 4}
    assert keys[BoundedReal(Fraction(2, 4), Fraction(0))] == 1
    assert keys[MassValue(Fraction(1, 6), EXACT)] == 2
    assert keys[SamplerConfig(2, 1, DEFAULT_CUTOFF)] == 3
    assert keys[EXACT] == 4


def test_partition_distribution_is_a_mutable_field_wise_record():
    dist = table()
    assert dist == table() and dist != table(p=3) and dist != table(counts={})
    assert dist != table(tail_mass=BoundedReal.exact(0)) and dist != table(params={})
    with pytest.raises(TypeError):
        hash(dist)
    dist.counts = {Partition([1]): 1}
    assert dist == table(counts={Partition([1]): 1})
    assert repr(table(entries={}, params={}, tail_mass=BoundedReal.exact(0))) == (
        f"PartitionDistribution(p=2, measure='m', params={{}}, entries={{}}, "
        f"constant={EXACT_REPR}, tail_mass=BoundedReal(mid=Fraction(0, 1), "
        "rad=Fraction(0, 1)), counts=None)")


def test_partition_distribution_defaults_are_fresh_per_table():
    a, b = PartitionDistribution(p=2, measure="m"), PartitionDistribution(2, "m")
    assert a == b and a.constant is EXACT and a.counts is None
    assert a.params == {} and a.entries == {} and a.tail_mass == BoundedReal.exact(0)
    assert a.params is not b.params and a.entries is not b.entries
    a.params["x"] = 1
    a.entries[Partition()] = Fraction(1)
    assert b.params == {} and b.entries == {}


def test_experiment_result_is_a_field_wise_record():
    result = run_experiment(8, Fraction(1, 2), 2, 20, seed=3)
    again = run_experiment(8, Fraction(1, 2), 2, 20, seed=3)
    assert result == again and result is not again
    assert result != ExperimentResult(again.distribution, again.discarded_disconnected + 1,
                                      again.capped_count)
    assert result != ExperimentResult(again.distribution, again.discarded_disconnected,
                                      again.capped_count + 1)
    assert result != run_experiment(8, Fraction(1, 2), 2, 20, seed=4)
    with pytest.raises(TypeError):
        hash(result)
    dist = table(entries={}, params={}, tail_mass=BoundedReal.exact(0))
    assert repr(ExperimentResult(dist, 1, 2)) == (
        f"ExperimentResult(distribution={dist!r}, discarded_disconnected=1, capped_count=2)")
    assert ExperimentResult(distribution=dist, discarded_disconnected=1,
                            capped_count=2) == ExperimentResult(dist, 1, 2)


def test_sampler_config_compiles_its_tables_once(monkeypatch):
    calls = []
    real = sampler._initial_selector

    def counted(p, cutoff):
        calls.append((p, cutoff))
        return real(p, cutoff)

    monkeypatch.setattr(sampler, "_initial_selector", counted)
    config = SamplerConfig(p=3, seed=1)
    text = repr(config)
    rows = config._rows
    assert config._selector is config._selector and config._rows is rows
    assert calls == [(3, DEFAULT_CUTOFF)]
    assert len(rows) == len(config._selector)
    assert rows[0] == sampler.kernel_row(0, 3).thresholds
    assert repr(config) == text and config == SamplerConfig(p=3, seed=1)
    SamplerConfig(p=3, seed=1)._selector  # an equal config compiles its own
    assert len(calls) == 2


def test_constructors_coerce_and_check():
    value = BoundedReal("1/3", "1/100")
    assert (value.mid, value.rad) == (Fraction(1, 3), Fraction(1, 100))
    assert type(value.mid) is Fraction and type(value.rad) is Fraction
    assert BoundedReal(2) == BoundedReal(Fraction(2), Fraction(0))
    with pytest.raises(ValueError, match="radius must be >= 0"):
        BoundedReal(1, Fraction(-1, 10))
    with pytest.raises(ValueError, match="radius must be >= 0"):
        BoundedReal(1, "-1/10")
    mass = MassValue("1/6")
    assert mass.rational == Fraction(1, 6) and type(mass.rational) is Fraction
    assert MassValue(1, odd(2)).constant is odd(2)
    config = SamplerConfig(p=2, seed=1, initial_tail_cutoff="1/1000")
    assert config.initial_tail_cutoff == Fraction(1, 1000)
    with pytest.raises(ValueError, match="prime"):
        SamplerConfig(p=4, seed=1)
    with pytest.raises(ValueError, match="cutoff"):
        SamplerConfig(p=2, seed=1, initial_tail_cutoff=2)
    with pytest.raises(ValueError):
        SamplerConfig(p=2, seed=-1)
