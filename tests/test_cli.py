import errno
import json
import hashlib
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from clpart import cli, measures, qseries, sampler
from clpart.cli import _run_checks, main
from clpart.measures import MassValue, tabulate
from clpart.partitions import Partition
from clpart.qseries import fraction_str
from clpart.sampler import SamplerConfig, empirical_distribution
from clpart.sandpile import run_experiment


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pmf_single_mass(capsys):
    code, out, _ = run(capsys, ["pmf", "--measure", "cl", "--p", "2", "--partition", "[1,1]"])
    assert code == 0
    assert "constant odd(p=2)" in out
    doc = json.loads(out[out.index("{"):])
    assert doc["rational"] == "1/6"
    assert doc["partition"] == "[1,1]"


def test_pmf_single_mass_past_the_int_to_str_digit_limit(capsys):
    # n(lam) + |lam| = 20100 for 200 ones: a ~6,000-digit denominator
    lam = Partition([1] * 200)
    code, out, _ = run(capsys, ["pmf", "--measure", "cl", "--p", "2", "--partition", str(lam)])
    assert code == 0
    doc = json.loads(out[out.index("{"):])
    mass = measures.pmf(lam, 2)
    assert doc["rational"] == fraction_str(mass.rational) and len(doc["rational"]) > 6000
    assert doc["mass"] == mass.enclosure().to_json()


def test_pmf_truncated_exact(capsys):
    code, out, _ = run(capsys, ["pmf", "--measure", "truncated", "--r", "1", "--p", "2",
                                "--partition", "[]"])
    assert code == 0
    doc = json.loads(out[out.index("{"):])
    assert doc["rational"] == "2/3"
    assert doc["mass"] == {"mid": "2/3", "rad": "0/1"}


def test_pmf_rejects_bad_partition(capsys):
    code, _, err = run(capsys, ["pmf", "--measure", "cl", "--p", "2", "--partition", "[1,2]"])
    assert code == 2
    assert "weakly decreasing" in err


def test_pmf_rejects_composite_p(capsys):
    code, _, err = run(capsys, ["pmf", "--measure", "cl", "--p", "4", "--partition", "[]"])
    assert code == 2
    assert "prime" in err


def test_pmf_argument_combinations(capsys):
    code, _, err = run(capsys, ["pmf", "--measure", "cl", "--p", "2"])
    assert code == 2
    code, _, _ = run(capsys, ["pmf", "--measure", "cl", "--p", "2",
                              "--partition", "[1]", "--max-size", "3"])
    assert code == 2
    code, _, _ = run(capsys, ["pmf", "--measure", "deformed", "--p", "2", "--partition", "[1]"])
    assert code == 2  # missing --u
    code, _, _ = run(capsys, ["pmf", "--measure", "deformed", "--p", "2",
                              "--partition", "[1]", "--u", "3"])
    assert code == 2  # u outside (0, p)
    code, _, _ = run(capsys, ["pmf", "--measure", "size", "--p", "2"])
    assert code == 2  # missing --n
    code, _, _ = run(capsys, ["pmf", "--measure", "bogus", "--p", "2", "--partition", "[]"])
    assert code == 2  # argparse choice error
    # a u or r the measure does not take, on the single-mass and table paths
    for extra in (["--measure", "cl", "--partition", "[1]", "--u", "1/2"],
                  ["--measure", "deformed", "--u", "1/2", "--r", "3", "--partition", "[1]"],
                  ["--measure", "deformed", "--u", "1/2", "--r", "3", "--max-size", "2"],
                  ["--measure", "cl-conjugate", "--r", "2", "--partition", "[1]"],
                  ["--measure", "size", "--n", "3", "--u", "1/2"]):
        code, out, err = run(capsys, ["pmf", "--p", "2", *extra])
        assert (code, out) == (2, ""), extra
        assert "u/r apply only" in err, extra


@pytest.mark.parametrize("extra, error", [
    (["--measure", "cl", "--partition", "[1]", "--format", "csv"],
     "--format csv does not apply to --partition"),
    (["--measure", "size", "--n", "3", "--format", "csv"],
     "--format csv does not apply to --measure size"),
    (["--measure", "parts", "--a", "2", "--format", "csv"],
     "--format csv does not apply to --measure parts"),
    (["--measure", "cl", "--max-size", "3", "--n", "3"], "--n 3 does not apply to --max-size"),
    (["--measure", "deformed", "--u", "1/2", "--max-size", "3", "--a", "2"],
     "--a 2 does not apply to --max-size"),
    (["--measure", "cl", "--partition", "[1]", "--n", "3"], "--n 3 does not apply to --partition"),
    (["--measure", "truncated", "--r", "2", "--partition", "[1]", "--a", "1"],
     "--a 1 does not apply to --partition"),
    (["--measure", "size", "--n", "3", "--max-size", "4"],
     "--max-size 4 does not apply to --measure size"),
    (["--measure", "parts", "--a", "2", "--partition", "[1]"],
     "--partition [1] does not apply to --measure parts"),
    (["--measure", "size", "--n", "3", "--a", "2"], "--a 2 does not apply to --measure size"),
])
def test_pmf_refuses_flags_its_mode_does_not_read(capsys, extra, error):
    code, out, err = run(capsys, ["pmf", "--p", "2", *extra])
    assert (code, out, err) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("extra, error", [
    (["--measure", "cl-conjugate", "--max-size", "3"],
     "measure 'cl-conjugate' has no table; use cl"),
    (["--measure", "deformed", "--partition", "[1]"], "the deformed measure needs u"),
    (["--measure", "truncated", "--max-size", "3"], "the truncated measure needs r"),
    (["--measure", "cl", "--u", "1/2", "--max-size", "3"],
     "u/r apply only to the deformed/truncated measures"),
    (["--measure", "size", "--n", "3", "--r", "2"],
     "u/r apply only to the deformed/truncated measures"),
    (["--measure", "truncated", "--r", "2", "--partition", "[1,1,1]"],
     "partition has 3 parts, more than r=2"),
    (["--measure", "truncated", "--r", "65", "--max-size", "3"], "r=65 exceeds the parts cap 64"),
    (["--measure", "truncated", "--r", "0", "--partition", "[]"], "r must be >= 1"),
    (["--measure", "deformed", "--u", "3", "--max-size", "3"], "u must satisfy 0 < u < p, got 3"),
])
def test_pmf_family_selection_errors_exit_2_with_one_line(capsys, extra, error):
    code, out, err = run(capsys, ["pmf", "--p", "2", *extra])
    assert (code, out, err) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("argv, error", [
    (["pmf", "--measure", "parts", "--a", "65"], "a=65 exceeds the parts cap 64"),
    (["pmf", "--measure", "parts", "--a", "1000000"], "a=1000000 exceeds the parts cap 64"),
    (["pmf", "--measure", "truncated", "--r", "65", "--partition", "[1]"],
     "r=65 exceeds the parts cap 64"),
    (["pmf", "--measure", "truncated", "--r", "65", "--max-size", "3"],
     "r=65 exceeds the parts cap 64"),
    (["verify", "--suite", "recursions", "--a-max", "65"], "a_max=65 exceeds the parts cap 64"),
    (["verify", "--suite", "chain", "--a-max", "65"], "a=65 exceeds the parts cap 64"),
    (["sample", "--trials", "3", "--seed", "1", "--cutoff", f"1/{10**1000}"],
     f"cutoff=1/1{'0' * 27}...{'0' * 10} (1003 characters) needs heights above the parts cap 64"),
])
def test_parts_counts_above_the_cap_exit_2_before_any_output(capsys, argv, error):
    code, out, err = run(capsys, [*argv, "--p", "2"])
    assert (code, out, err) == (2, "", f"error: {error}\n")


def test_rationals_past_the_int_to_str_digit_limit_are_parsed(capsys):
    big = "1" + "0" * 5000
    code, out, err = run(capsys, ["sample", "--p", "2", "--trials", "3", "--seed", "1",
                                  "--cutoff", f"1/{big}"])
    shown = f"1/1{'0' * 27}...{'0' * 10} (5003 characters)"
    assert (code, out, err) == (2, "", f"error: cutoff={shown} needs heights above the parts cap 64\n")
    code, out, _ = run(capsys, ["graphs", "--n", "6", "--q", f"{big}/{big}0", "--p", "2",
                                "--trials", "3", "--seed", "1"])
    assert code == 0 and json.loads(out)["params"]["q"] == "1/10"


def test_an_unparseable_rational_is_echoed_short(capsys):
    code, out, err = run(capsys, ["sample", "--p", "2", "--trials", "3", "--seed", "1",
                                  "--cutoff", "1/x" + "0" * 5000])
    shown = "1/x" + "0" * 27 + "..." + "0" * 10
    assert (code, out, err) == (
        2, "", f"error: cannot parse rational '{shown}' (5003 characters; use a/b or an integer)\n")
    code, _, err = run(capsys, ["sample", "--p", "2", "--trials", "3", "--seed", "1", "--cutoff", "1/x"])
    assert (code, err) == (2, "error: cannot parse rational '1/x' (use a/b or an integer)\n")


LONG = "1" + "0" * 5000  # a side past Python's 4300-digit int-to-str limit
LONG_SHOWN = f"1{'0' * 29}...{'0' * 10} (5001 characters)"


@pytest.mark.parametrize("argv, error", [
    (["pmf", "--measure", "deformed", "--p", "2", "--u", LONG, "--partition", "[1]"],
     f"u must satisfy 0 < u < p, got {LONG_SHOWN}"),
    (["graphs", "--n", "5", "--q", LONG, "--p", "2", "--trials", "1", "--seed", "1"],
     f"edge probability must lie strictly in (0,1), got {LONG_SHOWN}"),
    (["sample", "--p", "2", "--trials", "1", "--seed", "1", "--cutoff", LONG],
     f"cutoff must lie in (0, 1), got {LONG_SHOWN}"),
], ids=["pmf-u", "graphs-q", "sample-cutoff"])
def test_out_of_range_rationals_past_the_digit_limit_are_echoed_short(capsys, argv, error):
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", f"error: {error}\n") and len(err.encode()) < 200


def test_a_decimal_exponent_above_the_cap_exits_2_before_expanding(capsys):
    code, out, err = run(capsys, ["pmf", "--measure", "deformed", "--p", "2", "--u", "1e-1000000",
                                  "--partition", "[1]"])
    assert (code, out, err) == (
        2, "", "error: decimal exponent -1000000 exceeds the cap 100000 in magnitude\n")


@pytest.mark.parametrize("argv, bits", [
    (["--measure", "cl", "--partition", "[10000000]"], 20_000_000),
    (["--measure", "cl-conjugate", "--partition", "[3000000]"], 6_000_000),
    (["--measure", "deformed", "--u", "1/2", "--partition", "[1000000]"], 5_000_000),
    (["--measure", "deformed", "--u", "1e-1000", "--partition", "[3000]"], 9_975_000),
], ids=["cl", "cl-conjugate", "deformed-half", "deformed-tiny-u"])
def test_a_mass_above_the_bit_cap_exits_2_before_it_is_built(capsys, monkeypatch, argv, bits):
    def built(*args):
        raise AssertionError("the mass was built")

    monkeypatch.setattr(measures, "weight_key", built)
    monkeypatch.setattr(Partition, "conjugate", built)
    code, out, err = run(capsys, ["pmf", "--p", "2", *argv])
    assert (code, out, err) == (2, "", f"error: mass bits={bits} exceeds the mass cap 1048576\n")


@pytest.mark.parametrize("mode", [["--partition", "[1]"], ["--max-size", "3"]],
                         ids=["partition", "max-size"])
def test_an_in_range_u_past_the_digit_limit_is_shown_short_in_the_constant(capsys, mode):
    code, out, err = run(capsys, ["pmf", "--measure", "deformed", "--p", "2", "--u", "1e-5000",
                                  *mode])
    constant = out.splitlines()[0]
    shown = f"1/1{'0' * 27}...{'0' * 10} (5003 characters)"
    assert (code, err) == (0, "") and constant.startswith(f"constant deformed(p=2, u={shown}) = ")
    assert len(constant.encode()) < 200


@pytest.mark.parametrize("argv, error", [
    (["pmf", "--measure", "size", "--n", "129"], "n=129 exceeds the series cap 128"),
    (["pmf", "--measure", "size", "--n", "100000"], "n=100000 exceeds the series cap 128"),
    (["verify", "--suite", "identities", "--depth", "129"],
     "terms=129 exceeds the series depth cap 128"),
    (["verify", "--suite", "identities", "--depth", "100000"],
     "terms=100000 exceeds the series depth cap 128"),
])
def test_series_sizes_and_depths_above_the_cap_exit_2_before_any_output(capsys, argv, error):
    code, out, err = run(capsys, [*argv, "--p", "2"])
    assert (code, out, err) == (2, "", f"error: {error}\n")


def test_pmf_size_and_parts(capsys):
    code, out, _ = run(capsys, ["pmf", "--measure", "size", "--p", "2", "--n", "2"])
    assert code == 0
    assert json.loads(out[out.index("{"):])["rational"] == "5/12"
    code, out, _ = run(capsys, ["pmf", "--measure", "parts", "--p", "2", "--a", "2"])
    assert code == 0
    assert json.loads(out[out.index("{"):])["rational"] == "1/3"


def test_pmf_table_json_and_csv(capsys, tmp_path):
    out_path = tmp_path / "table.json"
    code, out, _ = run(capsys, ["pmf", "--measure", "cl", "--p", "2", "--max-size", "4",
                                "--output", str(out_path)])
    assert code == 0
    assert "table total + tail" in out
    doc = json.loads(out_path.read_text())
    assert doc["entries"][0]["partition"] == "[]"
    code, out, _ = run(capsys, ["pmf", "--measure", "cl", "--p", "2", "--max-size", "3",
                                "--format", "csv"])
    assert code == 0
    lines = [line for line in out.splitlines() if "," in line]
    assert lines[0] == "partition,midpoint,radius"


def test_output_manifest_and_byte_reproducibility(capsys, tmp_path):
    out_path = tmp_path / "run.json"
    argv = ["sample", "--p", "2", "--trials", "50", "--seed", "7", "--summary",
            "--output", str(out_path)]
    assert main(argv) == 0
    first = out_path.read_bytes()
    manifest = json.loads((tmp_path / "run.json.manifest.json").read_text())
    assert manifest["seed"] == 7 and manifest["params"]["seed"] == 7
    assert manifest["outputs"][str(out_path)] == hashlib.sha256(first).hexdigest()
    assert main(argv) == 0
    assert out_path.read_bytes() == first
    capsys.readouterr()


def test_manifest_round_trips_to_identical_bytes(capsys, tmp_path):
    out_path = tmp_path / "exp.json"
    argv = ["graphs", "--n", "7", "--q", "2/5", "--p", "2", "--trials", "25",
            "--seed", "11", "--output", str(out_path)]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "exp.json.manifest.json").read_text())
    first_digest = manifest["outputs"][str(out_path)]
    # rebuild the command line from the manifest alone and re-run
    params = manifest["params"]
    replay_path = tmp_path / "replay.json"
    replay = [manifest["command"]]
    for key in ("n", "q", "p", "trials", "seed", "cap", "method"):
        replay += [f"--{key}", str(params[key])]
    replay += ["--output", str(replay_path)]
    assert main(replay) == 0
    assert hashlib.sha256(replay_path.read_bytes()).hexdigest() == first_digest
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["pmf", "--measure", "cl", "--p", "3", "--max-size", "6"],
    ["pmf", "--measure", "deformed", "--u", "1/2", "--p", "2", "--max-size", "5",
     "--format", "csv"],
    ["sample", "--p", "2", "--trials", "40", "--seed", "3"],
    ["graphs", "--n", "6", "--q", "1/2", "--p", "2", "--trials", "10", "--seed", "2"],
])
def test_file_output_in_small_blocks_equals_stdout(capsys, monkeypatch, tmp_path, argv):
    code, expected, _ = run(capsys, argv)
    assert code == 0
    monkeypatch.setattr(cli, "BLOCK_BYTES", 64)
    out_path = tmp_path / "out"
    code, out, _ = run(capsys, argv + ["--output", str(out_path)])
    assert code == 0
    data = out_path.read_bytes()
    assert (out + data.decode()) == expected  # stdout: the constant lines, then the payload
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert manifest["outputs"] == {str(out_path): hashlib.sha256(data).hexdigest()}
    umask = os.umask(0)
    os.umask(umask)
    assert out_path.stat().st_mode & 0o777 == 0o666 & ~umask
    assert sorted(os.listdir(tmp_path)) == ["out", "out.manifest.json"]


def test_failed_write_leaves_earlier_outputs(capsys, monkeypatch, tmp_path):
    out_path = tmp_path / "table.json"
    argv = ["pmf", "--measure", "cl", "--p", "2", "--max-size", "6", "--output", str(out_path)]
    assert main(argv) == 0
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    dumps, blocks, written = cli._dumps, cli._blocks, []

    def broken(obj):
        chunks = dumps(obj)
        while len(written) < 5:  # 5 blocks are written before the failure
            yield next(chunks)
        raise RuntimeError("broken on purpose")

    def counted(chunks):
        for block in blocks(chunks):
            written.append(block)
            yield block

    monkeypatch.setattr(cli, "_dumps", broken)
    monkeypatch.setattr(cli, "_blocks", counted)
    monkeypatch.setattr(cli, "BLOCK_BYTES", 256)
    capsys.readouterr()
    code, _, err = run(capsys, argv)
    assert (code, err) == (3, "internal error: broken on purpose\n")
    assert len(written) == 5 and all(len(block) >= 256 for block in written)
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before


@pytest.mark.parametrize("output, directory, reason, left", [
    ("missing/out.json", None, "No such file or directory", []),
    # the payload's name is taken but its manifest's is not: neither is written
    ("x" * 255, None, "File name too long", []),
    ("x" * 256, None, "File name too long", []),  # neither name is taken
    ("out.json", "out.json", "Is a directory", ["out.json"]),
    # the payload is renamed into place before its manifest is written
    ("out.json", "out.json.manifest.json", "Is a directory", ["out.json", "out.json.manifest.json"]),
], ids=["missing-parent", "name-too-long", "name-past-the-limit", "output-is-a-directory",
        "manifest-is-a-directory"])
def test_an_unwritable_output_exits_2_with_one_line(capsys, tmp_path, output, directory, reason,
                                                    left):
    if directory:
        (tmp_path / directory).mkdir()
    code, _, err = run(capsys, ["pmf", "--measure", "cl", "--p", "2", "--max-size", "3",
                                "--output", str(tmp_path / output)])
    assert (code, err) == (2, f"error: cannot write {tmp_path / (directory or output)}: {reason}\n")
    assert sorted(os.listdir(tmp_path)) == left  # no temporary file is left


@pytest.mark.parametrize("argv", [
    ["pmf", "--measure", "cl", "--p", "2", "--max-size", "3"],
    ["pmf", "--measure", "cl", "--p", "2", "--partition", "[1,1]"],
    ["sample", "--p", "2", "--trials", "5", "--seed", "1"],
    ["graphs", "--n", "5", "--q", "1/2", "--p", "2", "--trials", "3", "--seed", "1"],
], ids=["pmf-max-size", "pmf-partition", "sample", "graphs"])
def test_an_empty_output_exits_2_and_prints_no_payload(capsys, monkeypatch, tmp_path, argv):
    (tmp_path / "file").mkdir()
    code, lines, _ = run(capsys, argv + ["--output", str(tmp_path / "file" / "out")])
    assert code == 0  # ``lines``: what stdout gets besides a payload
    (tmp_path / "empty").mkdir()
    monkeypatch.chdir(tmp_path / "empty")
    code, out, err = run(capsys, argv + ["--output", ""])
    assert (code, out, err) == (2, lines, "error: cannot write : No such file or directory\n")
    assert os.listdir(".") == []  # no temporary file is left


def test_a_long_output_name_gets_its_manifest(capsys, tmp_path):
    # 240 bytes, 254 with ".manifest.json": the temporary names are shorter
    out = tmp_path / ("x" * 240)
    code, _, err = run(capsys, ["pmf", "--measure", "cl", "--p", "2", "--max-size", "3",
                                "--output", str(out)])
    assert (code, err) == (0, "")
    assert sorted(os.listdir(tmp_path)) == [out.name, f"{out.name}.manifest.json"]
    manifest = json.loads((tmp_path / f"{out.name}.manifest.json").read_text())
    assert manifest["outputs"] == {str(out): hashlib.sha256(out.read_bytes()).hexdigest()}


WRITER_CASES = {
    **{f"{measure}-p{p}": (lambda p=p, measure=measure, kw=kw: tabulate(p, 7, measure, **kw))
       for p in (2, 3)
       for measure, kw in (("cl", {}), ("deformed", {"u": Fraction(1, 2)}),
                           ("truncated", {"r": 2}))},
    "one-entry": lambda: tabulate(2, 0),
    "sample-summary": lambda: empirical_distribution(SamplerConfig(p=3, seed=5), 300),
    # 8 of the 30 graphs disconnected, 6 capped
    "graphs": lambda: run_experiment(9, Fraction(1, 3), 2, 30, 3, cap=2),
    "graphs-all-disconnected": lambda: run_experiment(12, Fraction(1, 1000), 2, 3, 1),
}


@pytest.mark.parametrize("name", sorted(WRITER_CASES))
def test_dumps_of_a_table_equals_json_dumps_of_its_dict(name):
    table = WRITER_CASES[name]()
    expected = json.dumps(table.to_json_dict(), indent=2, sort_keys=True) + "\n"
    assert b"".join(cli._dumps(table)) == expected.encode()


def test_table_write_hashes_each_distinct_rational_at_most_once(capsys, monkeypatch, tmp_path):
    distinct = len(set(tabulate(3, 12).entries.values()))
    calls = 0

    def counted_hash(self, real=Fraction.__hash__):
        nonlocal calls
        calls += 1
        return real(self)

    monkeypatch.setattr(Fraction, "__hash__", counted_hash)
    code = main(["pmf", "--measure", "cl", "--p", "3", "--max-size", "12",
                 "--output", str(tmp_path / "table.json")])
    capsys.readouterr()
    assert code == 0
    assert calls <= distinct, (calls, distinct)


def test_table_output_memory_stays_below_its_size(capsys, tmp_path):
    out_path = tmp_path / "table.json"
    tracemalloc.start()
    try:
        code = main(["pmf", "--measure", "cl", "--p", "2", "--max-size", "20",
                     "--output", str(out_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    size = out_path.stat().st_size
    assert peak < 1.5 * size, (peak, size)


def test_sample_lines_deterministic(capsys):
    code, out1, _ = run(capsys, ["sample", "--p", "2", "--trials", "3", "--seed", "7"])
    assert code == 0
    code, out2, _ = run(capsys, ["sample", "--p", "2", "--trials", "3", "--seed", "7"])
    assert out1 == out2
    assert len(out1.strip().splitlines()) == 3
    for line in out1.strip().splitlines():
        assert line.startswith("[") and line.endswith("]")


def test_sample_lines_render_each_distinct_partition_once(capsys, monkeypatch):
    config = SamplerConfig(p=2, seed=7)
    expected = "".join(f"{lam}\n" for lam in sampler.sample_partitions(config, 2000))
    rendered = []
    real_str = Partition.__str__

    def counting_str(lam):
        rendered.append(lam)
        return real_str(lam)

    monkeypatch.setattr(Partition, "__str__", counting_str)
    code, out, _ = run(capsys, ["sample", "--p", "2", "--trials", "2000", "--seed", "7"])
    assert code == 0 and out == expected
    assert len(rendered) == len(set(rendered)) == len(set(out.splitlines())) < 2000


def test_sample_rejects_bad_p(capsys):
    code, _, err = run(capsys, ["sample", "--p", "1", "--trials", "1", "--seed", "0"])
    assert code == 2
    assert "prime" in err or ">= 2" in err


def test_sample_summary_counts(capsys):
    code, out, _ = run(capsys, ["sample", "--p", "3", "--trials", "40", "--seed", "1",
                                "--summary"])
    assert code == 0
    doc = json.loads(out)
    assert sum(row["count"] for row in doc["entries"]) == 40


@pytest.mark.parametrize("argv, build", [
    (["sample", "--p", "3", "--trials", "300", "--seed", "5", "--summary"],
     lambda: empirical_distribution(SamplerConfig(p=3, seed=5), 300)),
    (["graphs", "--n", "9", "--q", "1/3", "--p", "2", "--trials", "30", "--seed", "3",
      "--cap", "2"],
     lambda: run_experiment(9, Fraction(1, 3), 2, 30, 3, cap=2).distribution),
])
def test_empirical_outputs_list_partitions_in_canonical_order(capsys, argv, build):
    code, out, _ = run(capsys, argv)
    assert code == 0
    in_json = [Partition.from_string(row["partition"]) for row in json.loads(out)["entries"]]
    in_csv = [Partition.from_string(row[0]) for row in build().to_csv_rows()[1:]]
    assert len(in_json) > 3
    assert in_json == in_csv == sorted(in_json, key=Partition.sort_key)


@pytest.mark.parametrize("name, error", [("sample_partition", RuntimeError),
                                         ("kernel_row", ArithmeticError)])
@pytest.mark.parametrize("mode", [[], ["--summary"]])
def test_internal_error_exits_3_with_one_line(capsys, monkeypatch, name, error, mode):
    def broken(*args):
        raise error("broken on purpose")

    monkeypatch.setattr(sampler, name, broken)
    code, out, err = run(capsys, ["sample", "--p", "2", "--trials", "5", "--seed", "1", *mode])
    assert code == 3 and out == ""
    assert err == "internal error: broken on purpose\n"


@pytest.mark.parametrize("mode", [[], ["--summary"]])
def test_runaway_chain_on_the_block_route_exits_3(capsys, monkeypatch, mode):
    # every kernel row keeps its height, so each chain that starts above 0 runs
    # past the column cap after its block draws
    monkeypatch.setattr(sampler, "kernel_row", lambda a, p: (0,) * a + (2**64,))
    assert sampler._block_route()
    code, out, err = run(capsys, ["sample", "--p", "2", "--trials", "5", "--seed", "1", *mode])
    assert code == 3 and out == ""
    assert err == f"internal error: column count exceeded {sampler.MAX_COLUMNS}; aborting\n"


def test_sample_requires_seed(capsys):
    code, _, _ = run(capsys, ["sample", "--p", "2", "--trials", "1"])
    assert code == 2


def test_graphs_command(capsys, tmp_path):
    out_path = tmp_path / "exp.json"
    code, _, _ = run(capsys, ["graphs", "--n", "8", "--q", "1/2", "--p", "2",
                              "--trials", "30", "--seed", "3", "--output", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert "discarded_disconnected" in doc and "capped" in doc
    assert sum(row["count"] for row in doc["entries"]) + doc["discarded_disconnected"] == 30


def test_graphs_domain_errors(capsys):
    code, _, _ = run(capsys, ["graphs", "--n", "1", "--q", "1/2", "--p", "2",
                              "--trials", "1", "--seed", "0"])
    assert code == 2
    code, _, _ = run(capsys, ["graphs", "--n", "6", "--q", "1", "--p", "2",
                              "--trials", "1", "--seed", "0"])
    assert code == 2
    code, _, _ = run(capsys, ["graphs", "--n", "6", "--q", "0", "--p", "2",
                              "--trials", "1", "--seed", "0"])
    assert code == 2


GRAPHS = ["graphs", "--n", "6", "--q", "1/2", "--p", "2", "--trials", "3"]
SAMPLE = ["sample", "--p", "2", "--trials", "3"]


@pytest.mark.parametrize("argv, error", [
    ([*SAMPLE, "--seed=-1"], "seed must lie in [0, 2^64), got -1"),
    ([*SAMPLE, "--seed", str(2**64)], f"seed must lie in [0, 2^64), got {2**64}"),
    ([*GRAPHS, "--seed=-1"], "seed must lie in [0, 2^64), got -1"),
    ([*GRAPHS, "--seed", str(2**64)], f"seed must lie in [0, 2^64), got {2**64}"),
    ([*GRAPHS, "--seed", "1", "--n", "501"], "n=501 exceeds the vertex cap 500"),
    ([*GRAPHS, "--seed", "1", "--n", "1000000"], "n=1000000 exceeds the vertex cap 500"),
    ([*GRAPHS, "--seed", "1", "--cap", "65"], "cap=65 exceeds the valuation cap 64"),
    ([*GRAPHS, "--seed", "1", "--n", "101", "--method", "snf"], "n=101 exceeds the SNF vertex cap 100"),
])
def test_out_of_range_graph_and_seed_arguments_exit_2_before_any_output(capsys, argv, error):
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", f"error: {error}\n")


def test_verify_suites_pass(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "recursions", "--p", "2,3", "--a-max", "8"])
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    code, out, _ = run(capsys, ["verify", "--suite", "chain", "--p", "2", "--a-max", "8"])
    assert code == 0
    assert out.count("PASS") == 3
    code, out, _ = run(capsys, ["verify", "--suite", "identities", "--p", "2", "--depth", "6"])
    assert code == 0
    assert "FAIL" not in out


@pytest.mark.parametrize("suite, module, name, broken, first_line", [
    ("recursions", measures, "_parts_recursion_kernel_form",
     lambda p, a_max: [Fraction(1)] * (a_max + 1),
     "FAIL parts-recursions-vs-closed-form p=2 a<=4: parts recursions disagree at p=2: "
     "[Fraction(1, 1), Fraction(1, 1), Fraction(1, 3)"),
    ("chain", sampler, "kernel_numerators",
     lambda a, p, real=sampler.kernel_numerators: tuple(2 * k for k in real(a, p)),
     "FAIL kernel-row-sums p=2 a<=4: kernel row a=0, p=2 sums to 2, not 1"),
    ("recursions", measures, "kernel_numerators",
     lambda a, p, real=measures.kernel_numerators: tuple(2 * k for k in real(a, p)),
     "FAIL parts-recursions-vs-closed-form p=2 a<=4: parts recursions disagree at p=2: "
     "the kernel form leaves a remainder at a=2"),
], ids=["recursions", "chain", "recursions-kernel"])
def test_verify_prints_a_disagreement_as_fail(capsys, monkeypatch, suite, module, name, broken,
                                              first_line):
    # two exact routes that disagree are a FAIL line and exit 1, not exit 3
    sampler.kernel_row.cache_clear()
    monkeypatch.setattr(module, name, broken)
    try:
        code, out, err = run(capsys, ["verify", "--suite", suite, "--p", "2", "--a-max", "4"])
    finally:
        sampler.kernel_row.cache_clear()
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith(first_line)
    assert [line.split()[0] for line in lines[1:-1]] == ["PASS"] * (len(lines) - 2)
    assert lines[-1] == "1 check(s) FAILED"


def test_one_kernel_numerator_off_fails_each_chain_check_that_reads_it(capsys, monkeypatch):
    # K(2, 0)'s numerator one too large wherever it is read: FAIL lines and
    # exit 1, not the internal error's exit 3
    real = qseries.kernel_numerators

    def one_off(a, p):
        row = real(a, p)
        return (row[0] + 1, *row[1:]) if a == 2 else row

    for module in (cli, measures, sampler):
        monkeypatch.setattr(module, "kernel_numerators", one_off)
    sampler.kernel_row.cache_clear()
    try:
        code, out, err = run(capsys, ["verify", "--suite", "chain", "--p", "2", "--a-max", "4"])
    finally:
        sampler.kernel_row.cache_clear()
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "FAIL kernel-row-sums p=2 a<=4: kernel row a=2, p=2 sums to 9/8, not 1",
        "FAIL kernel-ratio-identity p=2 a<=4: "
        "P(b) / (p^binom(a+1,2) P(a) (1/p^2)_floor((a-b)/2)) = K(a,b) exactly",
        "FAIL initial-column-distribution p=2: parts recursions disagree at p=2: "
        "the kernel form leaves a remainder at a=2",
        "3 check(s) FAILED",
    ]


def test_one_kernel_numerator_off_fails_the_series_checks(capsys, monkeypatch):
    # K(2, 0)'s numerator one too large in the series DP: every check that
    # reads its table fails, while the Euler and q-binomial checks still pass
    real = qseries.kernel_numerators

    def one_off(a, p):
        row = real(a, p)
        return (row[0] + 1, *row[1:]) if a == 2 else row

    monkeypatch.setattr(measures, "kernel_numerators", one_off)
    measures.size_length_layers.cache_clear()
    try:
        code, out, err = run(capsys, ["verify", "--suite", "identities", "--p", "2", "--depth", "6"])
    finally:
        measures.size_length_layers.cache_clear()  # drop the table built on the bad row
    assert (code, err) == (1, "")
    lines = out.splitlines()
    failed = [line.split(":")[0] for line in lines if line.startswith("FAIL")]
    assert failed == ["FAIL deformed-series p=2 u=1/2", "FAIL truncated-series p=2 r=2",
                      "FAIL truncated-series p=2 r=3", "FAIL truncated-series p=2 r=4",
                      "FAIL truncated-series p=2 r=5", "FAIL normalization p=2 max_size=6"]
    assert lines[-1] == "6 check(s) FAILED"


@pytest.mark.parametrize("height", [5, 8])
def test_chain_suite_fails_a_wrong_retained_mass(capsys, monkeypatch, height):
    # pmf_parts wrong past a_max = 4, wherever the suite and the sampler read
    # it: the kernel checks stop at a_max, the retained masses go to height 8
    real = measures.pmf_parts

    def one_mass_off(a, p):
        mass = real(a, p)
        if a == height:
            mass = MassValue(mass.rational * Fraction(1001, 1000), mass.constant)
        return mass

    monkeypatch.setattr(cli, "pmf_parts", one_mass_off)
    monkeypatch.setattr(sampler, "pmf_parts", one_mass_off)
    code, out, err = run(capsys, ["verify", "--suite", "chain", "--p", "2", "--a-max", "4"])
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == ["PASS", "PASS", "FAIL"]
    assert lines[2] == ("FAIL initial-column-distribution p=2: "
                        "9 heights retained, tail below 1/1000000000000")
    assert lines[-1] == "1 check(s) FAILED"


def test_identity_suite_enumerates_no_partition(capsys, monkeypatch):
    import clpart.cli
    import clpart.measures

    def refuse(*args, **kwargs):
        raise AssertionError("the identity suite enumerated partitions")

    monkeypatch.setattr(clpart.cli, "tabulate", refuse)
    monkeypatch.setattr(clpart.measures, "enumerate_partitions", refuse)
    code, out, _ = run(capsys, ["verify", "--suite", "identities", "--p", "2,3", "--depth", "30"])
    assert code == 0
    assert out.splitlines()[-1] == "all checks passed"


def test_identity_suite_builds_one_series_table_per_prime(capsys):
    # the normalization check at size 30 reads the series checks' table at 40
    measures.size_length_layers.cache_clear()
    code, out, _ = run(capsys, ["verify", "--suite", "identities", "--p", "3,7", "--depth", "40"])
    assert (code, out.splitlines()[-1]) == (0, "all checks passed")
    assert measures.size_length_layers.cache_info().misses == 2


def test_verify_domain_errors(capsys):
    code, _, _ = run(capsys, ["verify", "--suite", "identities", "--depth", "0"])
    assert code == 2
    code, _, _ = run(capsys, ["verify", "--suite", "identities", "--p", "2,x"])
    assert code == 2
    code, out, err = run(capsys, ["verify", "--suite", "identities", "--p", ","])
    assert (code, out, err) == (2, "", "error: empty prime list\n")
    code, out, err = run(capsys, ["verify", "--suite", "chain", "--p", "2,4"])
    assert code == 2 and out == ""
    assert "prime" in err and "parse" not in err
    code, _, _ = run(capsys, ["verify", "--suite", "bogus"])
    assert code == 2


def test_run_checks_exit_codes(capsys):
    assert _run_checks([("ok", True, "fine")]) == 0
    assert _run_checks([("ok", True, "fine"), ("bad", False, "broken")]) == 1
    out = capsys.readouterr().out
    assert "FAIL bad: broken" in out


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_cold_start_imports_and_output_modules(tmp_path):
    # python -S keeps the host's site (a .pth file may preload typing) out
    script = """
import sys
sys.path.insert(0, sys.argv[1])
from clpart.cli import main
loaded = lambda *names: [name for name in names if name in sys.modules]
seen = [loaded("dataclasses", "inspect", "typing", "threading")]
assert main(["verify", "--suite", "chain", "--p", "2", "--a-max", "5"]) == 0
seen.append(loaded("hashlib", "json", "threading"))
assert main(["pmf", "--measure", "cl", "--p", "2", "--max-size", "4", "--output", sys.argv[2]]) == 0
seen.append(loaded("hashlib", "json"))
print(seen)
"""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-S", "-c", script, src, str(tmp_path / "t.json")],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "[[], [], ['hashlib', 'json']]"


# ---------------------------------------------------------------- the process's own command line

CLI_MAIN = "import sys; from clpart.cli import main; sys.exit(main())"
SRC = os.path.dirname(os.path.dirname(cli.__file__))
# stdout is block-buffered into a pipe or file unless PYTHONUNBUFFERED is set,
# so the exit's flush is seen only without it
BUFFERED = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
# exit code -> (argv, patch): a patch (name, expression) replaces sampler.<name>
# by the expression's value, in which ``sampler`` is the module
EXIT_CASES = {
    0: (["pmf", "--measure", "cl", "--p", "2", "--max-size", "6"], None),
    1: (["verify", "--suite", "chain", "--p", "2", "--a-max", "4"],
        ("kernel_numerators",
         "lambda a, p, real=sampler.kernel_numerators: tuple(2 * k for k in real(a, p))")),
    2: (["pmf", "--measure", "cl", "--p", "4", "--partition", "[1]"], None),
    3: (["sample", "--p", "2", "--trials", "5", "--seed", "1"],
        ("kernel_row", "lambda a, p: (0,) * a + (2**64,)")),
}


def run_process(argv, patch=None, unbuffered=False, **kwargs):
    """The finished subprocess that runs ``main()`` on ``argv`` as its command line."""
    prelude = "from clpart import sampler; sampler.%s = %s; " % patch if patch else ""
    env = dict(BUFFERED, PYTHONPATH=SRC, **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    return subprocess.run([sys.executable, "-c", prelude + CLI_MAIN, *argv], env=env, **kwargs)


@pytest.mark.parametrize("code", sorted(EXIT_CASES))
@pytest.mark.parametrize("through", ["pipe", "file"])
def test_the_process_exits_with_the_code_and_bytes_main_returns(capsysbinary, monkeypatch,
                                                                tmp_path, code, through):
    argv, patch = EXIT_CASES[code]
    rows = sampler.kernel_row  # its cache would keep the rows of patched numerators
    if patch:
        name, expr = patch
        monkeypatch.setattr(sampler, name, eval(expr, {"sampler": sampler}))
    rows.cache_clear()
    try:
        assert main(argv) == code
    finally:
        rows.cache_clear()
    expected = capsysbinary.readouterr()
    assert expected.out if code < 2 else expected.err
    if through == "pipe":
        proc = run_process(argv, patch, capture_output=True)
        out, err = proc.stdout, proc.stderr
    else:
        with open(tmp_path / "out", "wb") as fh_out, open(tmp_path / "err", "wb") as fh_err:
            proc = run_process(argv, patch, stdout=fh_out, stderr=fh_err)
        out, err = (tmp_path / "out").read_bytes(), (tmp_path / "err").read_bytes()
    assert (proc.returncode, out, err) == (code, expected.out, expected.err)


@pytest.mark.parametrize("argv", [
    ["pmf", "--measure", "cl", "--p", "2", "--max-size", "6"],
    ["graphs", "--n", "8", "--q", "1/2", "--p", "2", "--trials", "30", "--seed", "3"],
])
def test_the_process_leaves_the_output_and_its_manifest(capsys, tmp_path, argv):
    assert main([*argv, "--output", str(tmp_path / "in-process.json")]) == 0
    capsys.readouterr()
    path = tmp_path / "process.json"
    proc = run_process([*argv, "--output", str(path)], capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, b"")
    payload = path.read_bytes()
    assert payload == (tmp_path / "in-process.json").read_bytes()
    manifest = json.loads((tmp_path / "process.json.manifest.json").read_text())
    assert manifest["outputs"] == {str(path): hashlib.sha256(payload).hexdigest()}


@pytest.mark.parametrize("argv", [
    ["pmf", "--measure", "cl", "--p", "2", "--max-size", "8"],  # fails in the command's own flush
    # buffered, fails in the flush before the exit; unbuffered, in its first print
    ["verify", "--suite", "chain", "--p", "2", "--a-max", "5"],
])
@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_stdout_exits_2_with_one_line(argv, unbuffered):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_process(argv, unbuffered=unbuffered, stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (2, b"error: cannot write stdout: Broken pipe\n")


def test_a_closed_stdout_in_process_returns_2(capsys, monkeypatch):
    class Closed:
        def write(self, data):
            raise BrokenPipeError(32, "Broken pipe")

        flush = write

    monkeypatch.setattr(sys, "stdout", Closed())
    assert main(["verify", "--suite", "chain", "--p", "2", "--a-max", "5"]) == 2
    assert capsys.readouterr().err == "error: cannot write stdout: Broken pipe\n"


def test_a_full_stdout_in_process_returns_2(capsys, monkeypatch):
    class Full:
        def write(self, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        flush = write

    monkeypatch.setattr(sys, "stdout", Full())
    assert main(["verify", "--suite", "chain", "--p", "2", "--a-max", "5"]) == 2
    assert capsys.readouterr().err == "error: cannot write stdout: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "chain", "--p", "2", "--a-max", "5"],
    ["pmf", "--measure", "cl", "--p", "2", "--partition", "[2,1]"],
    ["pmf", "--measure", "cl", "--p", "2", "--max-size", "6"],
    ["sample", "--p", "2", "--trials", "10", "--seed", "1"],
])
@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_full_stdout_exits_2_with_one_line(argv, unbuffered):
    with open("/dev/full", "wb") as full:
        proc = run_process(argv, unbuffered=unbuffered, stdout=full, stderr=subprocess.PIPE)
    assert proc.returncode == 2
    assert proc.stderr == b"error: cannot write stdout: No space left on device\n"


def test_main_with_an_argv_list_returns_in_the_process():
    script = ("import sys; from clpart.cli import main; "
              "codes = [main(['verify', '--suite', 'chain', '--p', '2', '--a-max', '5']), "
              "main(['pmf', '--measure', 'cl', '--p', '4', '--partition', '[1]'])]; "
              "print('returned', codes)")
    proc = subprocess.run([sys.executable, "-c", script], env=dict(BUFFERED, PYTHONPATH=SRC),
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "returned [0, 2]"


def test_an_exception_main_does_not_catch_gives_a_traceback():
    proc = run_process(["sample", "--p", "2", "--trials", "5", "--seed", "1"],
                       ("kernel_row", "lambda a: a"),  # a TypeError
                       capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("Traceback") and "TypeError" in proc.stderr
