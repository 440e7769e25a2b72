"""Golden output bytes: small CLI runs must reproduce recorded sha256 digests.

Each case runs ``clpart.cli.main`` in-process and digests its stdout and,
for commands that write a file, the payload file (never the manifest, whose
bytes contain the output path).  The digests were recorded once and must not
change: any refactor of the measure, sampler or graph code has to leave
every output byte as it was.
"""

import hashlib

import pytest

from clpart.cli import main

PMF = ["pmf", "--p", "3"]
TABLE = ["pmf", "--p", "3", "--max-size", "8"]

CASES = {
    "pmf-cl": PMF + ["--measure", "cl", "--partition", "[3,2,2,1,1,1]"],
    "pmf-cl-conjugate": PMF + ["--measure", "cl-conjugate", "--partition", "[3,2,2,1,1,1]"],
    "pmf-deformed": PMF + ["--measure", "deformed", "--u", "1/2", "--partition", "[3,2,2,1,1,1]"],
    "pmf-truncated": PMF + ["--measure", "truncated", "--r", "2", "--partition", "[4,4]"],
    "pmf-size": PMF + ["--measure", "size", "--n", "5"],
    "pmf-parts": PMF + ["--measure", "parts", "--a", "3"],
    "table-cl-json": TABLE + ["--measure", "cl"],
    "table-cl-csv": TABLE + ["--measure", "cl", "--format", "csv"],
    "table-cl-json-p2": ["pmf", "--measure", "cl", "--p", "2", "--max-size", "12"],
    # larger tables: many partitions share one mass, and long runs of equal parts
    "table-cl-json-p2-size20": ["pmf", "--measure", "cl", "--p", "2", "--max-size", "20"],
    "table-truncated-json-p2-r3": ["pmf", "--measure", "truncated", "--p", "2", "--r", "3",
                                   "--max-size", "14"],
    "table-deformed-json-p5": ["pmf", "--measure", "deformed", "--p", "5", "--u", "3/2",
                               "--max-size", "10"],
    "table-deformed-json": TABLE + ["--measure", "deformed", "--u", "1/2"],
    "table-deformed-csv": TABLE + ["--measure", "deformed", "--u", "1/2", "--format", "csv"],
    "table-truncated-json": TABLE + ["--measure", "truncated", "--r", "2"],
    "table-truncated-csv": TABLE + ["--measure", "truncated", "--r", "2", "--format", "csv"],
    "sample-lines": ["sample", "--p", "2", "--trials", "200", "--seed", "5"],
    "sample-summary": ["sample", "--p", "3", "--trials", "300", "--seed", "5", "--summary"],
    "graphs-plocal": ["graphs", "--n", "9", "--q", "1/2", "--p", "2", "--trials", "30",
                      "--seed", "4", "--method", "plocal"],
    # q so small that every graph is disconnected: "entries": []
    "graphs-all-disconnected": ["graphs", "--n", "12", "--q", "1/1000", "--p", "2", "--trials", "3",
                                "--seed", "1"],
    # benchmark scale at p = 2
    "graphs-plocal-n40-p2": ["graphs", "--n", "40", "--q", "1/2", "--p", "2", "--trials", "40",
                             "--seed", "9"],
    # p = 2 at the cap: 16 capped trials, [2,1] and [2,2] in the support
    "graphs-plocal-n40-p2-capped": ["graphs", "--n", "40", "--q", "1/2", "--p", "2", "--trials", "60",
                                    "--seed", "7", "--cap", "2"],
    "graphs-plocal-n100-p2": ["graphs", "--n", "100", "--q", "1/2", "--p", "2", "--trials", "12",
                              "--seed", "3"],
    # dense graphs with a large corank, at p = 2 (the Schur route) and p = 3
    "graphs-plocal-n40-dense-p2": ["graphs", "--n", "40", "--q", "9/10", "--p", "2", "--trials", "20",
                                   "--seed", "1"],
    "graphs-plocal-n40-dense-p3": ["graphs", "--n", "40", "--q", "9/10", "--p", "3", "--trials", "20",
                                   "--seed", "1"],
    # 2 of 20 trials disconnected; the 1770 edge draws span two blocks of packed draws
    "graphs-plocal-n60-sparse-p2": ["graphs", "--n", "60", "--q", "1/10", "--p", "2", "--trials", "20",
                                    "--seed", "8"],
    # the smallest rows: 3 draws per trial, 43 of 50 trials disconnected
    "graphs-plocal-n3-p2": ["graphs", "--n", "3", "--q", "1/3", "--p", "2", "--trials", "50",
                            "--seed", "2"],
    "graphs-snf": ["graphs", "--n", "9", "--q", "1/2", "--p", "3", "--trials", "30",
                   "--seed", "4", "--method", "snf"],
    # benchmark scale: 7 of the 60 trials hit the cap
    "graphs-plocal-n40-capped": ["graphs", "--n", "40", "--q", "1/2", "--p", "3", "--trials", "60",
                                 "--seed", "7", "--cap", "2"],
    "verify-identities": ["verify", "--suite", "identities", "--p", "2,3", "--depth", "8"],
    "verify-identities-bench": ["verify", "--suite", "identities", "--p", "2,3", "--depth", "30"],
    "verify-identities-deep": ["verify", "--suite", "identities", "--p", "2,5", "--depth", "45"],
    "verify-recursions": ["verify", "--suite", "recursions", "--p", "2,5", "--a-max", "6"],
    "verify-chain": ["verify", "--suite", "chain", "--p", "3", "--a-max", "6"],
    # the parts cap MAX_PARTS = 64 at four primes
    "verify-recursions-cap": ["verify", "--suite", "recursions", "--p", "2,3,5,7", "--a-max", "64"],
    # benchmark scale
    "verify-chain-bench": ["verify", "--suite", "chain", "--p", "2,3", "--a-max", "30"],
    # the series layers at N = 40 for two primes above 2
    "verify-identities-p3-p7": ["verify", "--suite", "identities", "--p", "3,7", "--depth", "40"],
}

# name -> (stdout sha256, payload sha256 or None for commands without --output)
GOLDEN = {
    "graphs-all-disconnected": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "d21f8e6444435688346726ec39659f61b35db4f60746026ad1228387238ef4c9"),
    "graphs-plocal": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "3cc6ec3bbed55bbe03b6c611adaa37ebc5dc9a8d337719a04b1ee91ee2f2e6a8"),
    "graphs-plocal-n3-p2": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ebe7b4dcbe335b811e8ebf9ce68745433336d8e0f5e5ac5e56c4a6137d3d6e4c"),
    "graphs-plocal-n40-capped": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "bd7d93c5815f1f020ee053b0470892f0b6e2caaa2c536a4d79f7aa98e18aed05"),
    "graphs-plocal-n40-dense-p2": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "0b97d5e9d198744faed674dac3af6f5153663fdc10e50b75185fe706affab952"),
    "graphs-plocal-n40-dense-p3": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "a87a6443c2bfc265675040f9c21f200b6a735927892b1221538c2bbb3aacfbfb"),
    "graphs-plocal-n40-p2": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ed90ff136490bae324a47fa6ea6f1c0d2103bb91d352a9c4e0852747a1dcd8d0"),
    "graphs-plocal-n40-p2-capped": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "4675a888b64fc41ce41ab6d9fb774a1103e8e87284de5a5123579fc77f189121"),
    "graphs-plocal-n100-p2": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "f90cf93867b14139f79fb36b5ee07cf1976607c10e87972d6e90667d92ab82a8"),
    "graphs-plocal-n60-sparse-p2": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "a84863b43ac4341c26e7c76c8cbc48c30dc6d163ada5c73bef0676b0d2bdaadb"),
    "graphs-snf": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "5c8e69493f7cac97d949ba521a170c94a07fd5c25d926d371dbe6b1647ca7e84"),
    "pmf-cl": ("b8ac65bcd97afc2a07ec5bce069873518589a809815b9b0521898f2143f6888d",
        "eb56daa5f4041c822f50f009d4fd857953ff98eb9d50c5e5884594c5e67ac11b"),
    "pmf-cl-conjugate": ("b8ac65bcd97afc2a07ec5bce069873518589a809815b9b0521898f2143f6888d",
        "5b79b9af50ef248b650f27e01f3898f88bcada3082b511ad2605fe6ce96e12c0"),
    "pmf-deformed": ("82ed9212ab80dff51353978aabdef969adb0aabd89b08adb47fc755e60085b6b",
        "7e3724de9723528b6bf206e6e065ea8f01a41c98f0653c10bbb6346ced5f1056"),
    "pmf-parts": ("b8ac65bcd97afc2a07ec5bce069873518589a809815b9b0521898f2143f6888d",
        "5a92453f73a535ae1965d27e0c4a0e436a764e3430cd2a437136e8f050e51d95"),
    "pmf-size": ("b8ac65bcd97afc2a07ec5bce069873518589a809815b9b0521898f2143f6888d",
        "ffde7299b282b4043a97086a498d2923ea03973ee1300dad84fbd75926289f7f"),
    "pmf-truncated": ("c227c8c5b30030f220d86734f30ee25cc9256f7710782cc4e7b5a42c7f36326c",
        "cb64994f8c73744ce93cd45cedc6dc6f351959ca1f6acc32c0ff1f9a4f997c54"),
    "sample-lines": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "af84c61e58444af216e23d7fa67ba870c84056ec5c7c5b48d8ed875e6e29c524"),
    "sample-summary": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "c36281c38ac8f6d7d8d2152229cd41a99e27bf17b2120970d83e830690f01753"),
    "table-cl-csv": ("de3dedee8e2bd8d8abfb8babfda3a644e7a11797df6f52c9662b007a3a72d898",
        "bdda18732e1a056d265441b1f52dea4166ef646bdc2a8efe14f078187af0a159"),
    "table-cl-json": ("de3dedee8e2bd8d8abfb8babfda3a644e7a11797df6f52c9662b007a3a72d898",
        "2c420ed2805405f2cd3342383f70ac2bc465db812c7e6cb7c3f895d5d062dc43"),
    "table-cl-json-p2": ("e6a31354e06e43de0e160bf33c51e1a37a8b594fea4ae565432ccaff7bb9410a",
        "caedd7967c5aa7f2bf37d8adc75dbcc317737a7fef97f47150942bb663bbb8d9"),
    "table-cl-json-p2-size20": ("40d0ae739d4b6dd9a5220efe6c7d7a435c2fac7e5683ae96e394039f597b588f",
        "7dac511ad2d2ea4d7d3e8665b61554202c7e866e7dca43750aedf646626ea7c7"),
    "table-deformed-csv": ("c8ff72931290d36b996db863f3c72805ed5da6a7a7d94a0cb08bc10e2c691ec7",
        "48137d1b73f4d60e1122da8a9af1659cd79828340d4a2eec70a047103034e292"),
    "table-deformed-json": ("c8ff72931290d36b996db863f3c72805ed5da6a7a7d94a0cb08bc10e2c691ec7",
        "a6ae72bdc7d5b7e7a263f54f8065f662ed0bba5ee67d262e37ecdef49dce6442"),
    "table-deformed-json-p5": ("1ed898ee82441ed016560cc19f0c77bcc6141361f1bed77fc8270ad387e64e53",
        "20556cdce1a74a12ef3d0159778660728e2b91fb8d792dcaebdddbf86fcdae2b"),
    "table-truncated-csv": ("bd4844296a9a8403d4345d5b0cab5b78acf3fd196c85cd158d701cec723dcdaa",
        "b5e842b6bb0d5365b2df94dff5af6029d489a8acc19e564ab5e3f0c1bf630176"),
    "table-truncated-json": ("bd4844296a9a8403d4345d5b0cab5b78acf3fd196c85cd158d701cec723dcdaa",
        "13d9d5d38832ba2c32a85e541cb9fa10e1d0f99efdc657840b8ff494152a542a"),
    "table-truncated-json-p2-r3": ("18a0679f27281626ef54f4de53eeb1a3a93f585f3ce31bdcf8761270f220a31a",
        "4e16150ec6b23c572af730fb42d392b56133d5439b99ba2e7049a2b8497ab3ac"),
    "verify-chain": ("f3e3389fcfbe8c2e0d89b6e29530bcf38a16277376f1d79c98e65a5e8c70b4a9",
        None),
    "verify-chain-bench": ("8e8fe2b97921742639782f9f3eb97aee779aab03b039de05ade2521aa48b419c",
        None),
    "verify-identities": ("d6bf11822a5f67320d227183eb8b9b404bea6b93a3a4381c17fd6bec67d68229",
        None),
    "verify-identities-bench": ("12de770ff5c5dc0b63dcd1e0dfd901933e3eb6d205dcf32a411398a3c6c9214f",
        None),
    "verify-identities-deep": ("994463e7ea2b4f633e84e834c0461eb78db233bf5e87c76b0b12078f74c1aa83",
        None),
    "verify-identities-p3-p7": ("eaa8d2c54eb3942027db4f38e54297a02c21ff5023bb89d4bae0e53d57945749",
        None),
    "verify-recursions": ("12f4be07331dd247115ae2227bf5b11732544f17c751e47da2c0637ba0827f89",
        None),
    "verify-recursions-cap": ("980031d46d20be8d7930d2f4371754161a6d7e8bf494bcac2ca990b937dca47e",
        None),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv, tmp_path, capsysbinary):
    """Exit code, stdout digest and payload digest (None for verify) of one run."""
    payload = None
    if argv[0] != "verify":
        payload = tmp_path / "out"
        argv = argv + ["--output", str(payload)]
    code = main(argv)
    out = capsysbinary.readouterr().out
    return code, _digest(out), _digest(payload.read_bytes()) if payload else None


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output_bytes(name, tmp_path, capsysbinary):
    code, out_digest, payload_digest = run_case(CASES[name], tmp_path, capsysbinary)
    assert code == 0
    assert (out_digest, payload_digest) == GOLDEN[name]
