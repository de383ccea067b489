"""Golden reports: the stdout and `--json` bytes of every command, over a
fixed matrix of specs, literals and seeds, pinned by their sha256.

A refactor that keeps behaviour keeps these digests.  A change that means
to alter a report updates the digest and says why in CHANGES.md.  To print
the current digests: `PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import io
import json
import os
import tempfile
from contextlib import redirect_stdout

import pytest

from tclass.cli import main

ZHALF = {"Zloc": [2]}
ZTHIRD = {"Zloc": [3]}


def _cut(level, boundary, side):
    return {"level": level, "boundary": boundary, "side": side}


# name -> (spec, canonical literal, non-canonical literal, verify samples)
SPECS = {
    "valuation:Z,Q": (
        {"kind": "valuation", "group": ["Z", "Q"]},
        _cut(2, ["1", "1/3"], "open"),
        _cut(2, ["1/2", "0"], "closed"),
        10,
    ),
    "valuation:Z[1/2]": (
        {"kind": "valuation", "group": [ZHALF]},
        _cut(1, ["1/3"], "open"),
        _cut(1, ["10/6"], "closed"),
        10,
    ),
    "valuation:Q,Z,Z[1/2]": (
        {"kind": "valuation", "group": ["Q", "Z", ZHALF]},
        _cut(3, ["1/2", "1", "1/3"], "open"),
        _cut(3, ["0", "1/2", "1"], "closed"),
        10,
    ),
    "pruefer:Q": (
        {"kind": "pruefer_fc", "valuations": [["Q"]]},
        {"cuts": [_cut(1, ["0"], "open")]},
        {"cuts": [_cut(1, ["4/2"], "closed")]},
        3,
    ),
    "pruefer:Z[1/2]|Z": (
        {"kind": "pruefer_fc", "valuations": [[ZHALF], ["Z"]]},
        {"cuts": [_cut(1, ["1/3"], "open"), _cut(1, ["2"], "closed")]},
        {"cuts": [_cut(1, ["1/3"], "closed"), _cut(1, ["1/2"], "open")]},
        3,
    ),
    "pruefer:Z|Z,Z[1/3]|Q": (
        {"kind": "pruefer_fc", "valuations": [["Z"], ["Z", ZTHIRD], ["Q"]]},
        {"cuts": [_cut(1, ["0"], "closed"), _cut(2, ["1", "1/2"], "open"),
                  _cut(1, ["1/4"], "closed")]},
        {"cuts": [_cut(1, ["-1/2"], "open"), _cut(2, ["1/2", "1"], "closed"),
                  _cut(1, ["3/3"], "open")]},
        2,
    ),
    "poly_ext:Z,Q": (
        {"kind": "poly_ext", "base": ["Z", "Q"]},
        {"coeff": _cut(2, ["1", "1/3"], "open")},
        {"coeff": _cut(2, ["1/2", "5"], "closed")},
        10,
    ),
    "poly_ext:Z,Z": (
        {"kind": "poly_ext", "base": ["Z", "Z"]},
        {"coeff": _cut(2, ["1", "-1"], "closed")},
        {"coeff": _cut(2, ["1", "1/2"], "open")},
        10,
    ),
    "poly_ext:Z[1/3]": (
        {"kind": "poly_ext", "base": [ZTHIRD]},
        {"coeff": _cut(1, ["1/2"], "open")},
        {"coeff": _cut(1, ["3/9"], "open")},
        10,
    ),
}

C3_TABLE = "3\n2 0 1\n0 1 2\n1 2 0\n"
BROKEN_TABLE = "2\n0 0\n1 1\n"


def _cases():
    out = {}
    for name, (spec, canon, raw, samples) in SPECS.items():
        s = json.dumps(spec)
        out[f"classify {name} canonical"] = ["classify", s, "--ideal", json.dumps(canon)]
        out[f"classify {name} raw"] = ["classify", s, "--ideal", json.dumps(raw)]
        out[f"decompose {name}"] = ["decompose", s]
        for seed in (1, 2):
            out[f"verify {name} seed {seed}"] = [
                "verify", s, "--samples", str(samples), "--seed", str(seed)]
    z = json.dumps({"kind": "valuation", "group": ["Z"]})
    out["verify fixture C3"] = ["verify", z, "--samples", "2", "--fixture", C3_TABLE]
    out["verify fixture broken"] = ["verify", z, "--samples", "2", "--fixture", BROKEN_TABLE]
    return out


CASES = _cases()


def run_case(argv) -> str:
    """sha256 over the exit code, stdout and `--json` bytes of one run."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = list(argv)
        if "--fixture" in argv:
            i = argv.index("--fixture") + 1
            path = os.path.join(tmp, "table.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(argv[i])
            argv[i] = path
        report = os.path.join(tmp, "report.json")
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(argv + ["--json", report])
        with open(report, "rb") as fh:
            body = fh.read()
    h = hashlib.sha256()
    h.update(f"{code}\n".encode())
    h.update(buf.getvalue().encode())
    h.update(b"\0")
    h.update(body)
    return h.hexdigest()


GOLDEN = {
    'classify poly_ext:Z,Q canonical': 'cf5a1ed9715bf7e1e7b08dcecb62d5375ee312e854408f393a12ab0b389e47af',
    'classify poly_ext:Z,Q raw': 'e8a66047ba11456495a8f8c75c8c5294ad364ea630768f68ecc83fd52ff91042',
    'classify poly_ext:Z,Z canonical': '8ea9a87a5312da3400ea066eab4c69e5c69e3f9e60696fc740a5086465d86986',
    'classify poly_ext:Z,Z raw': '8ea9a87a5312da3400ea066eab4c69e5c69e3f9e60696fc740a5086465d86986',
    'classify poly_ext:Z[1/3] canonical': '258161bf4006f0a191861fd032bf306fc7e8d9c5398c1e2c9e325b1c94b15470',
    'classify poly_ext:Z[1/3] raw': '931f240335c8a1c0d3e5d521513c049cfd26052d6b2d20b394a7f420155aa4a5',
    'classify pruefer:Q canonical': '0497653964f11871b87361203a1127c45fd47b922b667fb6544269fd20bb11d1',
    'classify pruefer:Q raw': '7b57c4b0e45ce58c145fdd9cc8d3d25a9393d5ea48979ae9741914ac53b07c27',
    'classify pruefer:Z[1/2]|Z canonical': '1cbdb871fca2746da1663db8f8e0a4da0e429bbf7e59541e3dfb7eb5ac805383',
    'classify pruefer:Z[1/2]|Z raw': '80a569b79365b14d9d9d63945ecf44f582d06af9d4face1a623cd3c8e0a2ccc9',
    'classify pruefer:Z|Z,Z[1/3]|Q canonical': 'e305e3058b8a70f06e052d6d583b12d6f4faa8f86c48f707e6399b194fd80e50',
    'classify pruefer:Z|Z,Z[1/3]|Q raw': '7247ba96c0ea648250bb3f5241fe92152ca9fd047d7ff2e358a310eda34785c2',
    'classify valuation:Q,Z,Z[1/2] canonical': '1189a4f76bd14c8946d468f1565f56f880793efe9ecb2c821be98a0a0f954c98',
    'classify valuation:Q,Z,Z[1/2] raw': 'dfd200ba28df32039d8bada7e0d1c7043c2c181dd2f3b5139634636573ebb253',
    'classify valuation:Z,Q canonical': '0be4ea190273e18d7e283e6f5bf0707b9b523b9394188a4c246a611f5a5eb1ea',
    'classify valuation:Z,Q raw': 'c09876e95ec683cfde87013649def23efa7e261fc352ab56706ece439d09da8a',
    'classify valuation:Z[1/2] canonical': '6e8d788a36aa38a87b6f6ad70b945929116215f79c5337d889297a3b93f153c3',
    'classify valuation:Z[1/2] raw': 'c4ef31ded0071c558286ad1a6b51665d2777014bd7a581752ba26e7296b19165',
    'decompose poly_ext:Z,Q': '5a1918288e063b3366bee386e5a65d78f2ca7ef661a72dfb08e9a42063de9697',
    'decompose poly_ext:Z,Z': 'c86c9f05bd1f093c3f9fcb3c8e3b9eaf9e2e6a8ba2b687b8cbc2c6d60e902c89',
    'decompose poly_ext:Z[1/3]': '681d2e5e289b0c489cec7f5f1b3e40800c359af832a6a3cf0ece3c7034b6b402',
    'decompose pruefer:Q': 'e43a6913afa543dda270cf5717e6eca633c7aeec6933152417a5ab0a1002b936',
    'decompose pruefer:Z[1/2]|Z': '54c32b4de3460d2a525a09f7269020cfe2007a0a5e3d395c1f0a8a955ed6700d',
    'decompose pruefer:Z|Z,Z[1/3]|Q': '3882bf21610cec3a5b7b06e8dbde2250fc351dad3a7878277788ce9047dd2240',
    'decompose valuation:Q,Z,Z[1/2]': '22b42817528e2649315bcae4cade121441b03510d53f8bdfc114666e7210c23c',
    'decompose valuation:Z,Q': '7227b5ed941a6e3ce1e7b570b0e7e752ca49e41b00deba2c1f2d87ca3cad82e8',
    'decompose valuation:Z[1/2]': '8f8095cb0399961f79b5bbfe701fcc79960bf590d0c3d272aae233b6fbb2898b',
    'verify fixture C3': 'b63cc05cd1101389b181c61bc79f12e2cfafd2c541ba0947acf5e87258063b38',
    'verify fixture broken': '0cc786f16156184b4c3d891d2121d515e26ef880549899fec24d523a88ac19f8',
    'verify poly_ext:Z,Q seed 1': '89d4227cb7a1afe87b01c631073f2f059695de57e0dc72ee06e12240b358f96d',
    'verify poly_ext:Z,Q seed 2': 'a35c5d0aa17c67f546468bb316746673ec64a5480d5f2927c2b5012c5de24852',
    'verify poly_ext:Z,Z seed 1': '939b88c3a46e065726e2245f35947ccf92548ecd22a922d225a655c898e0e4a8',
    'verify poly_ext:Z,Z seed 2': '5ae564f4ca594f1ae526d3c8951af57c6b15f5431d3cf9b502f2072c3767a702',
    'verify poly_ext:Z[1/3] seed 1': 'c286787b590908c162fa73d1ae24c90edabc6cb9411941129f370dc8c52e275e',
    'verify poly_ext:Z[1/3] seed 2': '272805e2bfe5e452587bb320226c62ee756fb3f1838a9bbef170317d92ec9aa0',
    'verify pruefer:Q seed 1': 'bc1b3d7e6a6dd2019cbe43ee54e1cb2af67363fc666bf957a34f7ce00cd46729',
    'verify pruefer:Q seed 2': '3e745e5f328b5ce63b7f773efc6125eb4e9cec813193c17d35a8e2058098e3ee',
    'verify pruefer:Z[1/2]|Z seed 1': 'd624a48f046070933d85f13bc7571f7b8932237069daa9b9bf1a6f911279b664',
    'verify pruefer:Z[1/2]|Z seed 2': '93529d44ed1533478807ffe8379d8aac0fbcf1ccbdebdf9b5caf3c39f8c60502',
    'verify pruefer:Z|Z,Z[1/3]|Q seed 1': '54beb65ec957c081621014a5a379131961f2996d38a6735919d255ea288cbb9a',
    'verify pruefer:Z|Z,Z[1/3]|Q seed 2': 'fc0ad9fcbe395a79fe1ab41d8c5a42a9014e3f20c3ba213c75c145082f8509da',
    'verify valuation:Q,Z,Z[1/2] seed 1': '84426d22728682b7d49e9adfe2fef1a700221af7138af745e5deafac61de5988',
    'verify valuation:Q,Z,Z[1/2] seed 2': '8e61942f5605a843735eb98e16b843440f9ad5d87ec3706a505054ba54acde14',
    'verify valuation:Z,Q seed 1': 'abbfb113c7e32b0433da28c5d636e5a3e8d376d1e0b6192a0bb96d2b5066f266',
    'verify valuation:Z,Q seed 2': 'dc72be895aab64b4c13019733fd3a6075069ae5fff3509bb1c0dba2f89f0a376',
    'verify valuation:Z[1/2] seed 1': '82a8a165bde37b25bfc77f9c39dcfbeee2dd88b0c34122da9e646152ec04431f',
    'verify valuation:Z[1/2] seed 2': '59f665a08f0fa16f2dabac6b11dd1021834d6bf262376d3498369215bd0b3975',
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name):
    assert run_case(CASES[name]) == GOLDEN[name]


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f"    {name!r}: {run_case(CASES[name])!r},")
