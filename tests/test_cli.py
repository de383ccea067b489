"""Command-line behavior: reports, determinism, exit codes."""

import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import tclass
from tclass import checks, cuts, sampling, semigroups
from tclass import polyext as X
from tclass import pruefer as P
from tclass.cli import KINDS, _form_text, cmd_classify, cmd_decompose, form_json, load_model, main
from conftest import GROUPS, random_raw_cut
from test_kills import plant

C3_TEXT = "3\n2 0 1\n0 1 2\n1 2 0\n"


def write(tmp_path, name, obj):
    p = tmp_path / name
    if isinstance(obj, str):
        p.write_text(obj)
    else:
        p.write_text(json.dumps(obj))
    return str(p)


def valuation_spec(tmp_path, group=("Z",)):
    return write(tmp_path, "spec.json", {"kind": "valuation", "group": list(group)})


def cut_lit(level, boundary, side):
    return {"level": level, "boundary": [str(b) for b in boundary], "side": side}


# -- classify -----------------------------------------------------------------


def test_classify_valuation_principal(tmp_path, capsys):
    spec = valuation_spec(tmp_path)
    out = tmp_path / "report.json"
    code = main(["classify", spec, "--ideal", json.dumps(cut_lit(1, [3], "closed")),
                 "--json", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["command"] == "classify"
    assert report["model"] == {"kind": "valuation", "group": ["Z"]}
    assert report["ideal"] == {"level": 1, "boundary": ["3"], "side": "closed"}
    assert report["idempotent_form"] == {
        "variant": "ring", "levels": [1], "max_ideal_components": [],
    }
    assert report["regularity"]["shift"] == ["3"]
    assert "idempotent: overring at levels [1]" in capsys.readouterr().out


def test_classify_normalizes_before_reporting(tmp_path):
    # over Z an open cut at 3 is the closed cut at 4
    spec = valuation_spec(tmp_path)
    out = tmp_path / "report.json"
    assert main(["classify", spec, "--ideal", json.dumps(cut_lit(1, [3], "open")),
                 "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["ideal"] == {"level": 1, "boundary": ["4"], "side": "closed"}


def test_classify_ideal_from_file_matches_inline(tmp_path):
    spec = valuation_spec(tmp_path, group=("Q",))
    lit = cut_lit(1, ["1/3"], "open")
    ideal_file = write(tmp_path, "ideal.json", lit)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["classify", spec, "--ideal", json.dumps(lit), "--json", str(out1)]) == 0
    assert main(["classify", spec, "--ideal", ideal_file, "--json", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["idempotent_form"]["variant"] == "max_ideals"
    assert report["regularity"]["shift"] == ["1/3"]


def test_classify_pruefer_two_dense_components(tmp_path):
    spec = write(tmp_path, "spec.json",
                 {"kind": "pruefer_fc", "valuations": [["Q"], ["Q"]]})
    lit = {"cuts": [cut_lit(1, [0], "open"), cut_lit(1, [0], "open")]}
    out = tmp_path / "report.json"
    assert main(["classify", spec, "--ideal", json.dumps(lit), "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["idempotent_form"] == {
        "variant": "max_ideals", "levels": [1, 1], "max_ideal_components": [1, 2],
    }
    assert [w["shift"] for w in report["regularity"]] == [["0"], ["0"]]
    assert report["witness"]["cuts"][0]["side"] == "open"


def test_classify_polyext_dense_base(tmp_path):
    spec = write(tmp_path, "spec.json", {"kind": "poly_ext", "base": ["Q"]})
    out = tmp_path / "report.json"
    assert main(["classify", spec, "--ideal",
                 json.dumps({"coeff": cut_lit(1, [0], "open")}),
                 "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["scope"] == "extended classes"
    assert report["idempotent_form"] == {"variant": "idempotent_max_class", "level": 1}


# -- decompose ----------------------------------------------------------------


def test_decompose_valuation_mixed_tower(tmp_path):
    spec = valuation_spec(tmp_path, group=("Z", "Q"))
    out = tmp_path / "report.json"
    assert main(["decompose", spec, "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    # one overring per level plus one idempotent prime at the dense level
    assert report["idempotent_count"] == 3
    kinds = [(e["kind"], e["level"]) for e in report["idempotents"]]
    assert kinds == [("overring", 1), ("overring", 2), ("idempotent_prime", 2)]
    assert report["strongly_discrete"] is False


def test_decompose_polyext_counts(tmp_path):
    discrete = write(tmp_path, "d.json", {"kind": "poly_ext", "base": ["Z"]})
    dense = write(tmp_path, "q.json", {"kind": "poly_ext", "base": ["Q"]})
    out = tmp_path / "report.json"
    assert main(["decompose", discrete, "--json", str(out)]) == 0
    rd = json.loads(out.read_text())
    assert rd["idempotent_count"] == 1
    assert rd["strongly_discrete"] is True
    assert all(e["group_trivial"] for e in rd["idempotents"])
    assert main(["decompose", dense, "--json", str(out)]) == 0
    rq = json.loads(out.read_text())
    assert rq["idempotent_count"] == 2
    assert rq["scope"] == "extended classes"
    variants = {e["idempotent"]["variant"]: e["group_trivial"] for e in rq["idempotents"]}
    assert variants == {"overring": True, "idempotent_max_class": False}


def test_decompose_pruefer_form_count(tmp_path):
    spec = write(tmp_path, "spec.json",
                 {"kind": "pruefer_fc", "valuations": [[{"Zloc": [2]}], ["Z"]]})
    out = tmp_path / "report.json"
    assert main(["decompose", spec, "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    # dense first component doubles the single all-ring form
    assert report["idempotent_count"] == 2
    assert all("trivial" in e["class_group"] for e in report["idempotents"])


# -- verify -------------------------------------------------------------------


def test_verify_valuation_passes_and_is_deterministic(tmp_path, capsys):
    spec = valuation_spec(tmp_path, group=("Z", "Q"))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["verify", spec, "--samples", "15", "--seed", "7"]
    assert main(args + ["--json", str(out1)]) == 0
    assert main(args + ["--json", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["passed"] is True
    assert [c["name"] for c in report["checks"]] == [
        "regularity", "idempotent_uniqueness", "overring_transfer",
        "semigroup_cross_check",
    ]
    assert all(c["failures"] == [] for c in report["checks"])
    assert report["provenance"]["seed"] == 7
    assert report["provenance"]["samples"] == 15
    assert "result: pass" in capsys.readouterr().out


def test_verify_seed_changes_report(tmp_path):
    spec = valuation_spec(tmp_path, group=("Q",))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify", spec, "--samples", "10", "--seed", "1",
                 "--json", str(out1)]) == 0
    assert main(["verify", spec, "--samples", "10", "--seed", "2",
                 "--json", str(out2)]) == 0
    # both pass, but provenance pins the seed they ran under
    assert json.loads(out1.read_text())["provenance"]["seed"] == 1
    assert json.loads(out2.read_text())["provenance"]["seed"] == 2


def test_verify_pruefer_and_polyext_check_suites(tmp_path):
    pruefer = write(tmp_path, "p.json",
                    {"kind": "pruefer_fc", "valuations": [["Q"], ["Z"]]})
    poly = write(tmp_path, "x.json", {"kind": "poly_ext", "base": [{"Zloc": [2]}]})
    out = tmp_path / "report.json"
    assert main(["verify", pruefer, "--samples", "10", "--json", str(out)]) == 0
    rp = json.loads(out.read_text())
    assert rp["passed"] is True
    assert [c["name"] for c in rp["checks"]] == [
        "regularity", "idempotent_uniqueness", "exact_sequence",
        "semigroup_cross_check",
    ]
    assert main(["verify", poly, "--samples", "10", "--json", str(out)]) == 0
    rx = json.loads(out.read_text())
    assert rx["passed"] is True
    assert [c["name"] for c in rx["checks"]] == [
        "regularity", "classification_consistency", "strongly_discrete_detector",
        "semigroup_cross_check",
    ]


def test_verify_zero_samples_is_vacuous_pass(tmp_path):
    spec = valuation_spec(tmp_path)
    out = tmp_path / "report.json"
    assert main(["verify", spec, "--samples", "0", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert all(c["failure_count"] == 0 for c in report["checks"])


def test_verify_accepts_good_fixture(tmp_path):
    spec = valuation_spec(tmp_path)
    fixture = write(tmp_path, "table.txt", C3_TEXT)
    out = tmp_path / "report.json"
    assert main(["verify", spec, "--samples", "5", "--fixture", fixture,
                 "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    names = [c["name"] for c in report["checks"]]
    assert names[-1] == "fixture_table"
    assert report["checks"][-1]["passed"] is True


def test_verify_rejects_corrupted_fixture(tmp_path, capsys):
    spec = valuation_spec(tmp_path)
    fixture = write(tmp_path, "table.txt", "2\n0 0\n1 1\n")
    code = main(["verify", spec, "--samples", "5", "--fixture", fixture])
    assert code == 2
    out = capsys.readouterr().out
    assert "check fixture_table: FAIL" in out
    assert "result: FAIL" in out


def test_verify_refuses_a_fixture_above_the_associativity_cap(tmp_path, monkeypatch):
    # Only `--fixture` reaches the cap: `verify`'s own closures stay far below it.
    monkeypatch.setattr(semigroups, "ASSOC_CAP", 2)
    spec = valuation_spec(tmp_path)
    fixture = write(tmp_path, "table.txt", C3_TEXT)
    out = tmp_path / "report.json"
    assert main(["verify", spec, "--samples", "5", "--fixture", fixture,
                 "--json", str(out)]) == 2
    check = json.loads(out.read_text())["checks"][-1]
    assert check["name"] == "fixture_table" and check["passed"] is False
    assert check["failures"] == [
        "fixture rejected: table of size 3 exceeds the verification cap 2"]


# -- exit code 1: usage and parse errors --------------------------------------


def test_missing_spec_file_is_usage_error(tmp_path, capsys):
    assert main(["decompose", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_unparseable_spec_reports_location(tmp_path, capsys):
    spec = write(tmp_path, "spec.json", '{"kind": "valuation",')
    assert main(["decompose", spec]) == 1
    err = capsys.readouterr().err
    assert "spec file" in err and "line 1" in err


def test_unknown_kind_is_usage_error(tmp_path, capsys):
    spec = write(tmp_path, "spec.json", {"kind": "dedekind", "group": ["Z"]})
    assert main(["decompose", spec]) == 1
    assert "unknown kind" in capsys.readouterr().err


def test_spec_field_validation(tmp_path, capsys):
    no_group = write(tmp_path, "a.json", {"kind": "valuation"})
    assert main(["decompose", no_group]) == 1
    bad_component = write(tmp_path, "b.json", {"kind": "valuation", "group": ["R"]})
    assert main(["decompose", bad_component]) == 1
    assert "unknown component" in capsys.readouterr().err
    empty_vals = write(tmp_path, "c.json", {"kind": "pruefer_fc", "valuations": []})
    assert main(["decompose", empty_vals]) == 1


def test_bad_ideal_literal_is_usage_error(tmp_path, capsys):
    spec = valuation_spec(tmp_path)
    assert main(["classify", spec, "--ideal", '{"level": 1}']) == 1
    assert "ideal literal" in capsys.readouterr().err
    # level beyond the tower rank
    assert main(["classify", spec, "--ideal",
                 json.dumps(cut_lit(2, [0, 0], "closed"))]) == 1


def test_negative_samples_rejected(tmp_path, capsys):
    spec = valuation_spec(tmp_path)
    assert main(["verify", spec, "--samples", "-1"]) == 1
    assert "nonnegative" in capsys.readouterr().err


def test_unknown_command_rejected(capsys):
    assert main(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_fixture_file_is_usage_error(tmp_path, capsys, monkeypatch):
    # The fixture is read before any check runs, so a mistyped path costs
    # no sampled cut; the same run on a readable fixture draws some.
    drawn = []
    real = sampling.random_cut

    def counted(rng, g):
        drawn.append(g)
        return real(rng, g)
    monkeypatch.setattr(sampling, "random_cut", counted)
    spec = valuation_spec(tmp_path)
    assert main(["verify", spec, "--samples", "5",
                 "--fixture", str(tmp_path / "nope.txt")]) == 1
    assert "fixture" in capsys.readouterr().err
    assert drawn == []
    fixture = write(tmp_path, "table.txt", C3_TEXT)
    assert main(["verify", spec, "--samples", "5", "--fixture", fixture]) == 0
    assert drawn


# -- malformed input: exit 1, one `error:` line, no traceback -----------------


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("literal", [
    cut_lit(True, [1], "closed"),
    {"level": 2, "boundary": "12", "side": "closed"},
    {"level": 1, "boundary": {"3": 1}, "side": "closed"},
    cut_lit(1, ["1e100000"], "closed"),
    cut_lit(1, ["1e1000000000"], "closed"),
    cut_lit(1, ["1e-1000000000"], "closed"),
    cut_lit(1, ["1e1_000_000_000"], "closed"),
    cut_lit(1, ["7" * 5000], "closed"),
    {"level": 1, "boundary": [True], "side": "closed"},
    {"level": 1, "boundary": [None], "side": "closed"},
], ids=["bool-level", "string-boundary", "dict-boundary", "1e100000", "1e1000000000",
        "1e-1000000000", "underscored-exponent", "5000-digit-string", "bool-coordinate",
        "null-coordinate"])
def test_malformed_cut_literal_is_usage_error(tmp_path, capsys, literal):
    spec = valuation_spec(tmp_path, group=("Z", "Q"))
    assert main(["classify", spec, "--ideal", json.dumps(literal)]) == 1
    assert "ideal literal" in one_error_line(capsys)


def test_classify_reads_every_spelling_of_a_coordinate_alike(tmp_path, capsys):
    # A plain n/d is read by integer arithmetic and every other spelling by
    # `Fraction`'s reader: the reports must be byte-identical, and a bad
    # coordinate must fail with the same one-line message either way.
    spec = valuation_spec(tmp_path, group=("Z", {"Zloc": [3]}))

    def classify(c, out=None):
        literal = json.dumps({"level": 2, "boundary": ["1", c], "side": "closed"})
        return main(["classify", spec, "--ideal", literal] + (["--json", str(out)] if out else []))
    reports = []
    for i, c in enumerate(["3/2", "+6/4", "006/004", 1.5, "15e-1", " 3/2 "]):
        out = tmp_path / f"report{i}.json"
        assert classify(c, out) == 0, c
        reports.append(out.read_bytes())
    assert len(set(reports)) == 1
    assert json.loads(reports[0])["ideal"] == {"level": 2, "boundary": ["1", "3/2"],
                                               "side": "open"}
    capsys.readouterr()
    for c, message in [
            ("3/0", "bad boundary coordinate '3/0': Fraction(3, 0)"),
            ("1/" + "0" * 98 + "3", "boundary coordinate '1/0000000000000000000000' exceeds "
                                    "the literal limits (100 characters, exponent at most 100)")]:
        assert classify(c) == 1
        assert one_error_line(capsys) == f"error: ideal literal: {message}\n"


def classify_outcome(spec: str, side: str, coordinate: str) -> tuple:
    """Exit code, stdout, stderr and `--json` bytes of `classify` on a
    level-1 literal whose one coordinate is the JSON text `coordinate`."""
    literal = f'{{"level": 1, "boundary": [{coordinate}], "side": "{side}"}}'
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["classify", spec, "--ideal", literal, "--json", str(report)])
        body = report.read_bytes() if report.exists() else None
    return code, out.getvalue(), err.getvalue(), body


@st.composite
def json_numbers(draw) -> str:
    """A JSON number: an optional minus, an integer part, an optional
    fraction and an optional exponent; at most 40 digits before the
    exponent, whose value is within 120 either way, its digits at times
    zero-padded."""
    whole = draw(st.from_regex(r"\A(0|[1-9][0-9]{0,39})\Z"))
    fraction = draw(st.text("0123456789", max_size=40 - len(whole)))
    text = draw(st.sampled_from(["", "-"])) + whole + ("." + fraction if fraction else "")
    if draw(st.booleans()):
        text += (draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+", "-"]))
                 + draw(st.sampled_from(["", "0", "00"])) + str(draw(st.integers(0, 120))))
    return text


NUMBER_SPECS = [json.dumps({"kind": "valuation", "group": group})
                for group in (["Z"], ["Q"], [{"Zloc": [3]}])]
# Numbers a float misread: the first four read as wrong values, and the
# last was refused naming `inf`, not the literal.
FLOAT_MISREADS = [(0, "2.9999999999999999"), (1, "123456789.123456789"),
                  (1, "12345678901234567890.5"), (0, "1e-400"), (0, "1e400")]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(NUMBER_SPECS), st.sampled_from(["open", "closed"]), json_numbers())
@example(NUMBER_SPECS[0], "open", "2.9999999999999999")
@example(NUMBER_SPECS[1], "open", "123456789.123456789")
@example(NUMBER_SPECS[1], "open", "12345678901234567890.5")
@example(NUMBER_SPECS[0], "open", "1e-400")
@example(NUMBER_SPECS[0], "open", "1e400")
def test_a_json_number_reads_as_its_string(spec, side, number):
    # Byte-identical reports, or the same one-line error.
    got = classify_outcome(spec, side, number)
    assert got == classify_outcome(spec, side, json.dumps(number))
    code, _, err, _ = got
    assert code in (0, 1)
    assert err.count("\n") == (code == 1), err


@pytest.mark.parametrize("spec, number", FLOAT_MISREADS, ids=[n for _, n in FLOAT_MISREADS])
def test_float_misreads_read_as_strings(spec, number):
    code, out, err, body = classify_outcome(NUMBER_SPECS[spec], "open", number)
    if "e" in number:
        assert (code, out, body) == (1, "", None)
        assert err == (f"error: ideal literal: boundary coordinate {number!r} exceeds the "
                       "literal limits (100 characters, exponent at most 100)\n")
        return
    assert code == 0
    want = cuts.Rat(number)
    if spec == 0:  # over Z an open cut at a non-integer closes at its ceiling
        want = -(-want.numerator // want.denominator)
    assert json.loads(body)["ideal"]["boundary"] == [str(want)]


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_json_constants_are_refused_by_name(constant):
    code, out, err, body = classify_outcome(NUMBER_SPECS[1], "open", constant)
    assert (code, out, body) == (1, "", None)
    assert err == f"error: ideal literal: the JSON constant {constant} is not a rational number\n"


def test_huge_json_integer_is_usage_error(tmp_path, capsys):
    spec = valuation_spec(tmp_path)
    text = '{"level": 1, "boundary": [' + "7" * 5000 + '], "side": "closed"}'
    assert main(["classify", spec, "--ideal", text]) == 1
    one_error_line(capsys)


def test_deeply_nested_json_is_usage_error(tmp_path, capsys):
    deep = "[" * 200_000 + "]" * 200_000
    spec = write(tmp_path, "deep.json", deep)
    assert main(["decompose", spec]) == 1
    one_error_line(capsys)
    assert main(["classify", valuation_spec(tmp_path), "--ideal", deep]) == 1
    one_error_line(capsys)


def test_non_utf8_files_are_usage_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff\xfe{"kind": "valuation"}')
    assert main(["decompose", str(bad)]) == 1
    one_error_line(capsys)
    spec = valuation_spec(tmp_path)
    assert main(["classify", spec, "--ideal", str(bad)]) == 1
    one_error_line(capsys)
    assert main(["verify", spec, "--samples", "0", "--fixture", str(bad)]) == 1
    assert "fixture" in one_error_line(capsys)


def test_a_byte_order_mark_is_dropped(tmp_path):
    # A spec file that starts with a UTF-8 BOM reads as the same spec
    # without it: the reports are byte-identical.
    text = json.dumps({"kind": "pruefer_fc", "valuations": [[{"Zloc": [2]}], ["Z", "Q"]]})
    reports = []
    for name, data in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())):
        (tmp_path / name).mkdir()
        spec, out = tmp_path / name / "spec.json", tmp_path / name / "report.json"
        spec.write_bytes(data)
        assert main(["decompose", str(spec), "--json", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_path_with_nul_byte_is_usage_error(tmp_path, capsys):
    assert main(["decompose", "spec\0.json"]) == 1
    one_error_line(capsys)


def test_unwritable_report_path_is_usage_error(tmp_path, capsys):
    spec = valuation_spec(tmp_path)
    assert main(["decompose", spec, "--json", str(tmp_path / "no" / "such" / "r.json")]) == 1
    assert "cannot write report" in one_error_line(capsys)


@pytest.mark.parametrize("spec, message", [
    ({"kind": "valuation", "group": [{"Zloc": [2], "x": 1}]}, "unknown component descriptor"),
    ({"kind": "valuation", "group": [{"Zloc": [2.0]}]}, "Zloc wants a list of primes"),
    ({"kind": "valuation", "group": [{"Zloc": 2}]}, "Zloc wants a list of primes, got 2"),
    ({"kind": "valuation", "group": "ZQ"}, "a value group descriptor is a non-empty list"),
    ({"group": ["Z"]}, "top level must be an object with a 'kind' field"),
], ids=["zloc-extra-key", "zloc-float-prime", "zloc-not-a-list", "group-a-string", "no-kind"])
def test_malformed_spec_is_one_error_line(spec, message, tmp_path, capsys):
    assert main(["decompose", write(tmp_path, "spec.json", spec)]) == 1
    assert message in one_error_line(capsys)


def test_unhashable_kind_is_usage_error(tmp_path, capsys):
    spec = write(tmp_path, "spec.json", {"kind": ["valuation"], "group": ["Z"]})
    assert main(["decompose", spec]) == 1
    assert "unknown kind" in one_error_line(capsys)


def test_large_zloc_prime_is_fast(tmp_path, capsys):
    spec = write(tmp_path, "spec.json",
                 {"kind": "valuation", "group": [{"Zloc": [1000000000000000003]}]})
    assert main(["decompose", spec]) == 0
    assert "Z[1/1000000000000000003]" in capsys.readouterr().out


def test_zloc_beyond_primality_bound_is_usage_error(tmp_path, capsys):
    # 2^89 - 1 is a Mersenne prime above the deterministic Miller-Rabin bound
    spec = write(tmp_path, "spec.json",
                 {"kind": "valuation", "group": [{"Zloc": [2 ** 89 - 1]}]})
    assert main(["decompose", spec]) == 1
    assert "primality" in one_error_line(capsys)


def test_too_many_idempotent_forms_is_usage_error(tmp_path, capsys):
    # 16 dense valuations would have 2^16 idempotent forms
    spec = write(tmp_path, "spec.json", {"kind": "pruefer_fc", "valuations": [["Q"]] * 16})
    for argv in (["decompose", spec], ["verify", spec, "--samples", "0"]):
        assert main(argv) == 1
        assert "4096 idempotent forms" in one_error_line(capsys)
    at_limit = write(tmp_path, "limit.json", {"kind": "pruefer_fc", "valuations": [["Q"]] * 12})
    assert main(["decompose", at_limit]) == 0
    assert "idempotents: 4096" in capsys.readouterr().out


def test_form_bound_holds_for_every_kind(tmp_path, capsys):
    # One valuation of 2100 dense levels has 4200 rank-1 forms, and its
    # `decompose` report would grow as the square of the levels; 2048 has
    # 4096.  `verify --samples 0` builds no idempotent.
    for kind, field in (("valuation", "group"), ("poly_ext", "base")):
        spec = write(tmp_path, f"{kind}.json", {"kind": kind, field: ["Q"] * 2100})
        assert main(["verify", spec, "--samples", "0"]) == 1
        assert "4096 idempotent forms" in one_error_line(capsys)
        at_limit = write(tmp_path, f"{kind}-limit.json", {"kind": kind, field: ["Q"] * 2048})
        assert main(["verify", at_limit, "--samples", "0"]) == 0


def test_closed_stdout_ends_quietly_and_still_writes_json(tmp_path):
    # 1024 idempotent forms print about 330 kB, far more than a pipe holds,
    # so the reader's early close reaches the writer mid-output.
    spec = write(tmp_path, "spec.json", {"kind": "pruefer_fc", "valuations": [["Q"]] * 10})
    out = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(Path(tclass.__file__).parent.parent))
    proc = subprocess.Popen([sys.executable, "-m", "tclass", "decompose", spec, "--json", str(out)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"model: ")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == ""
    assert json.loads(out.read_text())["idempotent_count"] == 1024


# -- exit code 2: internal inconsistencies ------------------------------------


def planted(*args):
    raise cuts.InternalInconsistencyError("planted")


def test_internal_inconsistency_in_classify_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cuts, "classify_idempotent", planted)
    spec = valuation_spec(tmp_path)
    literal = json.dumps(cut_lit(1, [3], "closed"), indent=1)
    assert main(["classify", spec, "--ideal", literal]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "planted" in err
    assert "classify" in err and spec in err and '"boundary":' in err


@pytest.mark.parametrize("spec, literal", [
    ({"kind": "valuation", "group": ["Z"]}, cut_lit(1, [3], "closed")),
    ({"kind": "pruefer_fc", "valuations": [["Z"], ["Q"]]},
     {"cuts": [cut_lit(1, [3], "closed"), cut_lit(1, [0], "open")]}),
    ({"kind": "poly_ext", "base": ["Z"]}, {"coeff": cut_lit(1, [3], "closed")}),
], ids=["valuation", "pruefer_fc", "poly_ext"])
def test_internal_inconsistency_in_a_literal_reader_exits_2(spec, literal, tmp_path, capsys,
                                                            monkeypatch):
    # Every kind's reader lets a bug in `cut_from_json` through as a bug,
    # not as a malformed literal.
    monkeypatch.setattr(cuts, "cut_from_json", planted)
    path = write(tmp_path, "spec.json", spec)
    assert main(["classify", path, "--ideal", json.dumps(literal)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "planted" in err and "replay with: tclass classify" in err


def inverted_guard(self):
    # `PrueferModel.__post_init__` with its test turned round.
    if self.valuations:
        raise ValueError("need at least one valuation")


@pytest.mark.parametrize("spec, literal", [
    ({"kind": "valuation", "group": ["Z", "Q"]}, cut_lit(1, [3], "closed")),
    ({"kind": "poly_ext", "base": ["Z"]}, {"coeff": cut_lit(1, [3], "closed")}),
], ids=["valuation", "poly_ext"])
@pytest.mark.parametrize("command", ["classify", "decompose", "verify"])
def test_any_exception_past_parsing_exits_2_with_its_replay(command, spec, literal, tmp_path,
                                                           capsys, monkeypatch):
    # These kinds build their `PrueferModel` inside the command, past
    # parsing, so the inverted guard raises a plain `ValueError` there.
    monkeypatch.setattr(P.PrueferModel, "__post_init__", inverted_guard)
    path = write(tmp_path, "spec.json", spec)
    fixture = write(tmp_path, "c3.txt", C3_TEXT)
    extra = {"classify": ["--ideal", json.dumps(literal)], "decompose": [],
             "verify": ["--samples", "3", "--seed", "5", "--fixture", fixture]}[command]
    assert main([command, path, *extra]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: internal inconsistency: ValueError: need at least one "
                          f"valuation; replay with: tclass {command} {path}")
    if command == "verify":
        assert err.endswith(f" --samples 3 --seed 5 --fixture {fixture}\n")


def test_an_exception_message_over_lines_stays_one_stderr_line(tmp_path, capsys, monkeypatch):
    def planted(*args):
        raise ValueError("first\nsecond")
    monkeypatch.setattr(X, "decompose", planted)
    path = write(tmp_path, "spec.json", {"kind": "poly_ext", "base": ["Z"]})
    assert main(["decompose", path]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and ": ValueError: first second; replay with: " in err


def verify_checks(tmp_path, capsys, spec, samples) -> dict:
    """`verify --seed 11` on the `spec` file, which must exit 2 with no
    stderr line and write its report; the report's checks by name."""
    out = tmp_path / "report.json"
    assert main(["verify", spec, "--samples", str(samples), "--seed", "11",
                 "--json", str(out)]) == 2
    assert capsys.readouterr().err == ""
    return {c["name"]: c for c in json.loads(out.read_text())["checks"]}


def literal_and_error(line: str) -> tuple:
    """A failure line read as (the JSON literal it opens with, the rest)."""
    literal, end = json.JSONDecoder().raw_decode(line)
    return literal, line[end:]


def test_internal_inconsistency_in_verify_exits_2(tmp_path, capsys, monkeypatch):
    # Raised while `idempotent_uniqueness` sets up its idempotents, before
    # any audit, the error is a failure of every sample, named by its literal.
    monkeypatch.setattr(cuts, "idempotents", planted)
    spec = valuation_spec(tmp_path)
    checks = verify_checks(tmp_path, capsys, spec, 3)
    assert [n for n, c in checks.items() if not c["passed"]] == ["idempotent_uniqueness"]
    uniqueness = checks["idempotent_uniqueness"]
    assert uniqueness["failure_count"] == 3
    kind, model = load_model(spec)
    for line in uniqueness["failures"]:
        literal, rest = literal_and_error(line)
        assert rest == ": InternalInconsistencyError: planted"
        assert cmd_classify(kind, model, json.dumps(literal))["ideal"] == literal


def test_internal_inconsistency_in_a_sample_is_a_reported_failure(tmp_path, capsys, monkeypatch):
    # Raised for each sample of `regularity` and `idempotent_uniqueness`, by
    # the witness (I (T:I))_t that both audits build, the error is a failure
    # of that sample, and the later checks still run.
    monkeypatch.setattr(cuts, "_witness", planted)
    checks = verify_checks(tmp_path, capsys, valuation_spec(tmp_path), 3)
    assert [n for n, c in checks.items() if not c["passed"]] == ["regularity",
                                                                  "idempotent_uniqueness"]
    assert [c["failure_count"] for c in checks.values()] == [3, 3, 0, 0]
    for name, tail in [("regularity", ", component 1: InternalInconsistencyError: planted"),
                       ("idempotent_uniqueness", ": InternalInconsistencyError: planted")]:
        for line in checks[name]["failures"]:
            literal, rest = literal_and_error(line)
            assert set(literal) == {"boundary", "level", "side"} and rest == tail


def test_escaped_group_error_in_verify_exits_2(tmp_path, capsys, monkeypatch):
    # Over Z the cut <1; (1); closed> holds the values >= 1 and its square
    # the values >= 2: not idempotent, so `cuts.idempotents` raises
    # NotIdempotentError when it is planted as J, in every sample of
    # `idempotent_uniqueness`.
    monkeypatch.setattr(cuts, "form_cut", lambda g, form: cuts.Cut(1, (1,), cuts.CLOSED))
    checks = verify_checks(tmp_path, capsys, valuation_spec(tmp_path), 3)
    uniqueness = checks["idempotent_uniqueness"]
    assert uniqueness["failure_count"] == 3
    for line in uniqueness["failures"]:
        literal, rest = literal_and_error(line)
        assert set(literal) == {"boundary", "level", "side"}
        assert rest == ": NotIdempotentError: <1; (1); closed> is not idempotent"


TOWER = {"kind": "valuation", "group": ["Q", "Z", {"Zloc": [2]}]}


def plant_deeper_side_mul(monkeypatch):
    plant(monkeypatch, "mul takes the deeper side")


def test_rejected_closure_table_fails_the_cross_check(tmp_path, monkeypatch):
    # A wrong side rule, shared by `mul` and `class_row`, makes the sampled
    # closure non-associative; the oracle's rejection is a failure that
    # names the seed ideals by literals.
    plant_deeper_side_mul(monkeypatch)
    spec = write(tmp_path, "spec.json", TOWER)
    out = tmp_path / "report.json"
    assert main(["verify", spec, "--samples", "10", "--seed", "1", "--json", str(out)]) == 2
    check = json.loads(out.read_text())["checks"][-1]
    assert check["name"] == "semigroup_cross_check" and check["failures"]
    _, g = load_model(spec)
    for msg in check["failures"]:
        assert "not associative" in msg
        literals, _ = json.JSONDecoder().raw_decode(msg, msg.index("["))
        assert [cuts.cut_to_json(cuts.cut_from_json(g, lit)) for lit in literals] == literals


def test_lower_product_outside_the_closure_fails_the_cross_check(tmp_path, monkeypatch):
    # A stand-in adapter whose y * x, for x < y, leaves the closure: the
    # closure reports it as a failed check, not a KeyError traceback.
    monkeypatch.setattr(P.PrueferClassModel, "class_of", lambda self, a: 1)
    monkeypatch.setattr(P.PrueferClassModel, "row",
                        lambda self, x, ys: [min(x + y, 4) if x <= y else 99 for y in ys])
    spec = write(tmp_path, "spec.json",
                 {"kind": "pruefer_fc", "valuations": [[{"Zloc": [2]}], ["Z", "Q"]]})
    out = tmp_path / "report.json"
    assert main(["verify", spec, "--samples", "3", "--seed", "1", "--json", str(out)]) == 2
    check = json.loads(out.read_text())["checks"][-1]
    assert check["name"] == "semigroup_cross_check" and not check["passed"]
    assert len(check["failures"]) == 3
    assert all(msg.endswith("not commutative at (0, 1)") for msg in check["failures"])


def test_escaped_domain_mismatch_in_verify_exits_2(tmp_path, capsys, monkeypatch):
    # At 30 samples the same fault denies a cut its own overring, and
    # `t_closure_over` raises DomainMismatchError: a failure of the sample
    # in `overring_transfer`, and the cross-check after it still runs.
    plant_deeper_side_mul(monkeypatch)
    spec = write(tmp_path, "spec.json", TOWER)
    checks = verify_checks(tmp_path, capsys, spec, 30)
    transfer = checks["overring_transfer"]
    assert transfer["failure_count"] == 4
    _, g = load_model(spec)
    for line in transfer["failures"]:
        literal, rest = literal_and_error(line)
        assert rest == ": DomainMismatchError: not an ideal of the overring at this level"
        assert cuts.cut_to_json(cuts.cut_from_json(g, literal)) == literal
    assert checks["semigroup_cross_check"]["failures"]


@pytest.mark.parametrize("spec", [
    {"kind": "valuation", "group": ["Z", {"Zloc": [2]}]},
    {"kind": "pruefer_fc", "valuations": [[{"Zloc": [2]}], ["Z", "Q"]]},
    {"kind": "poly_ext", "base": [{"Zloc": [2]}]},
], ids=["valuation", "pruefer_fc", "poly_ext"])
def test_shared_check_counterexamples_replay_through_classify(spec, tmp_path, monkeypatch):
    # A failing regularity audit, and an oracle handle that calls every class
    # its own idempotent: each literal the two checks print must read back
    # through `classify` as an ideal of the spec's kind.
    monkeypatch.setattr(cuts, "is_regular", planted)
    monkeypatch.setattr(P.PrueferClassModel, "idempotent_of", lambda self, x: x)
    path = write(tmp_path, "spec.json", spec)
    out = tmp_path / "report.json"
    assert main(["verify", path, "--samples", "2", "--seed", "1", "--json", str(out)]) == 2
    checks = {c["name"]: c["failures"] for c in json.loads(out.read_text())["checks"]}
    samples = [json.JSONDecoder().raw_decode(msg)[0] for msg in checks["regularity"]]
    classes = [json.JSONDecoder().raw_decode(msg, len("group at "))[0]
               for msg in checks["semigroup_cross_check"] if msg.startswith("group at ")]
    assert samples and classes
    monkeypatch.undo()
    kind, model = load_model(path)
    for literal in samples:
        cmd_classify(kind, model, json.dumps(literal))
    # the oracle names a class by its representative, which `classify` keeps
    for literal in classes:
        assert cmd_classify(kind, model, json.dumps(literal))["ideal"] == literal


def test_exact_sequence_counterexamples_are_replayable_literals(tmp_path, monkeypatch):
    # A group law that squares its first operand breaks the projection's
    # multiplicativity; every tuple a failure names must read back as an
    # ideal literal of the model, as `tclass classify --ideal` reads it.
    class_mul = cuts.class_mul
    monkeypatch.setattr(cuts, "class_mul", lambda g, x, y: class_mul(g, x, x))
    spec = write(tmp_path, "spec.json",
                 {"kind": "pruefer_fc", "valuations": [[{"Zloc": [2]}], ["Z", "Q"]]})
    out = tmp_path / "report.json"
    assert main(["verify", spec, "--samples", "3", "--seed", "1", "--json", str(out)]) == 2
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    failures = checks["exact_sequence"]["failures"]
    assert failures
    _, model = load_model(spec)
    for msg in failures:
        starts = [m.start() for m in re.finditer(r'\{"cuts"', msg)]
        assert starts, msg
        for start in starts:
            literal, _ = json.JSONDecoder().raw_decode(msg, start)
            assert P.tuple_to_json(P.tuple_from_json(model, literal)) == literal


# -- every failure line `verify` can print, each from a planted fault ----------

PRUEFER = {"kind": "pruefer_fc", "valuations": [[{"Zloc": [2]}], ["Z", "Q"]]}
DYADIC = {"kind": "valuation", "group": [{"Zloc": [2]}]}


def failures_of(tmp_path, spec, check, *extra) -> list:
    """`verify` on `spec` must exit 2 and keep its report; the failure lines
    of `check` there."""
    out = tmp_path / "report.json"
    assert main(["verify", write(tmp_path, "spec.json", spec), "--samples", "5", "--seed", "1",
                 "--json", str(out), *extra]) == 2
    return {c["name"]: c for c in json.loads(out.read_text())["checks"]}[check]["failures"]


def test_fixture_that_is_not_clifford_fails_verify(tmp_path):
    # The null semigroup on {0, 1} is commutative and associative, but 1 is
    # not regular: 1 * 1 * a = 0 for every a.
    fixture = write(tmp_path, "table.txt", "2\n0 0\n0 0\n")
    assert failures_of(tmp_path, DYADIC, "fixture_table", "--fixture", fixture) == [
        "fixture table is not Clifford"]


def test_closure_that_never_saturates_fails_verify(tmp_path, monkeypatch):
    # A class product whose top drifts makes a new class of every product.
    monkeypatch.setattr(cuts, "class_row",
                        lambda g, x, ys: [x._replace(n=x.n + y.n + 1) for y in ys])
    assert failures_of(tmp_path, DYADIC, "semigroup_cross_check") == [
        "sampled closure did not saturate within budget 256"] * 3


def test_model_error_of_a_form_fails_exact_sequence(tmp_path, capsys, monkeypatch):
    # Raised before the sample loop, the error ends its form, and the line
    # names the form as `classify` reports it, then the error's type.
    def planted_ring_tuple(model, overring):
        raise cuts.DomainMismatchError("planted")
    monkeypatch.setattr(P, "ring_tuple", planted_ring_tuple)
    failures = failures_of(tmp_path, PRUEFER, "exact_sequence")
    assert len(failures) == 6
    assert failures[0] == "overring at levels [1, 1]: DomainMismatchError: planted"
    assert ("maximal ideals at components [1] of the overring at levels [1, 1]: "
            "DomainMismatchError: planted") in failures
    assert capsys.readouterr().err == ""


def test_embedding_that_misses_the_identity_fails_exact_sequence(tmp_path, monkeypatch):
    # An overring tuple whose first cut is open at 1/3 embeds the identity
    # of Cl(T) off the group identity at every form.
    ring_tuple = P.ring_tuple

    def shifted(model, overring):
        t = ring_tuple(model, overring)
        return P.IdealTuple((cuts.Cut(1, (Fraction(1, 3),), cuts.OPEN), *t.cuts[1:]))
    monkeypatch.setattr(P, "ring_tuple", shifted)
    failures = failures_of(tmp_path, PRUEFER, "exact_sequence")
    assert len(failures) == 6
    assert all(": embedding of Cl(T) identity missed the group identity: {\"cuts\": [" in line
               for line in failures)


def test_preimage_that_misses_its_target_fails_exact_sequence(tmp_path, monkeypatch):
    # Class reps that forget their top coordinate make every lift the
    # idempotent, whose projection is the identity, not the sampled target.
    monkeypatch.setattr(cuts.CutClass, "rep", property(
        lambda x: cuts.Cut(x.level, (Fraction(0),) * x.level, x.side)))
    failures = failures_of(tmp_path, PRUEFER, "exact_sequence")
    assert failures and all(re.fullmatch(r"maximal ideals at .*: constructed preimage "
                                         r"\{\"cuts\": .*\} missed its target", line)
                            for line in failures)


# -- one error rule: any exception in a check is that check's failure ---------

KIND_CHECKS = {
    "valuation": (DYADIC, ["regularity", "idempotent_uniqueness", "overring_transfer",
                           "semigroup_cross_check"]),
    "pruefer_fc": (PRUEFER, ["regularity", "idempotent_uniqueness", "exact_sequence",
                             "semigroup_cross_check"]),
    "poly_ext": ({"kind": "poly_ext", "base": [{"Zloc": [2]}]},
                 ["regularity", "classification_consistency", "strongly_discrete_detector",
                  "semigroup_cross_check"]),
}
# (module, function) -> the checks that call it
CALLERS = {
    (cuts, "is_regular"): {"regularity"},
    (cuts, "group_membership"): {"idempotent_uniqueness"},
    (cuts, "t_closure_over"): {"overring_transfer"},
    (P, "psi_localize"): {"exact_sequence"},
    (X, "decompose"): {"classification_consistency", "strongly_discrete_detector"},
    (semigroups, "sample_closure"): {"semigroup_cross_check"},
}


def raise_planted(*args):
    raise ZeroDivisionError("planted")


@pytest.mark.parametrize("kind, module, name", [
    (kind, module, name) for kind, (_, names) in KIND_CHECKS.items()
    for (module, name), callers in CALLERS.items() if callers & set(names)
], ids=lambda v: getattr(v, "__name__", v).split(".")[-1])
def test_every_check_records_a_foreign_exception(kind, module, name, tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.setattr(module, name, raise_planted)
    spec, names = KIND_CHECKS[kind]
    out = tmp_path / "report.json"
    assert main(["verify", write(tmp_path, "spec.json", spec), "--samples", "3", "--seed", "1",
                 "--json", str(out)]) == 2
    assert capsys.readouterr().err == ""
    checks = json.loads(out.read_text())["checks"]
    assert [c["name"] for c in checks] == names
    assert {c["name"] for c in checks if not c["passed"]} == CALLERS[module, name]
    for c in checks:
        assert all(line.endswith(": ZeroDivisionError: planted") for line in c["failures"])


def test_an_exact_sequence_sample_that_raises_fails_alone(tmp_path, capsys, monkeypatch):
    # Each sample of an open form multiplies its projections; the planted
    # error fails that sample alone, named by its pair and preimage, and
    # the form's later samples still run.  The ring form multiplies none.
    monkeypatch.setattr(cuts, "class_mul", raise_planted)
    out = tmp_path / "report.json"
    assert main(["verify", write(tmp_path, "spec.json", PRUEFER), "--samples", "2",
                 "--seed", "1", "--json", str(out)]) == 2
    assert capsys.readouterr().err == ""
    check = {c["name"]: c for c in json.loads(out.read_text())["checks"]}["exact_sequence"]
    _, m = load_model(json.dumps(PRUEFER))
    forms = {_form_text(form_json(f)): f
             for f in P.enumerate_idempotent_forms(m) if f.open_components}
    assert check["failure_count"] == len(check["failures"]) == 2 * len(forms) > 0
    named = []
    for line in check["failures"]:
        match = re.fullmatch(r"(.+?): sample (.+) \* (.+) with preimage (.+): "
                             r"ZeroDivisionError: planted", line)
        assert match, line
        named.append(match[1])
        for literal in match.groups()[1:]:
            a = P.tuple_from_json(m, json.loads(literal))
            assert P.classify_idempotent(m, a) == forms[match[1]]
    assert named == [text for text in forms for _ in range(2)]


def test_an_exact_sequence_draw_that_raises_is_named_by_its_form(tmp_path, monkeypatch):
    # Only open forms draw a target; each of their samples fails alone,
    # named by the form since it has no pair or preimage yet.
    monkeypatch.setattr(sampling, "target_cut", raise_planted)
    _, m = load_model(json.dumps(PRUEFER))
    texts = [_form_text(form_json(f)) for f in P.enumerate_idempotent_forms(m)
             if f.open_components]
    assert failures_of(tmp_path, PRUEFER, "exact_sequence", "--samples", "2") == [
        f"{text}: ZeroDivisionError: planted" for text in texts for _ in range(2)]


def test_a_draw_that_raises_fails_its_trial_by_number(tmp_path, capsys, monkeypatch):
    # Raised before a trial can name its sample, the error is named by the
    # trial's number, and every later trial still draws.
    monkeypatch.setattr(sampling, "random_cut", raise_planted)
    spec, names = KIND_CHECKS["valuation"]
    out = tmp_path / "report.json"
    assert main(["verify", write(tmp_path, "spec.json", spec), "--samples", "3", "--seed", "1",
                 "--json", str(out)]) == 2
    assert capsys.readouterr().err == ""
    checks = json.loads(out.read_text())["checks"]
    assert [c["name"] for c in checks] == names
    assert all(c["failures"] == [f"trial {n}: ZeroDivisionError: planted" for n in (1, 2, 3)]
               for c in checks)


def test_a_label_that_raises_fails_its_trial_by_number(tmp_path, capsys, monkeypatch):
    # A malformed draw passes as a sample until a check reads it; the
    # handler's label then writes its literal and raises in turn, and the
    # line names the trial and the label's own error.
    monkeypatch.setattr(sampling, "random_cut", lambda rng, g: None)
    spec = {"kind": "valuation", "group": ["Z", "Q"]}
    out = tmp_path / "report.json"
    assert main(["verify", write(tmp_path, "spec.json", spec), "--samples", "3", "--seed", "1",
                 "--json", str(out)]) == 2
    assert capsys.readouterr().err == ""
    checks = json.loads(out.read_text())["checks"]
    assert [c["name"] for c in checks] == KIND_CHECKS["valuation"][1]
    for c in checks:
        assert [line.split(": ")[:2] for line in c["failures"]] == [
            [f"trial {n}", "AttributeError"] for n in (1, 2, 3)]


def test_an_exact_sequence_label_that_raises_is_named_by_form_and_sample(monkeypatch):
    # Malformed group members raise in the test and again in the label that
    # writes their literals; each line names its form and its sample number
    # within that form, every form's samples in turn.
    monkeypatch.setattr(sampling, "group_cut", lambda rng, g, level, side: None)
    _, m = load_model(json.dumps(PRUEFER))
    report = checks.exact_sequence(m, KINDS["pruefer_fc"], 2, random.Random(1))
    texts = [_form_text(form_json(f)) for f in P.enumerate_idempotent_forms(m)]
    assert len(texts) == 6 and report["failure_count"] == 12
    assert [line.split(": AttributeError: ")[0] for line in report["failures"]] == [
        f"{text}: sample {k}" for text in texts for k in (1, 2)]


def test_a_fault_enumerating_the_forms_is_one_exact_sequence_line(tmp_path, capsys, monkeypatch):
    # `exact_sequence` enumerates its forms in its first trial, so a fault
    # there is one failure line of that check, and the report is kept.
    def planted_join(forms):
        raise IndexError("planted")
    monkeypatch.setattr(P, "_join", planted_join)
    out = tmp_path / "report.json"
    spec = {"kind": "pruefer_fc", "valuations": [["Z"], ["Q"]]}
    assert main(["verify", write(tmp_path, "spec.json", spec), "--samples", "10", "--seed", "1",
                 "--json", str(out)]) == 2
    assert capsys.readouterr().err == ""
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    exact = checks["exact_sequence"]
    assert exact["failures"] == ["idempotent forms: IndexError: planted"]
    assert exact["failure_count"] == 1
    # Z has one rank-1 form and Q two: the instance count needs no enumeration.
    assert exact["instances"] == 10 * 1 * 2


def test_form_count_is_the_kernels_count(group):
    assert checks.form_count([group]) == len(cuts.idempotent_forms(group))
    assert checks.form_count([group, GROUPS["Z_Q"]]) == len(cuts.idempotent_forms(group)) * 3


def test_a_fault_listing_rank1_forms_stays_inside_the_checks(tmp_path, capsys, monkeypatch):
    # The spec's form bound and the exact sequence's instance count are
    # counted off the components, so a fault in `cuts.idempotent_forms`
    # reaches only the trials that call it.
    def planted_forms(g):
        raise IndexError("planted")
    monkeypatch.setattr(cuts, "idempotent_forms", planted_forms)
    out = tmp_path / "report.json"
    spec = {"kind": "pruefer_fc", "valuations": [["Z"], ["Q"]]}
    assert main(["verify", write(tmp_path, "spec.json", spec), "--samples", "10", "--seed", "1",
                 "--json", str(out)]) == 2
    assert capsys.readouterr().err == ""
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    exact = checks["exact_sequence"]
    assert exact["failures"] == ["idempotent forms: IndexError: planted"]
    assert exact["instances"] == 10 * 1 * 2


# -- one model protocol: a cut reads alike as every kind's literal -------------

ONE_GROUP = st.lists(st.sampled_from(["Z", "Q", {"Zloc": [2]}, {"Zloc": [3]}]),
                     min_size=1, max_size=3)
POLY_VARIANT = {"ring": "overring", "max_ideals": "idempotent_max_class"}


@settings(max_examples=60)
@given(group=ONE_GROUP, seed=st.integers(0, 2 ** 32))
def test_kinds_agree_on_one_valuation(group, seed):
    # A valuation domain V, the intersection of V alone and V[X] run on the
    # same one valuation: a cut of V classifies alike as a `valuation`
    # literal, a one-valuation `pruefer_fc` tuple and a `poly_ext`
    # coefficient, the last compared on its class representative.
    valuation = load_model(json.dumps({"kind": "valuation", "group": group}))
    pruefer = load_model(json.dumps({"kind": "pruefer_fc", "valuations": [group]}))
    poly = load_model(json.dumps({"kind": "poly_ext", "base": group}))
    cut = cuts.cut_to_json(random_raw_cut(random.Random(seed), valuation[1]))
    v = cmd_classify(*valuation, json.dumps(cut))
    p = cmd_classify(*pruefer, json.dumps({"cuts": [cut]}))
    x = cmd_classify(*poly, json.dumps({"coeff": cut}))
    assert p["ideal"] == {"cuts": [v["ideal"]]} and p["witness"] == {"cuts": [v["witness"]]}
    assert p["idempotent_form"] == v["idempotent_form"]
    assert p["regularity"] == [v["regularity"]]
    g = valuation[1]
    coeff = cuts.cut_from_json(g, x["ideal"]["coeff"])
    assert coeff == cuts.class_of(g, cuts.cut_from_json(g, v["ideal"])).rep
    rep = cmd_classify(*valuation, json.dumps(x["ideal"]["coeff"]))
    assert rep["ideal"] == x["ideal"]["coeff"]
    assert rep["idempotent_form"] == v["idempotent_form"]
    assert x["idempotent_form"] == {"variant": POLY_VARIANT[v["idempotent_form"]["variant"]],
                                    "level": v["idempotent_form"]["levels"][0]}
    assert x["regularity"] == rep["regularity"]
    assert x["regularity"]["idempotent"] == v["regularity"]["idempotent"]

    # decompose lists the same forms: by level, ring before maximal ideal,
    # except that V[X] lists its overrings first
    def forms(entries, level, is_max):
        return [(level(e), is_max(e)) for e in entries]
    dv, dp, dx = (cmd_decompose(*model)["idempotents"] for model in (valuation, pruefer, poly))
    by_level = forms(dv, lambda e: e["level"], lambda e: e["kind"] == "idempotent_prime")
    assert by_level == sorted(by_level)
    assert forms(dp, lambda e: e["form"]["levels"][0],
                 lambda e: e["form"]["max_ideal_components"] == [1]) == by_level
    assert forms(dx, lambda e: e["idempotent"]["level"],
                 lambda e: e["idempotent"]["variant"] == "idempotent_max_class") \
        == sorted(by_level, key=lambda f: f[1])


def test_a_kind_reaches_the_package_through_its_modules(monkeypatch):
    # A kind's fields look each function up on its module at every call, so
    # a patch of the module attribute, as the benchmark's tracer makes,
    # sees the calls made through the kind.
    seen = []

    def counted(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: seen.append(name) or real(*args))
    for module, name in ((P, "tuple_from_json"), (P, "tuple_to_json"),
                         (P, "enumerate_idempotent_forms"), (tclass.cli, "form_json"),
                         (tclass.cli, "value_group_from_json")):
        counted(module, name)
    kind, model = load_model(json.dumps({"kind": "pruefer_fc", "valuations": [["Z"], ["Q"]]}))
    literal = {"cuts": [cut_lit(1, [1], "closed"), cut_lit(1, ["1/2"], "open")]}
    cmd_classify(kind, model, json.dumps(literal))
    assert seen.count("tuple_from_json") == 1
    assert seen.count("tuple_to_json") == 2  # the ideal and the witness
    assert seen.count("form_json") == 1
    seen.clear()
    cmd_decompose(*load_model(json.dumps({"kind": "valuation", "group": ["Q"]})))
    assert seen == ["value_group_from_json", "enumerate_idempotent_forms"]


# -- fuzz: any JSON, any literal, every command ends in exit 0, 1 or 2 --------

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
NUMBERS = st.sampled_from([
    "0", "1/3", "-2/4", "1/0", "12", "1e100000", "1e-100000", "1e1000000000", "0.5",
    "1e1_0", "1e1_000_000_000",
    "nan", "inf", " 1 ", "1_0", "", "x",
]) | st.integers() | st.floats() | st.booleans() | st.none()
CUT = st.fixed_dictionaries({
    "level": st.integers(-1, 4) | st.booleans() | st.floats() | st.text(max_size=2),
    "boundary": st.lists(NUMBERS, max_size=4) | NUMBERS | st.dictionaries(
        st.text(max_size=2), NUMBERS, max_size=2),
    "side": st.sampled_from(["open", "closed", "Open", "", 1, None]),
})
LITERAL = CUT | st.fixed_dictionaries({"cuts": st.lists(CUT, max_size=3)}) \
    | st.fixed_dictionaries({"coeff": CUT}) | JSON
COMPONENT = st.sampled_from(["Z", "Q", "R", 0, None]) | st.fixed_dictionaries(
    {"Zloc": st.lists(st.sampled_from([2, 3, 4, 1, 0, -3, True, 10 ** 12 + 39, 2 ** 89 - 1])
                      | st.integers(), max_size=2)})
GROUP = st.lists(COMPONENT, max_size=2) | JSON
SPEC = st.one_of(
    st.fixed_dictionaries({"kind": st.just("valuation"), "group": GROUP}),
    st.fixed_dictionaries({"kind": st.just("pruefer_fc"),
                           "valuations": st.lists(GROUP, max_size=2) | JSON}),
    st.fixed_dictionaries({"kind": st.just("poly_ext"), "base": GROUP}),
    st.fixed_dictionaries({"kind": JSON}),
    JSON,
)
VALID_SPEC = st.sampled_from([
    {"kind": "valuation", "group": ["Z", "Q"]},
    {"kind": "valuation", "group": [{"Zloc": [3]}]},
    {"kind": "pruefer_fc", "valuations": [[{"Zloc": [2]}], ["Z"]]},
    {"kind": "poly_ext", "base": ["Q"]},
])


def run_fuzzed(command, spec, literal=None):
    """Run one command with the spec as a file and the literal inline (or as
    a file when it is not an object or array); any escaping exception fails
    the test."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = Path(tmp) / "spec.json"
        spec_path.write_text(json.dumps(spec))
        argv = [command, str(spec_path)]
        if command == "classify":
            text = json.dumps(literal)
            if not text.startswith(("{", "[")):
                lit_path = Path(tmp) / "ideal.json"
                lit_path.write_text(text)
                text = str(lit_path)
            argv += ["--ideal", text]
        elif command == "verify":
            argv += ["--samples", "1"]
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    assert len(lines) <= 1 and all(line.startswith("error: ") for line in lines), lines
    if code == 1:
        assert lines, "exit 1 without a message"


@settings(max_examples=200)
@given(spec=SPEC | VALID_SPEC, literal=LITERAL)
def test_fuzz_classify(spec, literal):
    run_fuzzed("classify", spec, literal)


@settings(max_examples=100)
@given(spec=SPEC | VALID_SPEC)
def test_fuzz_decompose(spec):
    run_fuzzed("decompose", spec)


@settings(max_examples=50)
@given(spec=SPEC | VALID_SPEC)
def test_fuzz_verify(spec):
    run_fuzzed("verify", spec)
