"""Where each `InternalInconsistencyError` guard runs, and a planted fault
that trips it there.

`src/tclass` holds seven raise sites.  Five audit one cut and run in
`cuts.is_regular`, once per cut: the regularity identity, the witness
shift, the `(I : I)` recheck of `stabilizer` (through `idempotent_cut`),
the witness idempotent (I (T:I))_t against the form `classify_idempotent`
reads off the cut, and the containment probe behind `t_closure` being the
identity.  `is_regular` runs on every component of every sample in
`verify`'s first check, `regularity`, and in `classify` for every kind, so
`classify` ends in exit 2 with one stderr line naming the guard.  `verify`
ends in exit 2 too; `regularity` lists the guard as a counterexample, and
the report keeps it when the fault makes a later sample or form raise,
since every check records any exception as a failure of the trial that
raised it.  The residual audit of `cuts.group_membership` runs in
`idempotent_uniqueness`, once per distinct sampled (component, cut),
against the idempotents `cuts.idempotents` builds at the first sample.
The guard of `cuts._coset_rep` refuses a class denominator below 1, on
which its `Zloc` loop would never end.

Classification, `psi_localize` and the group operations decide membership
in O(1) from a canonical cut's level and side, and audit nothing.

The other model errors (`DomainMismatchError`, `NotInGroupError`,
`NotIdempotentError`) are raised at seven sites, pinned the same way in
`MODEL_ERROR_SITES`, each with a call that trips it there.
"""

import ast
import importlib
import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import GROUPS, exact_sample
from tclass import cuts as C
from tclass import pruefer as P
from tclass.checks import exact_form, exact_sequence
from tclass.cli import KINDS, _form_text, form_json, main
from tclass.sampling import random_cut
from test_kills import _form_cut_swapped, _residual_negated

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tclass"
SPEC = {"kind": "pruefer_fc", "valuations": [[{"Zloc": [2]}], ["Z", "Q"]]}
MODEL = P.PrueferModel((GROUPS["Zhalf"], GROUPS["Z_Q"]))
Z_Q = json.dumps({"kind": "valuation", "group": ["Z", "Q"]})
PRINCIPAL = json.dumps({"level": 1, "boundary": ["3"], "side": "closed"})


def open_forms():
    return [f for f in P.enumerate_idempotent_forms(MODEL) if f.open_components]


def random_tuple(rng):
    return P.IdealTuple(tuple(random_cut(rng, g) for g in MODEL.valuations))


@pytest.fixture
def diverging_residual(monkeypatch):
    monkeypatch.setattr(C, "residual_membership", _residual_negated(C.residual_membership))


def _self_residual_prime(real):
    return lambda g, a, b: C.prime_cut(g, a.level) if a == b else real(g, a, b)


# The guards of `cuts.is_regular`: message -> (name in `cuts`, wrapper of
# the real function, a `valuation [Z, Q]` literal that trips it).
REGULAR_GUARDS = {
    "regularity identity I = (I^2 (I:I^2))_t failed":
        ("t_closure", lambda real: lambda g, a: C.ring_cut(g, a.level), PRINCIPAL),
    "witness shift does not realize the square":
        ("translate", lambda real: lambda g, a, shift: a, PRINCIPAL),
    "stabilizer disagrees with (I : I)":
        ("quotient", _self_residual_prime, PRINCIPAL),
    "witness idempotent disagrees with classification":
        ("form_cut", _form_cut_swapped,
         json.dumps({"level": 2, "boundary": ["0", "1/2"], "side": "open"})),
    "t-closure probe escaped its own cut":
        ("_probe_point", lambda real: lambda g, a: g.element([F(-100)] * g.rank), PRINCIPAL),
}
RESIDUAL = "membership tests diverged"
COSET = "coset denominator below 1"


def raise_sites() -> list:
    """(module, message) of every `raise InternalInconsistencyError(...)`."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                fn = node.exc.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name == "InternalInconsistencyError":
                    sites.append((path.stem, node.exc.args[0].value))
    return sites


def _raised(module, call: ast.Call):
    """The class that `raise X(...)` or `raise M.X(...)` names in `module`."""
    fn = call.func
    if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name):
        return getattr(getattr(module, fn.value.id, None), fn.attr, None)
    return getattr(module, getattr(fn, "id", ""), None)


OTHER_MODEL_ERRORS = (C.DomainMismatchError, C.NotInGroupError, C.NotIdempotentError)


def model_error_sites() -> list:
    """`module.function` of every raise of `OTHER_MODEL_ERRORS`, read off
    each module but `__init__` and `__main__` (importing `__main__` runs the
    command line).  `semigroups` raises a `NotIdempotentError` of its own, a
    table error and no model error, so it does not count."""
    sites = []
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"tclass.{path.stem}")
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                sites += [f"{path.stem}.{fn.name}" for node in ast.walk(fn)
                          if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                          and _raised(module, node.exc) in OTHER_MODEL_ERRORS]
    return sites


def _not_idempotent_form_cut(monkeypatch):
    # Over Z, <1; (1); closed> squares to <1; (2); closed>.
    monkeypatch.setattr(C, "form_cut", lambda g, form: C.Cut(1, (F(1),), C.CLOSED))
    return C.idempotents(GROUPS["Z"])


RINGS = C.OverringSpec((1, 2))
OPEN_FORM = P._join((C.rank1_form(1, True), C.rank1_form(2, False)))

# Every raise of `OTHER_MODEL_ERRORS`: site -> (error, message, a call
# that trips it there).
MODEL_ERROR_SITES = {
    "cuts.t_closure_over": (C.DomainMismatchError, "not an ideal of the overring",
                            lambda mp: C.t_closure_over(GROUPS["Z2"], 1, C.ring_cut(GROUPS["Z2"]))),
    "cuts.form_cut": (C.DomainMismatchError, "exactly one component",
                      lambda mp: C.form_cut(GROUPS["Z"], C.IdempotentForm(RINGS, frozenset()))),
    "cuts.idempotents": (C.NotIdempotentError, "is not idempotent", _not_idempotent_form_cut),
    "pruefer._check": (C.DomainMismatchError, "tuple has 0 components, model has 2",
                       lambda mp: P.classify_idempotent(MODEL, P.IdealTuple(()))),
    "pruefer.ring_tuple": (C.DomainMismatchError, "overring has wrong number of components",
                           lambda mp: P.ring_tuple(MODEL, C.OverringSpec((1,)))),
    "pruefer.form_tuple": (C.DomainMismatchError, "form has 1 components, model has 2",
                           lambda mp: P.form_tuple(MODEL, C.rank1_form(1, False))),
    "pruefer.psi_localize": (
        C.NotInGroupError, "outside the constituent group",
        lambda mp: P.psi_localize(MODEL, P.ring_tuple(MODEL, RINGS), OPEN_FORM)),
}


def test_seven_model_error_sites_each_tripped_below():
    sites = model_error_sites()
    assert len(sites) == 7 and sorted(sites) == sorted(MODEL_ERROR_SITES), sites


@pytest.mark.parametrize("site", sorted(MODEL_ERROR_SITES))
def test_model_error_site_trips(site, monkeypatch):
    error, message, trip = MODEL_ERROR_SITES[site]
    with pytest.raises(error, match=message) as info:
        trip(monkeypatch)
    assert info.traceback[-1].name == site.split(".")[1]


def test_seven_guards_each_tripped_below():
    sites = raise_sites()
    assert len(sites) == 7, sites
    assert sorted(msg for _, msg in sites) == sorted([*REGULAR_GUARDS, RESIDUAL, COSET])


@pytest.mark.parametrize("message", sorted(REGULAR_GUARDS), ids=lambda m: REGULAR_GUARDS[m][0])
def test_regular_guard_trips_in_classify_and_verify(message, monkeypatch, capsys):
    name, plant, literal = REGULAR_GUARDS[message]
    monkeypatch.setattr(C, name, plant(getattr(C, name)))
    assert main(["classify", Z_Q, "--ideal", literal]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err, err

    assert main(["verify", Z_Q, "--samples", "10", "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert message in out + err


def verify_report(tmp_path, capsys) -> dict:
    """`verify` on SPEC, which must fail with a report and no stderr line."""
    spec, out = tmp_path / "spec.json", tmp_path / "report.json"
    spec.write_text(json.dumps(SPEC))
    assert main(["verify", str(spec), "--samples", "2", "--seed", "1", "--json", str(out)]) == 2
    assert capsys.readouterr().err == ""
    return {c["name"]: c for c in json.loads(out.read_text())["checks"]}


def test_residual_divergence_fails_verify_in_idempotent_uniqueness(
        tmp_path, capsys, diverging_residual):
    checks = verify_report(tmp_path, capsys)
    # The exact sequence audits nothing, so only the uniqueness check fails,
    # once per sample, each line naming the sampled tuple.
    assert [n for n, c in checks.items() if not c["passed"]] == ["idempotent_uniqueness"]
    failures = checks["idempotent_uniqueness"]["failures"]
    assert len(failures) == 2
    for line in failures:
        literal, error, message = line.rsplit(": ", 2)
        assert (error, message) == ("InternalInconsistencyError", RESIDUAL)
        assert len(json.loads(literal)["cuts"]) == MODEL.k


def test_regularity_guard_reaches_the_report_when_later_checks_raise(
        tmp_path, capsys, monkeypatch):
    # The swapped form cut makes `psi_localize` raise NotInGroupError inside
    # `exact_sequence`; the report still carries what `regularity` found.
    name, plant, _ = REGULAR_GUARDS["witness idempotent disagrees with classification"]
    monkeypatch.setattr(C, name, plant(getattr(C, name)))
    checks = verify_report(tmp_path, capsys)
    found = checks["regularity"]["failures"]
    assert found and all(line.startswith('{"cuts": [') and line.endswith(
        "witness idempotent disagrees with classification") for line in found)
    sequence = checks["exact_sequence"]["failures"]
    assert any(line.endswith(": tuple class lies outside the constituent group")
               for line in sequence)


def tuple_literals(line: str) -> list:
    """Every tuple literal a failure line names, in order."""
    decoder, out, at = json.JSONDecoder(), [], line.find('{"cuts"')
    while at >= 0:
        literal, end = decoder.raw_decode(line, at)
        out.append(literal)
        at = line.find('{"cuts"', end)
    return out


def test_exact_sequence_failure_replays_through_classify(tmp_path, capsys, monkeypatch):
    # The swapped form cut puts each form's idempotent tuple outside its
    # own group; the failure names that tuple by a literal `classify` reads.
    real = C.form_cut
    monkeypatch.setattr(C, "form_cut", _form_cut_swapped(real))
    spec, out = tmp_path / "spec.json", tmp_path / "report.json"
    spec.write_text(json.dumps(SPEC))
    assert main(["verify", str(spec), "--samples", "10", "--seed", "1", "--json", str(out)]) == 2
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    failures = checks["exact_sequence"]["failures"]
    assert failures
    for line in failures:
        assert line.endswith(": tuple class lies outside the constituent group")
        [literal] = tuple_literals(line)
        ideal = json.dumps(literal)
        # Under the fault the literal replays: `classify` trips the witness guard.
        assert main(["classify", str(spec), "--ideal", ideal]) == 2
        assert "witness idempotent disagrees with classification" in capsys.readouterr().err
        # Without it, the literal classifies to another form than the line's.
        with monkeypatch.context() as m:
            m.setattr(C, "form_cut", real)
            assert main(["classify", str(spec), "--ideal", ideal]) == 0
        capsys.readouterr()
        form = P.classify_idempotent(MODEL, P.tuple_from_json(MODEL, literal))
        assert not line.startswith(_form_text(form_json(form)) + ": ")


def test_exact_sequence_records_a_sample_error_with_its_tuples(monkeypatch):
    def planted(g, x, y):
        raise C.NotInGroupError("planted")
    monkeypatch.setattr(C, "class_mul", planted)
    report = exact_sequence(MODEL, KINDS["pruefer_fc"], 2, random.Random(1))
    forms = {_form_text(form_json(f)): f for f in open_forms()}
    assert report["failure_count"] == len(report["failures"]) == 2 * len(forms)
    named = []
    for line in report["failures"]:
        text, sample = line.split(": ", 1)
        named.append(text)
        assert sample.startswith("sample ") and sample.endswith(": NotInGroupError: planted")
        tuples = [P.tuple_from_json(MODEL, t) for t in tuple_literals(line)]
        # the sampled pair and the preimage, all in the form's group
        assert len(tuples) == 3
        assert all(P.classify_idempotent(MODEL, a) == forms[text] for a in tuples)
    assert named == [text for text in forms for _ in range(2)]


def test_exact_sequence_runs_no_residual_audit(diverging_residual):
    # `psi_localize` decides membership by classification, so the planted
    # divergence passes through unseen: every form's trial passes its test,
    # and so does each sample drawn at the form.
    rng = random.Random(1)
    for form in P.enumerate_idempotent_forms(MODEL):
        trial = exact_form(MODEL, KINDS["pruefer_fc"], form, "FORM")
        assert trial.test(trial.draw(rng)) == []
        sample = exact_sample(MODEL, form)
        for _ in range(2):
            assert sample.test(sample.draw(rng)) == []


def test_coset_rep_guard_trips_on_a_zero_denominator():
    # Unguarded, `while d % p == 0` never ends on d = 0.
    with pytest.raises(C.InternalInconsistencyError, match=COSET):
        C._coset_rep(GROUPS["Zhalf"].components[0], 1, 0)


def test_psi_localize_rejects_tuples_outside_the_group(rng):
    forms = P.enumerate_idempotent_forms(MODEL)
    idems = [C.idempotents(g) for g in MODEL.valuations]
    outside = 0
    for _ in range(20):
        a = random_tuple(rng)
        # Componentwise: a lies in a form's group exactly when each cut's
        # audited membership is that form's component form alone.
        per = list(map(C.group_membership, MODEL.valuations, a.cuts, idems))
        for form in forms:
            if per == [[f] for f in P._split(form)]:
                assert len(P.psi_localize(MODEL, a, form)) == len(form.open_components)
            else:
                outside += 1
                with pytest.raises(C.NotInGroupError):
                    P.psi_localize(MODEL, a, form)
    assert outside
