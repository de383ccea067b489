"""The audits `psi_localize` no longer repeats still trip where they run.

`psi_localize` decides membership by `pruefer.classify_idempotent`, the
product of the component classifications of `cuts.classify_idempotent`,
whose witness guard it keeps on every component.  The residual-arithmetic
audit of `group_membership` runs in the `idempotent_uniqueness` check of
`verify` and on the operands of `cuts.group_mul`.
"""

import json
import random

import pytest

from conftest import GROUPS
from tclass import cuts as C
from tclass import pruefer as P
from tclass.cli import main
from tclass.sampling import random_cut

SPEC = {"kind": "pruefer_fc", "valuations": [[{"Zloc": [2]}], ["Z", "Q"]]}
MODEL = P.PrueferModel((GROUPS["Zhalf"], GROUPS["Z_Q"]))


def open_forms():
    return [f for f in P.enumerate_idempotent_forms(MODEL) if f.open_components]


def random_tuple(rng):
    return P.IdealTuple(tuple(random_cut(rng, g) for g in MODEL.valuations))


@pytest.fixture
def diverging_residual(monkeypatch):
    real = C.residual_membership
    monkeypatch.setattr(C, "residual_membership", lambda g, L, J: not real(g, L, J))


def unreachable(*args):
    raise AssertionError("the exact-sequence check ran")


def test_residual_divergence_fails_verify_in_idempotent_uniqueness(
        tmp_path, capsys, monkeypatch, diverging_residual):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC))
    # `idempotent_uniqueness` runs before the exact sequence; stopping there
    # shows the audit trips in that check.
    monkeypatch.setattr(P, "verify_exact_sequence", unreachable)
    assert main(["verify", str(spec), "--samples", "2", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "membership tests diverged" in err


def test_residual_divergence_trips_in_exact_sequence_group_mul(diverging_residual):
    for form in open_forms():
        with pytest.raises(C.InternalInconsistencyError, match="membership tests diverged"):
            P.verify_exact_sequence(MODEL, form, 1, random.Random(1))


def test_psi_localize_rejects_tuples_outside_the_group(rng):
    forms = P.enumerate_idempotent_forms(MODEL)
    outside = 0
    for _ in range(20):
        a = random_tuple(rng)
        for form in forms:
            if P.group_membership(MODEL, a, P.form_tuple(MODEL, form)):
                assert len(P.psi_localize(MODEL, a, form)) == len(form.open_components)
            else:
                outside += 1
                with pytest.raises(C.NotInGroupError):
                    P.psi_localize(MODEL, a, form)
    assert outside


def test_classify_witness_guard_trips_on_a_wrong_form_tuple(tmp_path, capsys, monkeypatch):
    real = C.form_cut
    form = open_forms()[0]
    j = P.form_tuple(MODEL, form)

    def swapped(g, f):
        # Still idempotent, but the wrong one: at a dense level the ring cut
        # and the maximal ideal trade places.
        level = f.overring.levels[0]
        if not g.components[level - 1].dense:
            return real(g, f)
        return C.ring_cut(g, level) if f.open_components else C.prime_cut(g, level)

    monkeypatch.setattr(C, "form_cut", swapped)
    # The first component (dense, rank 1) trips the witness guard of
    # `cuts.classify_idempotent` in every product classification.
    a = random_tuple(random.Random(3))
    with pytest.raises(C.InternalInconsistencyError, match="witness idempotent"):
        P.classify_idempotent(MODEL, a)
    with pytest.raises(C.InternalInconsistencyError, match="witness idempotent"):
        P.psi_localize(MODEL, j, form)

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC))
    assert main(["verify", str(spec), "--samples", "2", "--seed", "1"]) == 2
    assert "witness idempotent" in capsys.readouterr().err
