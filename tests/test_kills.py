"""Planted faults against `verify`: which specs catch each one.

Each fault is a one-line change to the cut kernel or a model, planted with
`monkeypatch` in the module that defines it (no file is edited).  The
matrix pins the outcome of `tclass verify SPEC --samples 10 --seed 1`
under every fault on every spec: exit 0 (the fault passes), exit 2 (the
fault is caught), or the name of the exception that escaped `main` (a
traceback).  A change to `verify` may turn a pass or a traceback into
exit 2, never the reverse; a cell changes together with the code that
moves it.  A fault that no `verify` run can catch is listed in
`EQUIVALENT` with the reason.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from tclass import cuts as C
from tclass import polyext as X
from tclass import pruefer as P
from tclass.cli import main

ZHALF = {"Zloc": [2]}
ZTHIRD = {"Zloc": [3]}

SPECS = {
    "valuation:Z,Q": {"kind": "valuation", "group": ["Z", "Q"]},
    "valuation:Z[1/2]": {"kind": "valuation", "group": [ZHALF]},
    "valuation:Q,Z,Z[1/2]": {"kind": "valuation", "group": ["Q", "Z", ZHALF]},
    "pruefer:Z[1/2]|Z": {"kind": "pruefer_fc", "valuations": [[ZHALF], ["Z"]]},
    "pruefer:Z|Z,Q": {"kind": "pruefer_fc", "valuations": [["Z"], ["Z", "Q"]]},
    "poly_ext:Z,Q": {"kind": "poly_ext", "base": ["Z", "Q"]},
    "poly_ext:Z[1/3]": {"kind": "poly_ext", "base": [ZTHIRD]},
}


def _form_cut_swapped(real):
    # At a dense level the ring cut and the maximal ideal trade places.
    def form_cut(g, f):
        level = f.overring.levels[0]
        if not g.components[level - 1].dense:
            return real(g, f)
        return C.ring_cut(g, level) if f.open_components else C.prime_cut(g, level)
    return form_cut


def _residual_negated(real):
    # The residual audit admits exactly the idempotents it used to refuse.
    def residual_membership(g, L, t, idems):
        admitted = real(g, L, t, idems)
        return [f for f, _, _ in idems if f not in admitted]
    return residual_membership


def _mul_deeper_side(real):
    # The deeper operand's side instead of the shallower one's.
    def mul(g, a, b):
        level = min(a.level, b.level)
        boundary = tuple(x + y for x, y in zip(a.boundary, b.boundary))
        if a.level == b.level:
            side = C.OPEN if C.OPEN in (a.side, b.side) else C.CLOSED
        else:
            side = a.side if a.level > b.level else b.side
        return C.normalize(g, C.Cut(level, boundary, side))
    return mul


def _coset_rep_no_inverse(real):
    # On Z[1/p] the p-part of the denominator is dropped without its inverse.
    def coset_rep(comp, q):
        if comp.kind in ("Q", "Z"):
            return real(comp, q)
        d = q.denominator
        for p in comp.primes:
            while d % p == 0:
                d //= p
        return Fraction(0) if d == 1 else Fraction(q.numerator % d, d)
    return coset_rep


def _class_of_unreduced(real):
    return lambda g, a: C.CutClass(a)


def _idempotent_cut_ring(real):
    return lambda g, a: C.ring_cut(g)


def _t_closure_over_ring_if_open(real):
    def t_closure_over(g, level, a):
        return C.ring_cut(g, level) if a.side == C.OPEN else real(g, level, a)
    return t_closure_over


def _quotient_open_divisor_keeps_side(real):
    # An open divisor at A's level leaves A's side instead of closing it.
    def quotient(g, a, b):
        if b.level != a.level or b.side == C.CLOSED:
            return real(g, a, b)
        boundary = tuple(x - y for x, y in zip(a.boundary, b.boundary))
        return C.normalize(g, C.Cut(a.level, boundary, a.side))
    return quotient


def _normalize_no_collapse(real):
    # The first rule is dropped: a non-member coordinate below the top no
    # longer collapses the cut to its level.  The second rule still runs.
    def normalize(g, a):
        top = real(g, C.Cut(a.level, (Fraction(0),) * (a.level - 1) + a.boundary[-1:], a.side))
        return C.Cut(top.level, a.boundary[:-1] + top.boundary[-1:], top.side)
    return normalize


def _idempotent_forms_rings_only(real):
    return lambda g: [f for f in real(g) if not f.open_components]


def _split_all_rings(real):
    # Every component of a product form splits as its overring's ring form.
    return lambda form: [C.IdempotentForm(f.overring, frozenset()) for f in real(form)]


def _decompose_rings_only(real):
    return lambda m: [f for f in real(m) if not f.open_components]


# fault -> (module that defines it, name there, wrapper of the real function)
FAULTS = {
    "form_cut swaps ring and prime": (C, "form_cut", _form_cut_swapped),
    "residual_membership negated": (C, "residual_membership", _residual_negated),
    "mul takes the deeper side": (C, "mul", _mul_deeper_side),
    "_coset_rep drops the inverse": (C, "_coset_rep", _coset_rep_no_inverse),
    "class_of unreduced": (C, "class_of", _class_of_unreduced),
    "idempotent_cut is the ring cut": (C, "idempotent_cut", _idempotent_cut_ring),
    "t_closure_over rings open cuts": (C, "t_closure_over", _t_closure_over_ring_if_open),
    "quotient keeps A's side on an open divisor":
        (C, "quotient", _quotient_open_divisor_keeps_side),
    "normalize skips its first rule": (C, "normalize", _normalize_no_collapse),
    "idempotent_forms drops the max-ideal forms":
        (C, "idempotent_forms", _idempotent_forms_rings_only),
    "pruefer._split drops the open components": (P, "_split", _split_all_rings),
    "polyext.decompose drops the max-ideal forms": (X, "decompose", _decompose_rings_only),
}

# fault -> outcome per spec, in SPECS order
KILLS = {
    "form_cut swaps ring and prime": (2, 2, 2, 2, 2, 2, 2),
    "residual_membership negated": (2, 2, 2, 2, 2, 0, 0),
    "mul takes the deeper side": (0, 0, 2, 0, 0, 0, 0),
    "_coset_rep drops the inverse": (0, 0, 0, 2, 0, 0, 0),
    "class_of unreduced": (2, 2, 2, 2, 2, 2, 2),
    "idempotent_cut is the ring cut": (2, 2, 2, 2, 2, 2, 2),
    "t_closure_over rings open cuts": (2, 2, 2, 0, 0, 0, 0),
    "quotient keeps A's side on an open divisor": (2, 2, 2, 2, 2, 2, 2),
    "normalize skips its first rule": (0, 0, 0, 0, 0, 0, 0),
    "idempotent_forms drops the max-ideal forms": (2, 2, 2, 2, 2, 2, 2),
    "pruefer._split drops the open components": (2, 2, 2, 2, 2, 2, 2),
    "polyext.decompose drops the max-ideal forms": (0, 0, 0, 0, 0, 2, 2),
}

# Faults that no `verify` run can catch, each with the reason.
EQUIVALENT = {
    "normalize skips its first rule":
        "every cut `verify` hands to `normalize` has member coordinates below "
        "its top (sampled cuts, exact-sequence members and kernel results "
        "alike), so the rule never fires there; it is live on the raw literals "
        "`classify` reads, where the golden reports of raw literals catch it",
}


def outcome(spec) -> object:
    argv = ["verify", json.dumps(spec), "--samples", "10", "--seed", "1"]
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return main(argv)
    except Exception as e:  # a traceback: pinned by the exception's name
        return type(e).__name__


def test_matrix_covers_every_fault_and_spec():
    assert set(KILLS) == set(FAULTS)
    assert all(len(row) == len(SPECS) for row in KILLS.values())
    assert all(set(KILLS[fault]) == {0} for fault in EQUIVALENT)


def plant(monkeypatch, fault):
    module, name, wrap = FAULTS[fault]
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_kill_matrix(fault, monkeypatch):
    plant(monkeypatch, fault)
    got = tuple(outcome(spec) for spec in SPECS.values())
    assert dict(zip(SPECS, got)) == dict(zip(SPECS, KILLS[fault]))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_every_spec_passes_without_a_fault(name):
    assert outcome(SPECS[name]) == 0
