"""Planted faults against `verify`: which specs catch each one.

Each fault is a one-line change to the cut kernel or a model, planted with
`monkeypatch` in the module that defines it (no file is edited).  The
matrix pins the outcome of `tclass verify SPEC --samples 10 --seed 1`
under every fault on every spec: exit 0 (the fault passes) or exit 2 (the
fault is caught).  `verify` records every exception a check raises as a
failure of that check, so no fault may end in a traceback; `outcome`
still names the exception that escapes `main`, so one that does shows
in its cell.  A change to `verify` may turn a pass into exit 2, never
the reverse; a cell changes together with the code that moves it.  A
cell that no `verify` run can catch, a (fault, spec) pair where no input
reaches the fault, is listed in `EQUIVALENT` with the reason.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd

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


def _side_deeper(real):
    # `mul`'s side rule takes the deeper operand's side instead of the
    # shallower one's, in `mul` and `class_row` alike.
    def product_side(a_level, a_side, b_level, b_side):
        if a_level == b_level:
            return real(a_level, a_side, b_level, b_side)
        return a_side if a_level > b_level else b_side
    return product_side


def _coset_rep_no_inverse(real):
    # On Z[1/p] the p-part of the denominator is dropped without its inverse.
    def coset_rep(comp, n, d):
        if comp.kind in ("Q", "Z"):
            return real(comp, n, d)
        for p in comp.primes:
            while d % p == 0:
                d //= p
        n %= d
        common = gcd(n, d)
        return n // common, d // common
    return coset_rep


def _class_of_unreduced(real):
    # The class keyed by the top as it stands: no reduction modulo C.
    def class_of(g, a):
        top = a.boundary[-1]
        return C.CutClass(a.level, a.side, top.numerator, top.denominator)
    return class_of


def _class_of_past_top(real):
    # The top read one coordinate past the boundary: an IndexError.
    def class_of(g, a):
        return real(g, C.Cut(a.level, a.boundary[:-1] + (a.boundary[a.level],), a.side))
    return class_of


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
    "mul takes the deeper side": (C, "_product_side", _side_deeper),
    "_coset_rep drops the inverse": (C, "_coset_rep", _coset_rep_no_inverse),
    "class_of unreduced": (C, "class_of", _class_of_unreduced),
    "class_of reads past the top": (C, "class_of", _class_of_past_top),
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
    "mul takes the deeper side": (2, 0, 2, 0, 2, 2, 0),
    "_coset_rep drops the inverse": (0, 0, 0, 2, 0, 0, 0),
    "class_of unreduced": (2, 2, 2, 2, 2, 2, 2),
    "class_of reads past the top": (2, 2, 2, 2, 2, 2, 2),
    "idempotent_cut is the ring cut": (2, 2, 2, 2, 2, 2, 2),
    "t_closure_over rings open cuts": (2, 2, 2, 0, 0, 0, 0),
    "quotient keeps A's side on an open divisor": (2, 2, 2, 2, 2, 2, 2),
    "normalize skips its first rule": (0, 0, 0, 0, 0, 0, 0),
    "idempotent_forms drops the max-ideal forms": (2, 2, 2, 2, 2, 2, 2),
    "pruefer._split drops the open components": (2, 2, 2, 2, 2, 2, 2),
    "polyext.decompose drops the max-ideal forms": (0, 0, 0, 0, 0, 2, 2),
}

_NORMALIZE = (
    "`verify` reaches `normalize` only through `sampling.random_cut` (member "
    "draws below the top), `quotient` (differences of canonical cuts, members "
    "below the top) and `prime_cut` (a zero boundary), so the rule never fires "
    "there; `cut_from_json` reaches it from the raw literals `classify` reads, "
    "where the golden reports of raw literals catch it")
_RANK1 = ("every component has rank 1, so two levels always agree and the "
          "faulted side rule is the real one")
_NO_ZLOC = "no component is a Zloc, and on Z and Q the fault calls the real `_coset_rep`"

# (fault, spec) cells that no `verify` run can catch, each with the reason.
EQUIVALENT = {
    **{("normalize skips its first rule", spec): _NORMALIZE for spec in SPECS},
    **{("mul takes the deeper side", spec): _RANK1
       for spec in ("valuation:Z[1/2]", "pruefer:Z[1/2]|Z", "poly_ext:Z[1/3]")},
    **{("_coset_rep drops the inverse", spec): _NO_ZLOC
       for spec in ("valuation:Z,Q", "pruefer:Z|Z,Q", "poly_ext:Z,Q")},
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
    cells = {(fault, spec): got for fault, row in KILLS.items() for spec, got in zip(SPECS, row)}
    assert all(cells[cell] == 0 for cell in EQUIVALENT)


def test_no_fault_ends_in_a_traceback():
    assert all(cell in (0, 2) for row in KILLS.values() for cell in row)


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
