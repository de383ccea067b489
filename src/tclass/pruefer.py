"""Finite-character intersections of independent valuation domains.

The model is R = V_1 cap ... cap V_k with pairwise independent valuations.
Independence buys two structural facts this module leans on everywhere:
ideal arithmetic is componentwise on value-set cuts, and every value tuple
is realized by a field element, so a tuple is principal exactly when each
component cut is.  So a class modulo principal tuples is the plain tuple
of its component `cuts.CutClass`es, each an integer key, and the class
product is `cuts.class_mul` on those keys, component by component.  Classification lands on the same
two-branch picture as the single valuation case, and the decomposition of
a constituent group is an exact sequence: the class group of the
stabilizer overring injects, the componentwise localization classes
project out.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from .groups import ValueGroup, is_member
from .sampling import random_member, random_rational
from . import cuts as C
from .cuts import (
    CLOSED,
    OPEN,
    Cut,
    CutClass,
    DomainMismatchError,
    IdempotentForm,
    InternalInconsistencyError,
    NotInGroupError,
    OverringSpec,
)


@dataclass(frozen=True)
class PrueferModel:
    """k independent valuations presented by their value groups."""

    valuations: tuple[ValueGroup, ...]

    def __post_init__(self):
        if not self.valuations:
            raise ValueError("need at least one valuation")

    @property
    def k(self) -> int:
        return len(self.valuations)


@dataclass(frozen=True)
class IdealTuple:
    """One canonical cut per component; the fractional ideal it denotes is
    the intersection of the componentwise preimages."""

    cuts: tuple[Cut, ...]


def _check(model: PrueferModel, a: IdealTuple) -> None:
    if len(a.cuts) != model.k:
        raise DomainMismatchError(f"tuple has {len(a.cuts)} components, model has {model.k}")


def mul(model: PrueferModel, a: IdealTuple, b: IdealTuple) -> IdealTuple:
    _check(model, a)
    _check(model, b)
    return IdealTuple(tuple(
        C.mul(g, x, y) for g, x, y in zip(model.valuations, a.cuts, b.cuts)
    ))


def quotient(model: PrueferModel, a: IdealTuple, b: IdealTuple) -> IdealTuple:
    _check(model, a)
    _check(model, b)
    return IdealTuple(tuple(
        C.quotient(g, x, y) for g, x, y in zip(model.valuations, a.cuts, b.cuts)
    ))


def t_closure(model: PrueferModel, a: IdealTuple) -> IdealTuple:
    # Trivial here for the same reason as in one valuation: each component
    # cut is a union of principal sub-cuts, and independence realizes every
    # needed value tuple.
    return IdealTuple(tuple(C.t_closure(g, c) for g, c in zip(model.valuations, a.cuts)))


def ring_tuple(model: PrueferModel, t: OverringSpec) -> IdealTuple:
    if len(t.levels) != model.k:
        raise DomainMismatchError("overring has wrong number of components")
    return IdealTuple(tuple(C.ring_cut(g, l) for g, l in zip(model.valuations, t.levels)))


@functools.cache
def _join(forms: tuple[IdempotentForm, ...]) -> IdempotentForm:
    """The product form of one rank-1 form per component; forms are
    immutable and a model has few, so each product is built once."""
    return IdempotentForm(
        OverringSpec(tuple(f.overring.levels[0] for f in forms)),
        frozenset(i for i, f in enumerate(forms) if f.open_components),
    )


def _split(form: IdempotentForm) -> list[IdempotentForm]:
    """The rank-1 form of each component of a product form."""
    return [C.rank1_form(l, i in form.open_components) for i, l in enumerate(form.overring.levels)]


def form_tuple(model: PrueferModel, form: IdempotentForm) -> IdealTuple:
    """The canonical idempotent tuple a form names."""
    if len(form.overring.levels) != model.k:
        raise DomainMismatchError(
            f"form has {len(form.overring.levels)} components, model has {model.k}")
    return IdealTuple(tuple(C.form_cut(g, f) for g, f in zip(model.valuations, _split(form))))


def classify_idempotent(model: PrueferModel, a: IdealTuple) -> IdempotentForm:
    """The unique idempotent whose constituent group holds a's class: the
    product of the component classifications, since idempotence, the
    stabilizer and the witness (A (T:A))_t are all componentwise.  Each
    component's form is read off its cut's level and side; `cuts.is_regular`
    checks the witness against it, once per cut."""
    _check(model, a)
    return _join(tuple(C.classify_idempotent(g, c) for g, c in zip(model.valuations, a.cuts)))


# === classes and groups ===

def class_of(model: PrueferModel, a: IdealTuple) -> tuple[CutClass, ...]:
    _check(model, a)
    return tuple(C.class_of(g, c) for g, c in zip(model.valuations, a.cuts))


def tuple_of_class(x: tuple[CutClass, ...]) -> IdealTuple:
    return IdealTuple(tuple(r.rep for r in x))


def group_membership(model: PrueferModel, a: IdealTuple,
                     idems: list[list[tuple[IdempotentForm, Cut, Cut]]]) -> list[IdempotentForm]:
    """The forms whose constituent group holds the class of a, the first
    component varying slowest: the product of the forms
    `cuts.group_membership` admits per component, audit included, given
    `idems[i] = cuts.idempotents(valuations[i])`.  Every component is
    audited, even when an earlier one admits nothing."""
    _check(model, a)
    if len(idems) != model.k:
        raise DomainMismatchError(
            f"idempotents given for {len(idems)} components, model has {model.k}")
    per = [C.group_membership(g, c, i) for g, c, i in zip(model.valuations, a.cuts, idems)]
    return [_join(picks) for picks in itertools.product(*per)]


def show_principal(model: PrueferModel, overring: OverringSpec, a: IdealTuple) -> tuple:
    """The certificate that Cl(T) of a semilocal intersection is trivial:
    the realizing shift vector of a tuple t-invertible over the overring T.
    Raises if the tuple is not invertible (some component open or off the
    group)."""
    _check(model, a)
    t = ring_tuple(model, overring)
    inv = quotient(model, t, a)
    if t_closure(model, mul(model, a, inv)) != t:
        raise NotInGroupError("tuple is not t-invertible over the overring")
    shifts = []
    for g, c in zip(model.valuations, a.cuts):
        if c.side != CLOSED or not all(
            is_member(comp, q) for comp, q in zip(g.components, c.boundary)
        ):
            raise InternalInconsistencyError(
                "invertible tuple with a non-realizable component boundary"
            )
        shifts.append(c.boundary + (Fraction(0),) * (g.rank - c.level))
    return tuple(shifts)


# === the exact sequence 0 -> Cl(T) -> G -> prod of localized groups -> 0 ===

def psi_localize(model: PrueferModel, a: IdealTuple, form: IdempotentForm) -> tuple[CutClass, ...]:
    """Project a group member to its localization classes, one per side-open
    component.  The localization's value group is G_i truncated at the
    component's level, and a cut of that level has one class there and in
    G_i: `cuts.class_of` reads only its coordinates up to its level.  So
    each class is read in G_i, and no truncated group is built.

    Membership is an O(1) test: the class's idempotent, read off level and
    side by `classify_idempotent`, must be the form's (a `NotInGroupError`
    names `a` by its literal), so each returned class is open at the form's
    level and `cuts.class_mul` multiplies it unchecked.  No audit runs here.
    The witness (A (T:A))_t is checked in `cuts.is_regular`, which `verify`
    runs once on every distinct sampled cut in `regularity`, and the
    residual-arithmetic audit of `group_membership` runs once per distinct
    sampled tuple and component, against idempotents built once by
    `cuts.idempotents`, in `idempotent_uniqueness`."""
    if classify_idempotent(model, a) != form:
        raise NotInGroupError(f"{_literal(a)}: tuple class lies outside the constituent group")
    return tuple(C.class_of(model.valuations[i], a.cuts[i]) for i in sorted(form.open_components))


def _random_group_member(rng: random.Random, model: PrueferModel,
                         form: IdempotentForm) -> IdealTuple:
    # Canonical as drawn: the coordinates below the top are members, a
    # closed top is a member, and an open top sits at a dense level, the
    # only place open forms exist.
    cuts = []
    for i, (g, lvl) in enumerate(zip(model.valuations, form.overring.levels)):
        boundary = [random_member(rng, g.components[k]) for k in range(lvl - 1)]
        if i in form.open_components:
            top, side = random_rational, OPEN
        else:
            top, side = random_member, CLOSED
        boundary.append(top(rng, g.components[lvl - 1]))
        cuts.append(Cut(lvl, tuple(boundary), side))
    return IdealTuple(tuple(cuts))


def _random_target(rng: random.Random, model: PrueferModel, form: IdempotentForm,
                   local: list[int]) -> tuple[CutClass, ...]:
    out = []
    for i in local:
        g, lvl = model.valuations[i], form.overring.levels[i]
        boundary = [Fraction(0)] * (lvl - 1)
        boundary.append(random_rational(rng, g.components[lvl - 1]))
        out.append(C.class_of(g, Cut(lvl, tuple(boundary), OPEN)))
    return tuple(out)


def _lift_target(model: PrueferModel, j: IdealTuple, local: list[int],
                 target: tuple[CutClass, ...]) -> IdealTuple:
    """Componentwise preimage: plant each (canonical) class representative
    at its component, keep the idempotent `j` elsewhere."""
    cuts = list(j.cuts)
    for r, i in zip(target, local):
        cuts[i] = r.rep
    return IdealTuple(tuple(cuts))


def verify_exact_sequence(model: PrueferModel, form: IdempotentForm,
                          samples: int, rng: random.Random) -> list[str]:
    """Sampled exactness of 0 -> Cl(T) -> G -> prod G_i -> 0; returns the
    failures.

    Cl(T) is trivial (`show_principal` certifies it), so exactness amounts
    to: the embedded class is the identity and is the whole kernel
    (injectivity of the projection), the projection is a homomorphism, and
    every sampled target vector lifts.  Failures name the offending tuples
    by the literals `tclass classify --ideal` reads; they indicate
    arithmetic bugs and are never swallowed.  A model error
    (`cuts.MODEL_ERRORS`) raised in a sample is such a failure: it names
    the sample's tuples and ends the sample.  Any other exception leaves
    this function, and `verify` records it as a failure of the form.
    """
    failures = []

    def fail(message: str, *tuples: IdealTuple, error: Exception | None = None) -> None:
        line = message.format(*map(_literal, tuples))
        failures.append(line if error is None else f"{line}: {error}")

    # Per-form constants: the overring, the idempotent, its class, the open components.
    t = ring_tuple(model, form.overring)
    j = form_tuple(model, form)
    identity = class_of(model, j)
    local = sorted(form.open_components)
    ident = psi_localize(model, j, form)

    # The embedding pushes a class over T into the group by multiplying
    # into the idempotent and t-closing; the identity of Cl(T) is T's class.
    embedded = class_of(model, t_closure(model, mul(model, t, j)))
    if embedded != identity:
        fail("embedding of Cl(T) identity missed the group identity: {}",
             tuple_of_class(embedded))

    for _ in range(samples):
        a = _random_group_member(rng, model, form)
        b = _random_group_member(rng, model, form)
        target = _random_target(rng, model, form, local)
        lift = _lift_target(model, j, local, target)
        try:
            ab = t_closure(model, mul(model, a, b))
            pa, pb, pab = (psi_localize(model, x, form) for x in (a, b, ab))
            want = tuple(C.class_mul(model.valuations[i], x, y)
                         for x, y, i in zip(pa, pb, local))
            if pab != want:
                fail("projection not multiplicative at {} * {}", a, b)
            if pa == ident and class_of(model, a) != identity:
                fail("kernel element outside the embedded image: {}", a)
            if pa == pb and class_of(model, a) != class_of(model, b):
                fail("projection identified distinct classes: {} vs {}", a, b)
            if psi_localize(model, lift, form) != target:
                fail("constructed preimage {} missed its target", lift)
        except C.MODEL_ERRORS as e:
            fail("sample {} * {} with preimage {}", a, b, lift, error=e)

    return failures


def enumerate_idempotent_forms(model: PrueferModel) -> list[IdempotentForm]:
    """All canonical idempotent tuples of the model, as forms: each
    component picks one of its rank-1 forms (a level and, when dense there,
    optionally its idempotent maximal ideal).  Sorted by overring levels,
    then open components: the order every report lists them in."""
    return sorted((_join(picks) for picks in
                   itertools.product(*(C.idempotent_forms(g) for g in model.valuations))),
                  key=lambda f: (f.overring.levels, sorted(f.open_components)))


# === JSON and adapters ===

def tuple_to_json(a: IdealTuple) -> dict:
    return {"cuts": [C.cut_to_json(c) for c in a.cuts]}


def _literal(a: IdealTuple) -> str:
    return json.dumps(tuple_to_json(a), sort_keys=True)


def tuple_from_json(model: PrueferModel, data) -> IdealTuple:
    if not isinstance(data, dict) or set(data) != {"cuts"}:
        raise C.MalformedCutError("ideal tuple literal wants exactly the key 'cuts'")
    cuts = data["cuts"]
    if not isinstance(cuts, list) or len(cuts) != model.k:
        raise C.MalformedCutError(f"expected {model.k} component cuts")
    out = []
    for i, (g, item) in enumerate(zip(model.valuations, cuts)):
        try:
            out.append(C.cut_from_json(g, item))
        except C.MalformedCutError as e:
            raise C.MalformedCutError(f"component {i + 1}: {e}") from e
    return IdealTuple(tuple(out))


class PrueferClassModel:
    """Duck-typed handle the semigroup oracle multiplies through: the
    product is `cuts.class_mul`, component by component, and
    `describe` names a class by the literal `write` gives its rep tuple."""

    def __init__(self, model: PrueferModel, write):
        self.model = model
        self.write = write

    def class_of(self, a: IdealTuple) -> tuple[CutClass, ...]:
        return class_of(self.model, a)

    def mul(self, x: tuple[CutClass, ...], y: tuple[CutClass, ...]) -> tuple[CutClass, ...]:
        return tuple(map(C.class_mul, self.model.valuations, x, y))

    def idempotent_of(self, x: tuple[CutClass, ...]) -> tuple[CutClass, ...]:
        # Component by component, through the product form and `_split`: the
        # `_split` fault reaches the `valuation` specs only here.
        gs = self.model.valuations
        form = _join(tuple(C.classify_idempotent(g, u.rep) for g, u in zip(gs, x)))
        return tuple(C.class_of(g, C.form_cut(g, f)) for g, f in zip(gs, _split(form)))

    def describe(self, x: tuple[CutClass, ...]) -> str:
        return json.dumps(self.write(tuple_of_class(x)), sort_keys=True)
