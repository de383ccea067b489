"""Finite-character intersections of independent valuation domains.

The model is R = V_1 cap ... cap V_k with pairwise independent valuations.
Independence buys two structural facts this module leans on everywhere:
ideal arithmetic is componentwise on value-set cuts, and every value tuple
is realized by a field element, so a tuple is principal exactly when each
component cut is.  So a class modulo principal tuples is the plain tuple
of its component `cuts.CutClass`es, each an integer key, and the class
product is `cuts.class_row` on those keys, component by component.
Classification lands on the same two-branch picture as the single
valuation case, and the decomposition of a constituent group is an exact
sequence: the class group of the stabilizer overring injects, the
componentwise localization classes project out.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from typing import NamedTuple

from .groups import ValueGroup
from . import cuts as C
from .cuts import (
    Cut,
    CutClass,
    DomainMismatchError,
    IdempotentForm,
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


class IdealTuple(NamedTuple):
    """One canonical cut per component; the fractional ideal it denotes is
    the intersection of the componentwise preimages."""

    cuts: tuple[Cut, ...]


# The componentwise functions map the kernel function over the components,
# looked up through `C` on each call so that a patched or traced kernel
# function is the one that runs.  `map` stops at its shortest argument, so
# every tuple argument is checked against the model's length first.

def _check(model: PrueferModel, a: IdealTuple) -> None:
    k = len(model.valuations)
    if len(a.cuts) != k:
        raise DomainMismatchError(f"tuple has {len(a.cuts)} components, model has {k}")


def mul(model: PrueferModel, a: IdealTuple, b: IdealTuple) -> IdealTuple:
    _check(model, a)
    _check(model, b)
    return IdealTuple(tuple(map(C.mul, model.valuations, a.cuts, b.cuts)))


def t_closure(model: PrueferModel, a: IdealTuple) -> IdealTuple:
    # Trivial here for the same reason as in one valuation: each component
    # cut is a union of principal sub-cuts, and independence realizes every
    # needed value tuple.
    return IdealTuple(tuple(map(C.t_closure, model.valuations, a.cuts)))


def ring_tuple(model: PrueferModel, t: OverringSpec) -> IdealTuple:
    if len(t.levels) != model.k:
        raise DomainMismatchError("overring has wrong number of components")
    return IdealTuple(tuple(map(C.ring_cut, model.valuations, t.levels)))


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
    return IdealTuple(tuple(map(C.form_cut, model.valuations, _split(form))))


def classify_idempotent(model: PrueferModel, a: IdealTuple) -> IdempotentForm:
    """The unique idempotent whose constituent group holds a's class: the
    product of the component classifications, since idempotence, the
    stabilizer and the witness (A (T:A))_t are all componentwise.  Each
    component's form is read off its cut's level and side; `cuts.is_regular`
    checks the witness against it, once per cut."""
    _check(model, a)
    return _join(tuple(map(C.classify_idempotent, model.valuations, a.cuts)))


# === classes and groups ===

def class_of(model: PrueferModel, a: IdealTuple) -> tuple[CutClass, ...]:
    _check(model, a)
    return tuple(map(C.class_of, model.valuations, a.cuts))


def tuple_of_class(x: tuple[CutClass, ...]) -> IdealTuple:
    return IdealTuple(tuple(r.rep for r in x))


# === the exact sequence 0 -> Cl(T) -> G -> prod of localized groups -> 0 ===

@functools.cache
def _local(form: IdempotentForm) -> tuple[int, ...]:
    """The form's side-open components in order, sorted once per form."""
    return tuple(sorted(form.open_components))


def psi_localize(model: PrueferModel, a: IdealTuple, form: IdempotentForm) -> tuple[CutClass, ...]:
    """Project a group member to its localization classes, one per side-open
    component.  The localization's value group is G_i truncated at the
    component's level, and a cut of that level has one class there and in
    G_i: `cuts.class_of` reads only its coordinates up to its level.  So
    each class is read in G_i, and no truncated group is built.

    Membership is an O(1) test: the class's idempotent, read off level and
    side by `classify_idempotent`, must be the form's (else a
    `NotInGroupError`, which `verify` names `a` in), so each returned
    class is open at the form's level and `cuts.class_mul` multiplies it
    unchecked.  No audit runs here.
    The witness (A (T:A))_t is checked in `cuts.is_regular`, which `verify`
    runs once on every distinct sampled cut in `regularity`, and the
    residual-arithmetic audit of `cuts.group_membership` runs once per
    distinct sampled (component, cut), against idempotents built once by
    `cuts.idempotents`, in `idempotent_uniqueness`."""
    if classify_idempotent(model, a) != form:
        raise NotInGroupError("tuple class lies outside the constituent group")
    local = _local(form)
    return tuple(map(C.class_of, map(model.valuations.__getitem__, local),
                     map(a.cuts.__getitem__, local)))


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


_TUPLE_KEYS = frozenset({"cuts"})


def tuple_from_json(model: PrueferModel, data) -> IdealTuple:
    if not isinstance(data, dict) or data.keys() != _TUPLE_KEYS:
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
    """Duck-typed handle the semigroup oracle multiplies through: a row of
    products is `cuts.class_row`, component by component, and
    `describe` names a class by the literal `write` gives its rep tuple.

    The adapter lives for one command and builds each form's idempotent
    class tuple once."""

    def __init__(self, model: PrueferModel, write):
        self.model = model
        self.write = write
        self._idempotents = {}  # form -> its idempotent's class tuple

    def class_of(self, a: IdealTuple) -> tuple[CutClass, ...]:
        return class_of(self.model, a)

    def row(self, x: tuple[CutClass, ...], ys) -> list[tuple[CutClass, ...]]:
        # One `class_row` per component over that component's column of
        # `ys`, and the columns zipped back into class tuples.
        return list(zip(*map(C.class_row, self.model.valuations, x, zip(*ys))))

    def idempotent_of(self, x: tuple[CutClass, ...]) -> tuple[CutClass, ...]:
        # Component by component, through the product form and `_split`,
        # once per form and adapter: the `_split` fault reaches the
        # `valuation` specs only here, at each form's first class.
        gs = self.model.valuations
        form = _join(tuple(map(C.classify_idempotent, gs, x)))
        e = self._idempotents.get(form)
        if e is None:
            cuts = map(C.form_cut, gs, _split(form))
            e = self._idempotents[form] = tuple(map(C.class_of, gs, cuts))
        return e

    def describe(self, x: tuple[CutClass, ...]) -> str:
        return json.dumps(self.write(tuple_of_class(x)), sort_keys=True)
