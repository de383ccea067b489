"""Symbolic model of the polynomial extension R = V[X] over a valuation
domain V.

The model never touches polynomials.  Extended t-ideals of V[X] are either
A[X] for a t-ideal A of V or f.B[X] with f a polynomial unit factor, so
their classes modulo principal ideals are determined by the class of the
coefficient ideal, and every computation delegates to cut arithmetic over
the base value group.  The t-linked overrings are the V_p[X] (one per
nonzero prime of V, i.e. per level), and the t-idempotent t-primes are the
p[X] with p an idempotent prime of V (dense levels).  Both are named by
the base's rank-1 idempotent forms: the ring form at p's level stands for
V_p[X], the maximal ideal form for p[X].

So the cut kernel over the base does the work, and this module keeps only
what differs from one valuation: the class of f.B[X] is `cuts.class_of`
of B, and since its stabilizer is (B:B)[X], its idempotent is
`cuts.classify_idempotent` of that class's key (its level and side), with
no rep built.

Completeness caveat: only extended classes are modeled.  The decomposition
is reported over extended classes and never claims to exhaust every t-ideal
class of V[X]; reports carry that scope label.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import ValueGroup, describe_component
from . import cuts as C
from .cuts import Cut, IdempotentForm


@dataclass(frozen=True)
class PolyExtModel:
    """V[X] presented by the value group of V; Krull-type but not Pruefer
    once the base has rank at least one, which `ValueGroup` requires."""

    base: ValueGroup


# Every result covers the extended classes only (see the caveat above).
SCOPE = "extended classes"


def group_description(base: ValueGroup, form: IdempotentForm) -> str:
    """The constituent group at the idempotent a rank-1 form names."""
    if not form.open_components:
        return "trivial (classes over the overring are principal)"
    level = form.overring.levels[0]
    return (f"coefficient classes open at level {level}: rationals modulo "
            f"{describe_component(base.components[level - 1])} (representable part)")


def decompose(base: ValueGroup) -> list[IdempotentForm]:
    """All idempotents of the extended-class semigroup, overrings first,
    then the maximal ideal forms, each by level.

    Strongly discrete base: one idempotent per overring, every group
    trivial, so the semigroup is a disjoint union of rank-many trivial
    groups.  Dense levels add one idempotent p[X] each, whose group is the
    coefficient constituent group over representable classes.
    """
    return sorted(C.idempotent_forms(base), key=lambda f: bool(f.open_components))


def sym_to_json(rep: Cut) -> dict:
    return {"coeff": C.cut_to_json(rep)}


_SYM_KEYS = frozenset({"coeff"})


def sym_from_json(base: ValueGroup, data) -> Cut:
    """The coefficient class representative a symbolic literal names."""
    if not isinstance(data, dict) or data.keys() != _SYM_KEYS:
        raise C.MalformedCutError("symbolic ideal literal wants exactly the key 'coeff'")
    return C.class_of(base, C.cut_from_json(base, data["coeff"])).rep
