"""Symbolic model of the polynomial extension R = V[X] over a valuation
domain V.

The model never touches polynomials.  Extended t-ideals of V[X] are either
A[X] for a t-ideal A of V or f.B[X] with f a polynomial unit factor, so
their classes modulo principal ideals are determined by the class of the
coefficient ideal, and every computation delegates to cut arithmetic over
the base value group.  The t-linked overrings are the V_p[X] (one per
nonzero prime of V, i.e. per level), and the t-idempotent t-primes are the
p[X] with p an idempotent prime of V (dense levels).

Completeness caveat: only extended classes are modeled.  The decomposition
is reported over extended classes and never claims to exhaust every t-ideal
class of V[X]; reports carry that scope label.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import ValueGroup, describe_component
from . import cuts as C
from .cuts import Cut, CutClass, IdempotentForm


@dataclass(frozen=True)
class PolyExtModel:
    """V[X] presented by the value group of V; Krull-type but not Pruefer
    once the base has rank at least one, which the constructor requires."""

    base: ValueGroup

    def __post_init__(self):
        if self.base.rank < 1:
            raise ValueError("base value group must be nontrivial")


@dataclass(frozen=True)
class SymIdealClass:
    """Class of an extended ideal f.B[X]; the polynomial factor f is
    absorbed by working modulo principal ideals, leaving the coefficient
    class."""

    coeff: CutClass


@dataclass(frozen=True)
class TLinkedOverring:
    """The overring V_p[X], named by the level of the prime p."""

    prime_level: int


@dataclass(frozen=True)
class IdempotentMaxClass:
    """The idempotent class p[X] sits on when p is an idempotent prime of V
    (dense at its level)."""

    prime_level: int


@dataclass(frozen=True)
class GroupDescriptor:
    trivial: bool
    description: str
    scope: str = "extended classes"


@dataclass(frozen=True)
class StDecomposition:
    idempotents: tuple
    groups: tuple[GroupDescriptor, ...]
    scope: str = "extended classes"


def extended_class(m: PolyExtModel, coefficient_cut: Cut) -> SymIdealClass:
    return SymIdealClass(C.class_of(m.base, coefficient_cut))


def t_idempotent_primes(m: PolyExtModel) -> list[int]:
    """Levels whose prime extends to a t-idempotent t-prime of V[X]: exactly
    the levels where the base quotient has no least positive element."""
    return [i for i in range(1, m.base.rank + 1) if m.base.components[i - 1].dense]


def _idempotent(form: IdempotentForm):
    level = form.overring.levels[0]
    return IdempotentMaxClass(level) if form.open_components else TLinkedOverring(level)


def classify(m: PolyExtModel, s: SymIdealClass):
    """Lift the coefficient classification through the extension: the
    stabilizer of f.B[X] is (B:B)[X], so the idempotent is V_p[X] for a
    side-closed coefficient and the p[X]-type class for a side-open one."""
    return _idempotent(C.classify_idempotent(m.base, s.coeff.rep))


def _group_for(m: PolyExtModel, idem) -> GroupDescriptor:
    if isinstance(idem, TLinkedOverring):
        return GroupDescriptor(
            trivial=True,
            description="trivial (classes over the overring are principal)",
        )
    comp = m.base.components[idem.prime_level - 1]
    return GroupDescriptor(
        trivial=False,
        description=(
            f"coefficient classes open at level {idem.prime_level}: "
            f"rationals modulo {describe_component(comp)} (representable part)"
        ),
    )


def decompose(m: PolyExtModel) -> StDecomposition:
    """All idempotents of the extended-class semigroup with their groups.

    Strongly discrete base: one idempotent per overring, every group
    trivial, so the semigroup is a disjoint union of rank-many trivial
    groups.  Dense levels add one idempotent maximal class each, whose
    group is the coefficient constituent group over representable classes.
    """
    # Overrings first, then the idempotent maximal classes, each by level.
    forms = sorted(C.idempotent_forms(m.base), key=lambda f: bool(f.open_components))
    idems = tuple(_idempotent(f) for f in forms)
    return StDecomposition(idems, tuple(_group_for(m, e) for e in idems))


def sym_to_json(s: SymIdealClass) -> dict:
    return {"coeff": C.cut_to_json(s.coeff.rep)}


def sym_from_json(m: PolyExtModel, data) -> SymIdealClass:
    if not isinstance(data, dict) or set(data) != {"coeff"}:
        raise C.MalformedCutError("symbolic ideal literal wants exactly the key 'coeff'")
    cut = C.cut_from_json(data["coeff"])
    C.validate_cut(m.base, cut)
    return extended_class(m, cut)


class PolyClassModel:
    """Duck-typed handle for the semigroup oracle; multiplication of
    extended classes is coefficient-class multiplication."""

    def __init__(self, model: PolyExtModel):
        self.model = model
        self._inner = C.ValuationClassModel(model.base)

    def class_of(self, s: SymIdealClass) -> SymIdealClass:
        return SymIdealClass(self._inner.class_of(s.coeff.rep))

    def mul(self, x: SymIdealClass, y: SymIdealClass) -> SymIdealClass:
        return SymIdealClass(self._inner.mul(x.coeff, y.coeff))

    def idempotent_of(self, x: SymIdealClass) -> SymIdealClass:
        return SymIdealClass(self._inner.idempotent_of(x.coeff))

    def describe(self, x: SymIdealClass) -> str:
        return f"[{C.format_cut(x.coeff.rep)}][X]"
