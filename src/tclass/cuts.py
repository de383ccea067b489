"""Fractional ideals of a valuation domain, represented as cuts of the
value group.

A nonzero fractional ideal of a valuation domain V with value group G is
determined by its value set, an upper set of G that is bounded below.  The
representable upper sets here are the prefix cuts

    <level i; boundary b; side>  =  {x in G : (x_1..x_i) >= b}   (side closed)
                                    {x in G : (x_1..x_i) >  b}   (side open)

where the first i coordinates are compared lexicographically against a
boundary vector b drawn from the divisible hull (any rationals).  Cuts of
level i < rank are exactly the ideals whose stabilizer is the localization
of V at the height-i prime; the ring cut <rank; 0; closed> is V itself.

Every operation below takes canonical cuts of `g` and returns canonical
cuts, normalising nothing it is handed; a level above the rank raises
MalformedCutError.  Cuts enter canonical through `normalize` (any literal,
hand-built ones too), `cut_from_json`, `ring_cut`, `prime_cut`, the samplers.

Classification and group membership are O(1) reads of a canonical cut's
level and side.  The theory behind those reads is audited where a check
already visits every cut: `is_regular` rebuilds the witness idempotent
(I (T:I))_t, with the (I : I) recheck of `stabilizer`, compares it with the
classified form and probes the cut behind `t_closure` being the identity;
`group_membership` keeps the residual-arithmetic audit.  It takes the
component's idempotents as `idempotents` builds them, each checked
idempotent once with its stabilizer, and does a sample's own residual work
once for all of them.  A failed audit raises InternalInconsistencyError.

A class modulo principal ideals (`CutClass`) is its integer key: level,
side, and the numerator and denominator of the top coordinate reduced mod
its component.  `class_of` builds one from a cut; `class_mul`, the one
class product (for the class models and the exact sequence's group law
alike), works on keys with `mul`'s own side rule, so the Cayley-table
oracle builds no `Cut` and no `Fraction`.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .groups import (
    ValueGroup,
    is_member,
    truncate,
)

CLOSED = "closed"
OPEN = "open"
_ZERO = Fraction(0)


class MalformedCutError(ValueError):
    pass


class DomainMismatchError(ValueError):
    pass


class NotInGroupError(ValueError):
    pass


class NotIdempotentError(ValueError):
    pass


class InternalInconsistencyError(RuntimeError):
    """An arithmetic identity that must hold by theory failed; a bug, not bad input."""


# Past parsing, a non-idempotent J, a class outside its group or an ideal
# that is not one of its overring can only come from wrong arithmetic: a
# bug, like a failed guard.
MODEL_ERRORS = (InternalInconsistencyError, NotIdempotentError, NotInGroupError,
                DomainMismatchError)


@dataclass(frozen=True)
class Cut:
    """A prefix cut.  Its boundary is a tuple of `Fraction`s, as the parsers,
    samplers and kernel build it: only side, level and length are checked."""

    level: int
    boundary: tuple[Fraction, ...]
    side: str

    def __post_init__(self):
        if self.side not in (CLOSED, OPEN):
            raise MalformedCutError(f"side must be {CLOSED!r} or {OPEN!r}, got {self.side!r}")
        if self.level < 1:
            raise MalformedCutError("level must be at least 1 (the zero ideal has no cut)")
        if len(self.boundary) != self.level:
            raise MalformedCutError(
                f"boundary has {len(self.boundary)} coordinates for level {self.level}"
            )


def validate_cut(g: ValueGroup, a: Cut) -> None:
    if a.level > g.rank:
        raise MalformedCutError(f"level {a.level} exceeds rank {g.rank}")


def normalize(g: ValueGroup, a: Cut) -> Cut:
    """Canonical representative of the upper set denoted by `a`.

    Two rewrites, applied in order:

    1. If some boundary coordinate j < level is a non-member of component j,
       no element can agree with the boundary through coordinate j, so the
       comparison is always settled at or before j: the cut collapses to
       level j, side open.  Example over (Z, Z)-lex:
       <2; (1/2, 0); closed> -> <1; (1/2); open> -> (rule 2) <1; (1); closed>.

    2. The last coordinate, against its own component C:
       - member of a discrete C, side open: the least element above the
         boundary exists, so <i; b; open> = <i; b + 1; closed>.
         Example over Z: <1; (0); open> -> <1; (1); closed>.
       - non-member of a discrete C: both sides denote {x >= ceil(b_i)}:
         side becomes closed, the coordinate becomes its ceiling.
         Example over Z: <1; (1/2); closed> -> <1; (1); closed>.
       - non-member of a dense C: closed and open denote the same set
         (the boundary itself is not available); open is canonical.
         Example over Z[1/2]: <1; (1/3); closed> -> <1; (1/3); open>.
       - member of a dense C: both sides are canonical as written (they
         differ exactly in the boundary fiber).

    Canonical cuts therefore have member coordinates below the top, and at
    the top: closed cuts have a member boundary; open cuts exist only at
    dense components.  Distinct canonical cuts denote distinct upper sets;
    the box oracle arbitrates this in the tests.  A canonical argument is
    returned as it is.
    """
    validate_cut(g, a)
    level, boundary, side = a.level, a.boundary, a.side
    for j in range(level - 1):
        if not is_member(g.components[j], boundary[j]):
            level, side = j + 1, OPEN
            break
    comp = g.components[level - 1]
    last = boundary[level - 1]
    if is_member(comp, last):
        if side == OPEN and not comp.dense:
            last, side = last + 1, CLOSED
    elif comp.dense:
        side = OPEN
    else:
        last, side = Fraction(math.ceil(last)), CLOSED
    if level == a.level and side == a.side and last is boundary[-1]:
        return a
    return Cut(level, boundary[: level - 1] + (last,), side)


def member(g: ValueGroup, a: Cut, x) -> bool:
    """Is the group element x in the upper set of a?  Definitional test."""
    px = tuple(x[: a.level])
    if px != a.boundary:
        return px > a.boundary
    return a.side == CLOSED


def mul(g: ValueGroup, a: Cut, b: Cut) -> Cut:
    """Ideal product: the upper closure of the sumset of the two value sets.

    The sumset of upper sets in a totally ordered group is the upper set at
    the sum of the lower edges, so: level = min of levels, boundary = sum of
    boundaries truncated to that level, side open iff the levels agree and
    either side is open (a lower-level operand absorbs the other's side: its
    boundary fiber is reachable through the deeper coordinates).

    The result is canonical as built: below the top, member plus member is
    a member; at the top a lower-level operand's side and membership carry
    over, and equal levels give a closed member sum or an open cut at a
    level where an operand is already open (a dense one).
    """
    validate_cut(g, a)
    validate_cut(g, b)
    level = min(a.level, b.level)
    # A zero term is skipped: ring and prime cuts have all-zero boundaries,
    # and `idempotents` would otherwise pay O(rank) Fraction sums per form.
    boundary = tuple(x + y if y else x for x, y in zip(a.boundary, b.boundary))
    return Cut(level, boundary, _product_side(a.level, a.side, b.level, b.side))


def _product_side(a_level: int, a_side: str, b_level: int, b_side: str) -> str:
    # `mul`'s side rule, shared with `class_mul`: open iff the levels agree
    # and either side is open; a lower-level operand keeps its own side.
    if a_level == b_level:
        return OPEN if OPEN in (a_side, b_side) else CLOSED
    return a_side if a_level < b_level else b_side


def quotient(g: ValueGroup, a: Cut, b: Cut) -> Cut:
    """Residual (A : B) = {x : x + U_B inside U_A}, again a cut.

    For B of level >= A's, only the truncation of B's edge matters and the
    requirement is tightest at it; when B's own level is lower, the tail
    coordinates of its elements run unbounded below, so membership must be
    settled strictly before A's deeper coordinates, which collapses the
    result to B's level.  An open divisor makes the infimum unattained and
    the residual closes.
    """
    validate_cut(g, a)
    validate_cut(g, b)
    if b.level >= a.level:
        level = a.level
        c = b.boundary[: level]
        attained = b.level > a.level or b.side == CLOSED
        side = a.side if attained else CLOSED
    else:
        level = b.level
        c = b.boundary
        side = OPEN if b.side == CLOSED else CLOSED
    boundary = tuple(x - y if y else x for x, y in zip(a.boundary, c))
    return normalize(g, Cut(level, boundary, side))


def ring_cut(g: ValueGroup, level: Optional[int] = None) -> Cut:
    """The cut of V (full level) or of the localization at the height-`level` prime."""
    if level is None:
        level = g.rank
    return Cut(level, (_ZERO,) * level, CLOSED)


def prime_cut(g: ValueGroup, level: int) -> Cut:
    """Canonical cut of the height-`level` prime ideal."""
    return normalize(g, Cut(level, (_ZERO,) * level, OPEN))


def _probe_point(g: ValueGroup, a: Cut):
    # Some group element strictly inside the upper set.
    coords = list(a.boundary[:-1])
    coords.append(Fraction(math.ceil(a.boundary[a.level - 1]) + 1))
    coords.extend(_ZERO for _ in range(g.rank - a.level))
    return g.element(coords)


def t_closure(g: ValueGroup, a: Cut) -> Cut:
    """t-closure; the identity map here.

    Every nonzero fractional ideal of a valuation domain is a t-ideal:
    finitely generated subideals are principal, hence divisorial, and their
    union returns the ideal.  Kept as an explicit step so that callers spell
    out where the star operation acts; the containment probe that guards the
    identity claim runs once per cut, in `is_regular`.
    """
    validate_cut(g, a)
    return a


def stabilizer(g: ValueGroup, a: Cut) -> Cut:
    """(I : I), the cut of the overring where the ideal lives; a ring cut."""
    out = ring_cut(g, a.level)
    if quotient(g, a, a) != out:
        raise InternalInconsistencyError("stabilizer disagrees with (I : I)")
    return out


def t_closure_over(g: ValueGroup, level: int, a: Cut) -> Cut:
    """t-closure of a common ideal of the base and of the overring at
    `level`, computed over the overring: the literal is reread in the
    overring's value group (the prefix of the tower), closed there, and
    lifted back.  For common ideals this must agree with the closure over
    the base; callers assert that equality."""
    t = ring_cut(g, level)
    if mul(g, a, t) != a:
        raise DomainMismatchError("not an ideal of the overring at this level")
    return t_closure(truncate(g, level), a)


def translate(g: ValueGroup, a: Cut, shift) -> Cut:
    """The cut of the principal multiple with value `shift` (a group element, unchecked)."""
    validate_cut(g, a)
    boundary = tuple(x + y for x, y in zip(a.boundary, shift))
    return Cut(a.level, boundary, a.side)


def is_idempotent(g: ValueGroup, a: Cut) -> bool:
    return mul(g, a, a) == a


def _witness(g: ValueGroup, a: Cut, t: Cut) -> Cut:
    # (I (T:I))_t, given T = (I:I)
    return t_closure(g, mul(g, a, quotient(g, t, a)))


def idempotent_cut(g: ValueGroup, a: Cut) -> Cut:
    """The canonical idempotent attached to a's class: (I (T:I))_t with T = (I:I)."""
    return _witness(g, a, stabilizer(g, a))


@dataclass(frozen=True)
class OverringSpec:
    """An overring of the base, one localization level per component."""

    levels: tuple[int, ...]


@dataclass(frozen=True)
class IdempotentForm:
    """Which idempotent a class lands on: the overring T itself (ring variant)
    or the intersection of the idempotent maximal ideals of T at the listed
    component indices (0-based internally; reports print them 1-based)."""

    overring: OverringSpec
    open_components: frozenset[int]

    @property
    def variant(self) -> str:
        return "max_ideals" if self.open_components else "ring"


@functools.cache
def rank1_form(level: int, is_open: bool) -> IdempotentForm:
    """The overring at `level`, or with `is_open` its maximal ideal, as a
    rank-1 form; one shared object per argument pair."""
    return IdempotentForm(OverringSpec((level,)), frozenset({0}) if is_open else frozenset())


def classify_idempotent(g: ValueGroup, a: Cut) -> IdempotentForm:
    """The unique idempotent whose constituent group contains a's class, read
    off the canonical cut's level and side.

    Side closed means the class carries a representative that is a ring
    multiple, so the idempotent is the stabilizer overring itself; side open
    (dense top component) lands on the idempotent maximal ideal of that
    overring.  `is_regular` checks the witness construction (I (T:I))_t
    against this form.
    """
    validate_cut(g, a)
    return rank1_form(a.level, a.side == OPEN)


def form_cut(g: ValueGroup, form: IdempotentForm) -> Cut:
    """The canonical cut of the idempotent named by a rank-1 form."""
    if len(form.overring.levels) != 1:
        raise DomainMismatchError("a valuation model has exactly one component")
    level = form.overring.levels[0]
    if form.open_components:
        return prime_cut(g, level)
    return ring_cut(g, level)


def idempotent_forms(g: ValueGroup) -> list[IdempotentForm]:
    """Every idempotent of the valuation domain as a rank-1 form, by level:
    the overring at the level, then its maximal ideal when the level's
    component is dense (an idempotent prime)."""
    forms = []
    for level in range(1, g.rank + 1):
        forms.append(rank1_form(level, False))
        if g.components[level - 1].dense:
            forms.append(rank1_form(level, True))
    return forms


@dataclass(frozen=True)
class RegularityWitness:
    idempotent: Cut
    shift: Optional[tuple[Fraction, ...]]


def is_regular(g: ValueGroup, a: Cut) -> RegularityWitness:
    """Von Neumann regularity witness: checks I = (I^2 (I : I^2))_t and hands
    back the attached idempotent plus, when the boundary is realizable, the
    value of a scalar q with (I^2)_t = qI.  A non-member boundary has no such
    scalar among representable shifts; the shift is None then.

    This is where the audits of one cut run, once: the witness idempotent
    (I (T:I))_t must be the one `classify_idempotent` names, and a point
    strictly inside the cut must lie in it (the probe behind the claim that
    `t_closure` is the identity)."""
    sq = mul(g, a, a)
    back = t_closure(g, mul(g, sq, quotient(g, a, sq)))
    if back != a:
        raise InternalInconsistencyError("regularity identity I = (I^2 (I:I^2))_t failed")
    shift: Optional[tuple[Fraction, ...]] = None
    if all(is_member(c, q) for c, q in zip(g.components, a.boundary)):
        shift = a.boundary + (_ZERO,) * (g.rank - a.level)
        if translate(g, a, shift) != sq:
            raise InternalInconsistencyError("witness shift does not realize the square")
    idempotent = idempotent_cut(g, a)
    if idempotent != form_cut(g, classify_idempotent(g, a)):
        raise InternalInconsistencyError("witness idempotent disagrees with classification")
    if not member(g, a, _probe_point(g, a)):
        raise InternalInconsistencyError("t-closure probe escaped its own cut")
    return RegularityWitness(idempotent, shift)


# === classes modulo principal ideals ===

def _coset_rep(comp, n: int, d: int) -> tuple[int, int]:
    # The representative of n/d + C in Q/C inside [0, 1), in lowest terms.
    if d < 1:  # the Zloc loop below would never end on d = 0
        raise InternalInconsistencyError("coset denominator below 1")
    if comp.kind == "Q":
        return 0, 1
    if comp.kind == "Zloc":  # the p-part of d is a unit: divide it out
        s_part = 1
        for p in comp.primes:
            while d % p == 0:
                d //= p
                s_part *= p
        if s_part != 1:
            n *= pow(s_part, -1, d)
    n %= d
    common = math.gcd(n, d)
    return n // common, d // common


class CutClass(NamedTuple):
    """A cut modulo principal ideals: its (level, side) and the top
    coordinate n/d reduced mod its component into [0, 1), in lowest terms.

    `rep` is the class-canonical cut: zero boundary below the top, n/d at
    the top, built on each read.
    """

    level: int
    side: str
    n: int
    d: int

    @property
    def rep(self) -> Cut:
        top = Fraction(self.n, self.d)
        return Cut(self.level, (_ZERO,) * (self.level - 1) + (top,), self.side)


def class_of(g: ValueGroup, a: Cut) -> CutClass:
    validate_cut(g, a)
    top = a.boundary[-1]
    return CutClass(a.level, a.side,
                    *_coset_rep(g.components[a.level - 1], top.numerator, top.denominator))


def class_mul(g: ValueGroup, x: CutClass, y: CutClass) -> CutClass:
    """The class t-product: the class of the product of the reps, with no
    `t_closure` since every ideal of a valuation domain is a t-ideal.  On a
    constituent group it is the group's law.

    It works on the keys alone, by `mul`'s rule: the reps are zero below
    their tops, so the product's top is the sum of the tops at equal levels
    and the shallower operand's top otherwise, reduced at the lower level."""
    x_level, x_side, x_n, x_d = x
    y_level, y_side, y_n, y_d = y
    if x_level == y_level:
        level, n, d = x_level, x_n * y_d + y_n * x_d, x_d * y_d
    elif x_level < y_level:
        level, n, d = x_level, x_n, x_d
    else:
        level, n, d = y_level, y_n, y_d
    return tuple.__new__(CutClass, (level, _product_side(x_level, x_side, y_level, y_side),
                                    *_coset_rep(g.components[level - 1], n, d)))


def idempotents(g: ValueGroup) -> list[tuple[IdempotentForm, Cut, Cut]]:
    """(form, J, (J : J)) for each form of `idempotent_forms`, with J the
    form's cut; raises NotIdempotentError when some J is not idempotent.
    Built once per component and handed to `group_membership`."""
    out = []
    for form in idempotent_forms(g):
        j = form_cut(g, form)
        if not is_idempotent(g, j):
            raise NotIdempotentError(f"{format_cut(j)} is not idempotent")
        out.append((form, j, stabilizer(g, j)))
    return out


def residual_membership(g: ValueGroup, L: Cut, t: Cut,
                        idems: list[tuple[IdempotentForm, Cut, Cut]]) -> list[IdempotentForm]:
    """The forms whose constituent group holds L's class by residual
    arithmetic alone, given L's stabilizer t: the stabilizers agree and
    the three t-products (L (L:L^2))_t, (J L (L:L^2))_t, (L (J:L))_t all
    return J.  (L (L:L^2))_t is computed once for all of `idems`."""
    lr = t_closure(g, mul(g, L, quotient(g, L, mul(g, L, L))))
    return [
        form for form, j, tj in idems
        if t == tj
        and lr == j
        and t_closure(g, mul(g, j, lr)) == j
        and t_closure(g, mul(g, L, quotient(g, j, L))) == j
    ]


def group_membership(g: ValueGroup, L: Cut,
                     idems: list[tuple[IdempotentForm, Cut, Cut]]) -> list[IdempotentForm]:
    """The forms among `idems` (as `idempotents` builds them) whose
    constituent group holds the class of L.

    The audited test: the operative answer keeps the forms whose J is L's
    witness idempotent (I (T:I))_t; the residual-arithmetic answer must
    agree with it, and a divergence is an arithmetic bug worth crashing on.
    `verify` runs it for every component of each distinct sampled tuple in
    `idempotent_uniqueness`; `pruefer.psi_localize` decides membership in
    O(1) by classification instead.  L's stabilizer is built once, for the
    witness and the residual audit alike.
    """
    t = stabilizer(g, L)
    witness = _witness(g, L, t)
    operative = [form for form, j, _ in idems if j == witness]
    if residual_membership(g, L, t, idems) != operative:
        raise InternalInconsistencyError("membership tests diverged")
    return operative


# === literals ===

def cut_to_json(a: Cut):
    return {
        "level": a.level,
        "boundary": [str(c) for c in a.boundary],
        "side": a.side,
    }


# Size limits on a boundary coordinate, checked before Fraction() reads it:
# "1e1000000000" is twelve characters but denotes a billion-digit integer.
MAX_COORDINATE_CHARS = 100
MAX_EXPONENT = 100
_EXPONENT = re.compile(r"[eE][+-]?(\d+(?:_\d+)*)")  # as Fraction() reads it


def _coordinate(c) -> Fraction:
    if isinstance(c, bool) or not isinstance(c, (int, float, str)):
        raise MalformedCutError(f"a boundary coordinate is a rational or a string, got {c!r}")
    text = str(c)
    exp = _EXPONENT.search(text)
    if len(text) > MAX_COORDINATE_CHARS or (exp and int(exp.group(1)) > MAX_EXPONENT):
        raise MalformedCutError(
            f"boundary coordinate {text[:24]!r} exceeds the literal limits "
            f"({MAX_COORDINATE_CHARS} characters, exponent at most {MAX_EXPONENT})"
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise MalformedCutError(f"bad boundary coordinate {text!r}: {e}") from None


def cut_from_json(g: ValueGroup, obj) -> Cut:
    """Parse a cut literal of `g`, check its level and return its canonical cut."""
    if not isinstance(obj, dict) or set(obj) != {"level", "boundary", "side"}:
        raise MalformedCutError(f"a cut literal has keys level/boundary/side, got {obj!r}")
    level, boundary = obj["level"], obj["boundary"]
    if isinstance(level, bool) or not isinstance(level, int):
        raise MalformedCutError(f"level must be an integer, got {level!r}")
    if not isinstance(boundary, list):
        raise MalformedCutError(f"boundary must be a list of rationals, got {boundary!r}")
    return normalize(g, Cut(level, tuple(_coordinate(c) for c in boundary), obj["side"]))


def format_cut(a: Cut) -> str:
    inside = ", ".join(str(c) for c in a.boundary)
    return f"<{a.level}; ({inside}); {a.side}>"


# === adapter for the finite-semigroup oracle ===

class ValuationClassModel:
    """Class-level arithmetic handle: hashable canonical classes with an
    exact product, as the sampling closure expects."""

    def __init__(self, group: ValueGroup):
        self.group = group

    def class_of(self, a: Cut) -> CutClass:
        return class_of(self.group, a)

    def mul(self, x: CutClass, y: CutClass) -> CutClass:
        return class_mul(self.group, x, y)

    def idempotent_of(self, x: CutClass) -> CutClass:
        return self.class_of(idempotent_cut(self.group, x.rep))

    def describe(self, x: CutClass) -> str:
        return format_cut(x.rep)
