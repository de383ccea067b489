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

A boundary coordinate is an `int` when it is integral and a `Rat`, the
kernel's own `Fraction` subclass, otherwise, wherever one is made from
scratch: `cut_from_json` (a plain decimal n or n/d by integer
arithmetic, any other spelling by `Fraction`'s reader), the samplers'
tables, the zero of ring and prime cuts, `normalize`'s ceiling and
`CutClass.rep`'s top.  The kernel's sums and differences keep that: two
ints add in C, and a `Rat` adds, subtracts and compares with an int or a
`Rat` on its two slots and gives an `int` whenever the value is
integral.  A cut built elsewhere from plain `Fraction`s (a test's, the
benchmark's) works the same, through `Fraction`'s own methods; that is
harmless, since an int, a `Rat` and a `Fraction` of one value are equal,
hash and print alike and have the same `numerator` and `denominator`, so
no result, cache key or report depends on which one a cut holds.

Every operation below takes canonical cuts of `g` and returns canonical
cuts, normalising nothing it is handed; a level above the rank raises
MalformedCutError.  The operations that read a cut (`normalize`, `mul`,
`quotient`, `t_closure`, `translate`, `class_of`; `classify_idempotent`
reads a cut's or a class key's level and side by name) unpack it once,
`level, boundary, side = a`, and compare that level with `g.rank`
themselves, calling `validate_cut` only to raise; the audits
built on them (`stabilizer`, `idempotent_cut`, `is_idempotent`,
`t_closure_over`, `is_regular`, `residual_membership`,
`group_membership`) are checked by the operations they call.  Cuts enter
canonical through `normalize` (any literal, hand-built ones too),
`cut_from_json`, `ring_cut`, `prime_cut`, the samplers.

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
its component.  `class_of` builds one from a cut; `class_row`, the one
class product, multiplies one class by a row of classes on the keys alone
with `mul`'s own side rule, so the Cayley-table oracle builds no `Cut` or
`Fraction` and calls no `_coset_rep`.  The class models multiply by whole
rows; the exact sequence's group law is `class_mul`, a one-element row.

The value types (`Cut`, `OverringSpec`, `IdempotentForm`,
`RegularityWitness`, `CutClass` and `pruefer.IdealTuple`) are
`NamedTuple`s, each the tuple of its fields: it compares and hashes in C,
and its hash is that of the plain tuple of its fields.  A value also
equals a plain tuple of the same fields, and tuples order; no code of the
package orders these values, compares two of the types with each other or
keys one dict or set by two of them, so neither fact reaches a result.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import re
from fractions import Fraction
from typing import NamedTuple, Optional

from .groups import ValueGroup, is_member

CLOSED = "closed"
OPEN = "open"


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


class Rat(Fraction):
    """A non-integral coordinate: the `Fraction` the package builds for a
    rational that is not an `int`.

    `Rat(...)` reads what `Fraction(...)` reads and gives the `int` when
    the value is integral, so no integral `Rat` exists.  Against an `int`
    or a `Rat`, `+`, `-` (both orders), unary `-`, `==` and `<` work on
    the two slots directly, with no `Fraction.__new__`, and give a result
    in lowest terms, an `int` when it is integral.  The kernel runs `-` in
    both orders: in `quotient`, a `Rat` less an int or a `Rat` runs
    `__sub__`, and an int (the 0 of a ring cut, say) less a `Rat` runs
    `__rsub__`.  Nothing in the package negates a `Rat`.  Any other
    operand goes to `Fraction`'s own method, so a mix with a plain
    `Fraction` stays exact (and gives a plain `Fraction`).  Every other
    operator (`>` and `bool` among them), `__hash__`, `str`, `numerator`
    and `denominator` are `Fraction`'s: a `Rat` hashes, compares and
    prints as the `Fraction` of its value.
    """

    __slots__ = ()

    def __new__(cls, numerator=0, denominator=None):
        if type(numerator) is int and type(denominator) is int and denominator > 0:
            # As `Fraction` reduces two ints, with no object built for an int.
            g = math.gcd(numerator, denominator)
            n, d = numerator // g, denominator // g
            return n if d == 1 else _rat(n, d)
        q = Fraction.__new__(cls, numerator, denominator)  # a `Rat`, reduced
        return q._numerator if q._denominator == 1 else q

    __hash__ = Fraction.__hash__

    def __add__(a, b):
        if type(b) is int:  # (n + b d)/d: coprime, as n/d is
            return _rat(a._numerator + b * a._denominator, a._denominator)
        if type(b) is Rat:
            return _sum(a._numerator, a._denominator, b._numerator, b._denominator)
        return _fraction_add(a, b)

    def __radd__(b, a):
        # A `Rat` on the left has already run `__add__`.
        if type(a) is int:
            return _rat(a * b._denominator + b._numerator, b._denominator)
        return _fraction_radd(b, a)

    def __sub__(a, b):
        if type(b) is int:
            return _rat(a._numerator - b * a._denominator, a._denominator)
        if type(b) is Rat:
            return _sum(a._numerator, a._denominator, -b._numerator, b._denominator)
        return _fraction_sub(a, b)

    def __rsub__(b, a):
        if type(a) is int:
            return _rat(a * b._denominator - b._numerator, b._denominator)
        return _fraction_rsub(b, a)

    def __neg__(a):
        return _rat(-a._numerator, a._denominator)

    def __eq__(a, b):
        if type(b) is Rat:
            return a._numerator == b._numerator and a._denominator == b._denominator
        if type(b) is int:  # a `Rat` is never integral
            return False
        return _fraction_eq(a, b)

    def __lt__(a, b):
        if type(b) is Rat:
            return a._numerator * b._denominator < b._numerator * a._denominator
        if type(b) is int:
            return a._numerator < b * a._denominator
        return _fraction_lt(a, b)


_fraction_add, _fraction_radd = Fraction.__add__, Fraction.__radd__
_fraction_sub, _fraction_rsub = Fraction.__sub__, Fraction.__rsub__
_fraction_eq, _fraction_lt = Fraction.__eq__, Fraction.__lt__
_new = object.__new__


def _rat(n: int, d: int) -> Rat:
    # The `Rat` n/d, given in lowest terms with d > 1.
    r = _new(Rat)
    r._numerator = n
    r._denominator = d
    return r


def _sum(na: int, da: int, nb: int, db: int) -> int | Rat:
    # na/da + nb/db for two `Rat`s, reduced as `Fraction._add` reduces.
    g = math.gcd(da, db)
    if g == 1:  # coprime denominators: the sum is n/(da db) in lowest terms
        return _rat(na * db + nb * da, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = math.gcd(t, g)
    if g2 == 1:
        return _rat(t, s * db)
    d = s * (db // g2)
    return t // g2 if d == 1 else _rat(t // g2, d)


class _CutFields(NamedTuple):
    level: int
    boundary: tuple[int | Rat, ...]
    side: str


class Cut(_CutFields):
    """A prefix cut.  Its boundary is a tuple of rationals, each an `int` or a
    `Rat`, as the parsers, samplers and kernel build it: only side,
    level and length are checked, by `__post_init__`, which every `Cut(...)`
    runs.  (`_make` and `_replace` skip it; nothing in the package calls
    them.)"""

    __slots__ = ()

    def __new__(cls, level: int, boundary: tuple[int | Rat, ...], side: str):
        self = tuple.__new__(cls, (level, boundary, side))
        self.__post_init__()
        return self

    def __post_init__(self):
        level, boundary, side = self
        if side not in (CLOSED, OPEN):
            raise MalformedCutError(f"side must be {CLOSED!r} or {OPEN!r}, got {side!r}")
        if level < 1:
            raise MalformedCutError("level must be at least 1 (the zero ideal has no cut)")
        if len(boundary) != level:
            raise MalformedCutError(
                f"boundary has {len(boundary)} coordinates for level {level}"
            )


def validate_cut(g: ValueGroup, a: Cut) -> None:
    """Raise MalformedCutError if a's level exceeds g's rank.  The kernel
    compares the level itself and calls this only to raise."""
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
    a_level, boundary, a_side = a
    if a_level > g.rank:
        validate_cut(g, a)
    level, side = a_level, a_side
    for j in range(level - 1):  # an int is a member of every component
        x = boundary[j]
        if x.__class__ is not int and not is_member(g.components[j], x):
            level, side = j + 1, OPEN
            break
    comp = g.components[level - 1]
    last = boundary[level - 1]
    if last.__class__ is int or is_member(comp, last):
        if side == OPEN and not comp.dense:
            last, side = last + 1, CLOSED
    elif comp.dense:
        side = OPEN
    else:
        last, side = math.ceil(last), CLOSED
    if level == a_level and side == a_side and last is boundary[-1]:
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
    a_level, a_boundary, a_side = a
    b_level, b_boundary, b_side = b
    if a_level > g.rank or b_level > g.rank:
        validate_cut(g, a)
        validate_cut(g, b)
    # `map` stops at the shorter boundary: the truncation to the lower level.
    boundary = tuple(map(operator.add, a_boundary, b_boundary))
    return Cut(min(a_level, b_level), boundary, _product_side(a_level, a_side, b_level, b_side))


def _product_side(a_level: int, a_side: str, b_level: int, b_side: str) -> str:
    # `mul`'s side rule, shared with `class_row`: open iff the levels agree
    # and either side is open; a lower-level operand keeps its own side.
    if a_level == b_level:
        return OPEN if a_side == OPEN or b_side == OPEN else CLOSED
    return a_side if a_level < b_level else b_side


def quotient(g: ValueGroup, a: Cut, b: Cut) -> Cut:
    """Residual (A : B) = {x : x + U_B inside U_A}, again a cut.

    For B of level >= A's, only the truncation of B's edge matters and the
    requirement is tightest at it; when B's own level is lower, the tail
    coordinates of its elements run unbounded below, so membership must be
    settled strictly before A's deeper coordinates, which collapses the
    result to B's level.  An open divisor makes the infimum unattained and
    the residual closes.

    `map` truncates the boundaries to `level`.
    """
    a_level, a_boundary, a_side = a
    b_level, b_boundary, b_side = b
    if a_level > g.rank or b_level > g.rank:
        validate_cut(g, a)
        validate_cut(g, b)
    if b_level >= a_level:
        level = a_level
        attained = b_level > a_level or b_side == CLOSED
        side = a_side if attained else CLOSED
    else:
        level = b_level
        side = OPEN if b_side == CLOSED else CLOSED
    boundary = tuple(map(operator.sub, a_boundary, b_boundary))
    return normalize(g, Cut(level, boundary, side))


def ring_cut(g: ValueGroup, level: Optional[int] = None) -> Cut:
    """The cut of V (full level) or of the localization at the height-`level` prime."""
    if level is None:
        level = g.rank
    return Cut(level, (0,) * level, CLOSED)


def prime_cut(g: ValueGroup, level: int) -> Cut:
    """Canonical cut of the height-`level` prime ideal."""
    return normalize(g, Cut(level, (0,) * level, OPEN))


def _probe_point(g: ValueGroup, a: Cut):
    # Some group element strictly inside the upper set.
    level, boundary, _ = a
    return g.element(boundary[:-1] + (math.ceil(boundary[-1]) + 1,) + (0,) * (g.rank - level))


def t_closure(g: ValueGroup, a: Cut) -> Cut:
    """t-closure; the identity map here.

    Every nonzero fractional ideal of a valuation domain is a t-ideal:
    finitely generated subideals are principal, hence divisorial, and their
    union returns the ideal.  Kept as an explicit step so that callers spell
    out where the star operation acts; the containment probe that guards the
    identity claim runs once per cut, in `is_regular`.
    """
    level, _, _ = a
    if level > g.rank:
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
    `level`, computed over the overring, whose value group is the prefix
    of the tower through `level`.  A level out of range (the ring cut
    refuses it) and a cut that is no ideal of the overring (`a T != a`)
    raise.  The closure then reads the literal as it stands: `t_closure`
    reads nothing of a group but its rank, and the overring's rank would
    add only the bound `a.level <= level` that `a T = a` has just checked,
    so no truncated group is built.  For common ideals this must agree
    with the closure over the base; callers assert that equality."""
    t = ring_cut(g, level)
    if mul(g, a, t) != a:
        raise DomainMismatchError("not an ideal of the overring at this level")
    return t_closure(g, a)


def translate(g: ValueGroup, a: Cut, shift) -> Cut:
    """The cut of the principal multiple with value `shift` (a group element, unchecked)."""
    level, boundary, side = a
    if level > g.rank:
        validate_cut(g, a)
    return Cut(level, tuple(map(operator.add, boundary, shift)), side)


def is_idempotent(g: ValueGroup, a: Cut) -> bool:
    return mul(g, a, a) == a


def _witness(g: ValueGroup, a: Cut, t: Cut) -> Cut:
    # (I (T:I))_t, given T = (I:I)
    return t_closure(g, mul(g, a, quotient(g, t, a)))


def idempotent_cut(g: ValueGroup, a: Cut) -> Cut:
    """The canonical idempotent attached to a's class: (I (T:I))_t with T = (I:I)."""
    return _witness(g, a, stabilizer(g, a))


class OverringSpec(NamedTuple):
    """An overring of the base, one localization level per component."""

    levels: tuple[int, ...]


class IdempotentForm(NamedTuple):
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


def classify_idempotent(g: ValueGroup, a: Cut | CutClass) -> IdempotentForm:
    """The unique idempotent whose constituent group contains a's class, read
    off the level and side of a canonical cut or of its class key.

    Side closed means the class carries a representative that is a ring
    multiple, so the idempotent is the stabilizer overring itself; side open
    (dense top component) lands on the idempotent maximal ideal of that
    overring.  `is_regular` checks the witness construction (I (T:I))_t
    against this form.
    """
    level, side = a.level, a.side
    if level > g.rank:
        validate_cut(g, a)
    return rank1_form(level, side == OPEN)


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


class RegularityWitness(NamedTuple):
    idempotent: Cut
    shift: Optional[tuple[int | Rat, ...]]


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
    shift: Optional[tuple[int | Rat, ...]] = None
    if all(map(is_member, g.components, a.boundary)):
        shift = a.boundary + (0,) * (g.rank - a.level)
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
    kind = comp.kind
    if kind == "Q":
        return 0, 1
    if kind == "Zloc":  # the p-part of d is a unit: divide it out
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
        return Cut(self.level, (0,) * (self.level - 1) + (Rat(self.n, self.d),), self.side)


def class_of(g: ValueGroup, a: Cut) -> CutClass:
    level, boundary, side = a
    if level > g.rank:
        validate_cut(g, a)
    top = boundary[-1]
    return tuple.__new__(CutClass, (level, side)
                         + _coset_rep(g.components[level - 1], top.numerator, top.denominator))


def class_row(g: ValueGroup, x: CutClass, ys) -> list[CutClass]:
    """The class t-products x * y for every y of `ys`, in order: the class
    of the product of the reps, with no `t_closure` since every ideal of a
    valuation domain is a t-ideal.  On a constituent group it is the
    group's law.  This is the one statement of the class product;
    `class_mul` is its one-element row.

    It works on the keys alone, by `mul`'s rule: the reps are zero below
    their tops, so unequal levels give the shallower class, and equal ones
    the sum of the tops, n/d with d = x_d * y_d.  `class_of` divides the
    localized primes out of every key's denominator (a Q key is 0/1), so d
    is free of them too, and the sum's class is (n mod d)/d in lowest terms.
    At x's level the side depends only on y's side, so `_product_side` is
    asked once per distinct y side there, and once per product elsewhere."""
    x_level, x_side, x_n, x_d = x
    sides = {}  # y's side -> the product's side, at x's level
    out = []
    append, new, gcd = out.append, tuple.__new__, math.gcd
    for y in ys:
        y_level, y_side, y_n, y_d = y
        if y_level != x_level:
            level, _, n, d = x if x_level < y_level else y
            append(new(CutClass, (level, _product_side(x_level, x_side, y_level, y_side), n, d)))
            continue
        side = sides.get(y_side)
        if side is None:
            side = sides[y_side] = _product_side(x_level, x_side, y_level, y_side)
        d = x_d * y_d
        n = (x_n * y_d + y_n * x_d) % d
        common = gcd(n, d)
        append(new(CutClass, (x_level, side, n // common, d // common)))
    return out


def class_mul(g: ValueGroup, x: CutClass, y: CutClass) -> CutClass:
    """The class t-product of two classes: `class_row`'s one-element row."""
    return class_row(g, x, (y,))[0]


def idempotents(g: ValueGroup) -> list[tuple[IdempotentForm, Cut, Cut]]:
    """(form, J, (J : J)) for each form of `idempotent_forms`, with J the
    form's cut; raises NotIdempotentError when some J is not idempotent.
    Built once per component and check, for each `group_membership` call."""
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
    `verify` runs it once per distinct sampled (component, cut) in
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
# A plain decimal n or n/d, read by `int`; every other spelling, non-ASCII
# digits included, is Fraction()'s to read.
_PLAIN = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_CUT_KEYS = frozenset({"level", "boundary", "side"})


def _coordinate(c) -> int | Rat:
    if isinstance(c, bool) or not isinstance(c, (int, str)):
        raise MalformedCutError(f"a boundary coordinate is a JSON number or a string, got {c!r}")
    text = str(c)
    plain = len(text) <= MAX_COORDINATE_CHARS and _PLAIN.fullmatch(text)
    if plain and plain[2] is None:
        return int(text)
    if plain and plain[2].strip("0"):  # a zero denominator is Fraction()'s error
        return Rat(int(plain[1]), int(plain[2]))
    exp = _EXPONENT.search(text)
    if len(text) > MAX_COORDINATE_CHARS or (exp and int(exp.group(1)) > MAX_EXPONENT):
        raise MalformedCutError(
            f"boundary coordinate {text[:24]!r} exceeds the literal limits "
            f"({MAX_COORDINATE_CHARS} characters, exponent at most {MAX_EXPONENT})"
        )
    try:
        return Rat(text)
    except (ValueError, ZeroDivisionError) as e:
        raise MalformedCutError(f"bad boundary coordinate {text!r}: {e}") from None


def cut_from_json(g: ValueGroup, obj) -> Cut:
    """Parse a cut literal of `g`, check its level and return its canonical cut."""
    if not isinstance(obj, dict) or obj.keys() != _CUT_KEYS:
        raise MalformedCutError(f"a cut literal has keys level/boundary/side, got {obj!r}")
    level, boundary = obj["level"], obj["boundary"]
    if isinstance(level, bool) or not isinstance(level, int):
        raise MalformedCutError(f"level must be an integer, got {level!r}")
    if not isinstance(boundary, list):
        raise MalformedCutError(f"boundary must be a list of rationals, got {boundary!r}")
    return normalize(g, Cut(level, tuple(map(_coordinate, boundary)), obj["side"]))


def format_cut(a: Cut) -> str:
    inside = ", ".join(str(c) for c in a.boundary)
    return f"<{a.level}; ({inside}); {a.side}>"


# === adapter for the finite-semigroup oracle ===

class ValuationClassModel:
    """The semigroup oracle's handle on one valuation domain: the
    one-component `pruefer.PrueferClassModel` under the `valuation` writer,
    on bare classes instead of 1-tuples."""

    def __init__(self, group: ValueGroup):
        self.group = group
        self._idempotents = {}  # form -> its idempotent's class, built once

    def class_of(self, a: Cut) -> CutClass:
        return class_of(self.group, a)

    def row(self, x: CutClass, ys) -> list[CutClass]:
        return class_row(self.group, x, ys)

    def idempotent_of(self, x: CutClass) -> CutClass:
        g, form = self.group, classify_idempotent(self.group, x)
        e = self._idempotents.get(form)
        if e is None:
            e = self._idempotents[form] = class_of(g, form_cut(g, form))
        return e

    def describe(self, x: CutClass) -> str:
        return json.dumps(cut_to_json(x.rep), sort_keys=True)
