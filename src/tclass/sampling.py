"""Seeded random generators for the cuts `verify` samples.

Everything stays inside the box oracle's budget on purpose: boundary
coordinates in [-SPAN, SPAN] and denominators small enough that the
oracle's lattice refinement stays within its cap of 64 up to a least prime
of 7 (from 11 on it refuses).  Generators take an explicit random.Random so
every caller is reproducible from a seed.

This module is the one home of that sampling window.  Per component,
built once per (kind, primes), it holds each coordinate n/d once, as a
`Fraction` with a small integer code, and for each denominator d the range
of its codes; a coordinate is a denominator picked by `rng.choice`, then a
code picked from its range.  `choice(seq)` is
`seq[_randbelow(len(seq))]` and `randint(a, b)` is `a + _randbelow(b - a
+ 1)`, so these draws use the generator exactly as `randint` over the
numerators would.

A draw is named by one small int: its codes, its side, and as the low bit
whether the cut is normalised (`random_cut`) or kept as drawn.  Each
generator keeps per group one table from name to cut, which builds the
boundary, the `Cut` and any `normalize` of a name at its first draw, so
a repeated draw allocates nothing.  A table is found by its group's `id`
(a `ValueGroup` hash costs more than a draw) and holds its group, so the
id is not reused while the table lives.  The tables go with their
generator: `verify` makes one per command, so no command reads a cut that
another command built, and a fault planted in the kernel between commands
is never hidden by an earlier result.
"""

from __future__ import annotations

import functools
import random
import weakref
from fractions import Fraction
from typing import NamedTuple

from . import cuts as C
from .groups import DISCRETE, RATIONALS, ArchComponent, ValueGroup, is_member
from .cuts import CLOSED, OPEN, Cut

SPAN = 2
_SIDES = (CLOSED, OPEN)
# A name's codes are its base-_RADIX digits, one per coordinate; codes
# start at 1, so the digits count the level.
_RADIX = 64

# generator -> {id(group): its _Window}; an entry goes with its generator.
_DRAWN: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def den_choices(comp: ArchComponent) -> tuple[int, ...]:
    """Boundary denominators the box oracle can afford at this component."""
    if comp.kind == DISCRETE:
        return (1,)
    if comp.kind == RATIONALS:
        return (1, 2, 3, 4)
    p = min(comp.primes)
    if p == 2:
        return (1, 2, 3, 4)
    if p == 3:
        return (1, 2, 3)
    return (1, 2)


class _Coordinates(NamedTuple):
    """A component's window: per denominator d, the range of codes of n/d
    for n from -SPAN d to SPAN d."""

    window: tuple
    members: tuple  # the ranges of the denominators d with 1/d a member
    values: tuple  # code -> its coordinate
    zero: int  # the code of 0/1


@functools.cache
def _coordinates(kind: str, primes: frozenset) -> _Coordinates:
    comp = ArchComponent(kind, primes)
    window, members, values = [], [], [None]
    for d in den_choices(comp):
        codes = range(len(values), len(values) + 2 * SPAN * d + 1)
        window.append(codes)
        if is_member(comp, Fraction(1, d)):
            members.append(codes)
        values += (Fraction(n, d) for n in range(-SPAN * d, SPAN * d + 1))
    assert len(values) <= _RADIX
    return _Coordinates(tuple(window), tuple(members), tuple(values), values.index(0))


class _Window(dict):
    """One generator's draws over the group `g`: the coordinate tables per
    component, and the cut of each name drawn so far, built on a miss."""

    __slots__ = ("g", "levels", "tables")

    def __init__(self, g: ValueGroup):
        self.g = g  # held, so no other group takes its id meanwhile
        self.levels = range(1, g.rank + 1)
        self.tables = tuple(_coordinates(c.kind, c.primes) for c in g.components)

    def __missing__(self, name: int) -> Cut:
        normalized, side = name & 1, OPEN if name & 2 else CLOSED
        codes, rest = [], name >> 2
        for _ in self.tables:  # at most one digit per component
            if rest:
                rest, code = divmod(rest, _RADIX)
                codes.insert(0, code)
        c = Cut(len(codes), tuple(t.values[k] for t, k in zip(self.tables, codes)), side)
        c = self[name] = C.normalize(self.g, c) if normalized else c
        return c


def _window(rng: random.Random, g: ValueGroup) -> _Window:
    try:
        return _DRAWN[rng][id(g)]
    except KeyError:
        return _DRAWN.setdefault(rng, {}).setdefault(id(g), _Window(g))


def _codes(choice, tables: tuple, level: int, any_top: bool) -> int:
    """The codes of a draw: members below `level`, then a top from the
    window (`any_top`) or from the members."""
    name = 0
    for t in tables[: level - 1]:
        name = name * _RADIX + choice(choice(t.members))
    top = tables[level - 1]
    return name * _RADIX + choice(choice(top.window if any_top else top.members))


def random_cut(rng: random.Random, g: ValueGroup) -> Cut:
    """A canonical cut: a level, member coordinates below it, any top of
    the window and a side, normalised."""
    w = _window(rng, g)
    choice = rng.choice
    return w[_codes(choice, w.tables, choice(w.levels), True) * 4
             + (choice(_SIDES) == OPEN) * 2 + 1]


def group_cut(rng: random.Random, g: ValueGroup, level: int, side: str) -> Cut:
    """A cut at `level` and `side`, canonical as drawn: member coordinates
    below the top, a member top when closed, any top of the window when
    open.  Callers ask for an open cut at a dense level only, where every
    top is canonical."""
    w = _window(rng, g)
    return w[_codes(rng.choice, w.tables, level, side == OPEN) * 4 + (side == OPEN) * 2]


def target_cut(rng: random.Random, g: ValueGroup, level: int) -> Cut:
    """The open cut at a dense `level` with zeros below the top and any
    top of the window: a class of the localized group at that level."""
    w = _window(rng, g)
    name = 0
    for t in w.tables[: level - 1]:
        name = name * _RADIX + t.zero
    choice = rng.choice
    return w[(name * _RADIX + choice(choice(w.tables[level - 1].window))) * 4 + 2]
