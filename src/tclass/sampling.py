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

A draw is named by one small int built from its codes and its side.  Each
generator keeps, per group, the cut of every name it has drawn, so the
boundary, the `Cut` and `normalize` are built once per distinct draw, and
a repeated draw allocates nothing.  That table lives and dies with the
generator: `verify` makes one per command, so no command reads a cut that
another command built, and a fault planted in the kernel between commands
is never hidden by an earlier result.
"""

from __future__ import annotations

import functools
import random
import weakref
from fractions import Fraction

from . import cuts as C
from .groups import DISCRETE, RATIONALS, ArchComponent, ValueGroup, is_member
from .cuts import CLOSED, OPEN, Cut

SPAN = 2
_SIDES = (CLOSED, OPEN)
# A name has one base-_RADIX digit per coordinate, its code (codes start
# at 1, so the digits count the level), then the side as the low bit.
_RADIX = 64

# generator -> ([(group, its _Window)], {group: its _Window}); an entry
# goes with its generator.
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


class _Coordinates:
    """A component's window: per denominator d, the range of codes of n/d
    for n from -SPAN d to SPAN d."""

    __slots__ = ("window", "members", "values", "zero")

    def __init__(self, comp: ArchComponent):
        window, members, values = [], [], [None]
        for d in den_choices(comp):
            codes = range(len(values), len(values) + 2 * SPAN * d + 1)
            window.append(codes)
            if is_member(comp, Fraction(1, d)):
                members.append(codes)
            values += (Fraction(n, d) for n in range(-SPAN * d, SPAN * d + 1))
        assert len(values) <= _RADIX
        self.window = tuple(window)
        self.members = tuple(members)  # the denominators d with 1/d a member
        self.values = tuple(values)  # code -> its coordinate
        self.zero = values.index(0)  # the code of 0/1


@functools.cache
def _coordinates(kind: str, primes: frozenset) -> _Coordinates:
    return _Coordinates(ArchComponent(kind, primes))


class _Window:
    """One generator's draws over one group: the coordinate tables per
    component, and per name drawn so far its cut, normalised
    (`random_cut`) or as drawn (`group_cut`, `target_cut`)."""

    __slots__ = ("levels", "tables", "normalized", "as_drawn")

    def __init__(self, g: ValueGroup):
        self.levels = range(1, g.rank + 1)
        self.tables = tuple(_coordinates(c.kind, c.primes) for c in g.components)
        self.normalized: dict[int, Cut] = {}
        self.as_drawn: dict[int, Cut] = {}

    def built(self, name: int) -> Cut:
        """The cut a name was drawn as."""
        side = OPEN if name & 1 else CLOSED
        codes = []
        name >>= 1
        while name:
            name, code = divmod(name, _RADIX)
            codes.append(code)
        codes.reverse()
        return Cut(len(codes), tuple(t.values[c] for t, c in zip(self.tables, codes)), side)


def _window(rng: random.Random, g: ValueGroup) -> _Window:
    # A command draws from a few groups over and over: find the group by
    # identity first, since hashing a `ValueGroup` costs more than a draw's
    # dictionary lookup.  `seen` holds the first object of each group.
    windows = _DRAWN.get(rng)
    if windows is None:
        windows = _DRAWN[rng] = ([], {})
    seen, by_group = windows
    for h, w in seen:
        if h is g:
            return w
    w = by_group.get(g)
    if w is None:
        w = by_group[g] = _Window(g)
        seen.append((g, w))
    return w


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
    name = _codes(choice, w.tables, choice(w.levels), True) * 2 + (choice(_SIDES) == OPEN)
    c = w.normalized.get(name)
    if c is None:
        c = w.normalized[name] = C.normalize(g, w.built(name))
    return c


def group_cut(rng: random.Random, g: ValueGroup, level: int, side: str) -> Cut:
    """A cut at `level` and `side`, canonical as drawn: member coordinates
    below the top, a member top when closed, any top of the window when
    open.  Callers ask for an open cut at a dense level only, where every
    top is canonical."""
    w = _window(rng, g)
    name = _codes(rng.choice, w.tables, level, side == OPEN) * 2 + (side == OPEN)
    c = w.as_drawn.get(name)
    if c is None:
        c = w.as_drawn[name] = w.built(name)
    return c


def target_cut(rng: random.Random, g: ValueGroup, level: int) -> Cut:
    """The open cut at a dense `level` with zeros below the top and any
    top of the window: a class of the localized group at that level."""
    w = _window(rng, g)
    name = 0
    for t in w.tables[: level - 1]:
        name = name * _RADIX + t.zero
    choice = rng.choice
    name = (name * _RADIX + choice(choice(w.tables[level - 1].window))) * 2 + 1
    c = w.as_drawn.get(name)
    if c is None:
        c = w.as_drawn[name] = w.built(name)
    return c
