"""Seeded random generators for the cuts `verify` samples.

Everything stays inside the box oracle's budget on purpose: boundary
coordinates in [-SPAN, SPAN] and denominators small enough that the
oracle's lattice refinement stays within its cap of 64 up to a least prime
of 7 (from 11 on it refuses).  Generators take an explicit random.Random so
every caller is reproducible from a seed.

This module is the one home of that sampling window.  Per component,
built once per (kind, primes), it holds each coordinate n/d once, with a
small integer code, and for each denominator d the range of its codes;
the coordinate is the `int` n // d when d divides n, as `cuts` makes
every integral coordinate, and a `Fraction` otherwise.  A coordinate is
a denominator picked from the ranges, then a code picked from its range.
Every pick is one `_below(getrandbits, n)`, the module's copy of
`Random._randbelow_with_getrandbits`: `choice(seq)` is
`seq[_randbelow(len(seq))]` and `randint(a, b)` is
`a + _randbelow(b - a + 1)`, so these draws use the generator exactly as
`randint` over the numerators did, with no Python-level `Random` method
around the `getrandbits` call.  That is the contract: a draw consumes a
`random.Random` as its getrandbits-based `_randbelow` does.  `verify`
makes plain generators; a subclass that overrides only `random()` would
draw differently here than through `choice`.

A draw is named by one small int: its codes, its side, and as the low bit
whether the cut is normalised (`random_cut`) or kept as drawn.  Each
generator keeps per group one table from name to cut, which builds the
boundary, the `Cut` and any `normalize` of a name at its first draw, so
a repeated draw allocates nothing.  A table is found by its group's `id`
(a `ValueGroup` hash costs more than a draw) and holds its group, so the
id is not reused while the table lives.  A generator's tables are found
by its own `id` in a plain dict, which a `weakref.finalize` on the
generator empties, so the tables go with their generator: `verify` makes
one per command, so no command reads a cut that another command built,
and a fault planted in the kernel between commands is never hidden by an
earlier result.
"""

from __future__ import annotations

import functools
import random
import weakref
from fractions import Fraction
from operator import getitem
from typing import NamedTuple

from . import cuts as C
from .groups import DISCRETE, RATIONALS, ArchComponent, ValueGroup, is_member
from .cuts import CLOSED, OPEN, Cut

SPAN = 2
# A name's codes are its base-_RADIX digits, one per coordinate; codes
# start at 1, so the digits count the level.
_RADIX = 64

# id(generator) -> {id(group): its _Window}; a finalizer on the generator
# pops its entry, so the entry goes before the id can be reused.
_DRAWN: dict = {}


def _below(getrandbits, n: int) -> int:
    """An int in [0, n) from `Random._randbelow_with_getrandbits`'s rule:
    the same calls of `getrandbits(n.bit_length())`, rejections included,
    with no method calls around them.  An empty range raises, as `randint`
    does, where the rule itself would spin (`getrandbits(0)` is 0); the
    test runs on a rejected draw only."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        if n < 1:
            raise ValueError(f"empty range for _below: {n}")
        r = getrandbits(k)
    return r


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
        values += (n // d if n % d == 0 else Fraction(n, d)
                   for n in range(-SPAN * d, SPAN * d + 1))
    assert len(values) <= _RADIX
    return _Coordinates(tuple(window), tuple(members), tuple(values), values.index(0))


class _Window(dict):
    """One generator's draws over the group `g`: the coordinate tables per
    component, and the cut of each name drawn so far, built on a miss."""

    __slots__ = ("g", "tables", "values")

    def __init__(self, g: ValueGroup):
        self.g = g  # held, so no other group takes its id meanwhile
        self.tables = tuple(_coordinates(c.kind, c.primes) for c in g.components)
        self.values = tuple(t.values for t in self.tables)

    def __missing__(self, name: int) -> Cut:
        normalized, side = name & 1, OPEN if name & 2 else CLOSED
        codes, rest = [], name >> 2
        for _ in self.tables:  # at most one digit per component
            if rest:
                rest, code = divmod(rest, _RADIX)
                codes.insert(0, code)
        c = Cut(len(codes), tuple(map(getitem, self.values, codes)), side)
        c = self[name] = C.normalize(self.g, c) if normalized else c
        return c


def _window(rng: random.Random, g: ValueGroup) -> _Window:
    try:
        return _DRAWN[id(rng)][id(g)]
    except KeyError:
        if id(rng) not in _DRAWN:
            _DRAWN[id(rng)] = {}
            weakref.finalize(rng, _DRAWN.pop, id(rng), None)
        w = _DRAWN[id(rng)][id(g)] = _Window(g)
        return w


def _code(bits, ranges: tuple) -> int:
    """A denominator's range of codes, then a code in it, as
    `choice(choice(ranges))` draws them."""
    codes = ranges[_below(bits, len(ranges))]
    return codes[_below(bits, len(codes))]


def _codes(bits, tables: tuple, level: int, any_top: bool) -> int:
    """The codes of a draw: members below `level`, then a top from the
    window (`any_top`) or from the members."""
    name = 0
    for t in tables[: level - 1]:
        name = name * _RADIX + _code(bits, t.members)
    top = tables[level - 1]
    return name * _RADIX + _code(bits, top.window if any_top else top.members)


def random_cut(rng: random.Random, g: ValueGroup) -> Cut:
    """A canonical cut: a level, member coordinates below it, any top of
    the window and a side (a `_below(bits, 2)` of 1 is open), normalised."""
    w = _window(rng, g)
    bits = rng.getrandbits
    level = 1 + _below(bits, len(w.tables))
    return w[_codes(bits, w.tables, level, True) * 4 + _below(bits, 2) * 2 + 1]


def group_cut(rng: random.Random, g: ValueGroup, level: int, side: str) -> Cut:
    """A cut at `level` and `side`, canonical as drawn: member coordinates
    below the top, a member top when closed, any top of the window when
    open.  Callers ask for an open cut at a dense level only, where every
    top is canonical."""
    w = _window(rng, g)
    return w[_codes(rng.getrandbits, w.tables, level, side == OPEN) * 4 + (side == OPEN) * 2]


def target_cut(rng: random.Random, g: ValueGroup, level: int) -> Cut:
    """The open cut at a dense `level` with zeros below the top and any
    top of the window: a class of the localized group at that level."""
    w = _window(rng, g)
    name = 0
    for t in w.tables[: level - 1]:
        name = name * _RADIX + t.zero
    return w[(name * _RADIX + _code(rng.getrandbits, w.tables[level - 1].window)) * 4 + 2]
