"""Seeded random generators for the cuts `verify` samples.

Everything stays inside the box oracle's budget on purpose: boundary
coordinates in [-SPAN, SPAN] and denominators small enough that the
oracle's lattice refinement stays within its cap of 64 up to a least prime
of 7 (from 11 on it refuses).  Generators take an explicit random.Random so
every caller is reproducible from a seed.

This module is the one home of that sampling window.  Per component,
built once per (kind, primes), it holds each coordinate n/d once, with a
small integer code, and for each denominator d the range of its codes;
the coordinate is `cuts.Rat(n, d)`, so the `int` n // d when d divides
n, as `cuts` makes every integral coordinate, and a `Rat` otherwise.  A
coordinate is a denominator picked from the ranges, then a code picked
from its range.

Every pick runs `Random._randbelow_with_getrandbits`'s rule on
`getrandbits`: `choice(seq)` is `seq[_randbelow(len(seq))]` and
`randint(a, b)` is `a + _randbelow(b - a + 1)`, so these draws use the
generator exactly as `randint` over the numerators did, with no
Python-level `Random` method around the `getrandbits` call.  That is the
contract: a draw consumes a `random.Random` as its getrandbits-based
`_randbelow` does.  `verify` makes plain generators; a subclass that
overrides only `random()` would draw differently here than through
`choice`.  A draw's picks run in one loop, `_draw`, over a plan that its
window builds once per level and way of drawing (`random_cut` first runs
it over the levels); `_below` states the same rule for a single pick
(`overring_transfer`'s level, the box oracle's points).

A draw is named by one small int: its codes, then a digit holding its
side and, as the low bit, whether the cut is normalised (`random_cut`)
or kept as drawn.  Each
generator keeps per group one table from name to cut, which builds the
boundary, the `Cut` and any `normalize` of a name at its first draw, so
a repeated draw allocates nothing.  A table is found by its group's `id`
(a `ValueGroup` hash costs more than a draw) and holds its group, so the
id is not reused while the table lives.  A generator keeps its tables in
one private attribute of its own, so they live and die with it by plain
reference; a copy or unpickling of a generator starts with none.
`verify` makes one generator per command, so no command reads a cut that
another command built, and a fault planted in the kernel between
commands is never hidden by an earlier result.
"""

from __future__ import annotations

import functools
import random
from operator import getitem
from typing import NamedTuple

from . import cuts as C
from .groups import DISCRETE, RATIONALS, ArchComponent, ValueGroup, is_member
from .cuts import CLOSED, OPEN, Cut

SPAN = 2
# A name's codes are its base-_RADIX digits, one per coordinate, above its
# side digit; codes start at 1, so the digits count the level.
_RADIX = 64


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
    """A component's window as picks for `_draw`: a denominator d, then a
    code of n/d for n from -SPAN d to SPAN d."""

    window: tuple
    members: tuple  # the picks over the denominators d with 1/d a member
    values: tuple  # code -> its coordinate
    zero: int  # the code of 0/1


def _pick(options) -> tuple:
    # A node of a plan: one pick among `options`, which are leaves or nodes.
    return len(options), len(options).bit_length(), options


@functools.cache
def _coordinates(kind: str, primes: frozenset) -> _Coordinates:
    comp = ArchComponent(kind, primes)
    window, members, values = [], [], [None]
    for d in den_choices(comp):
        codes = _pick(range(len(values), len(values) + 2 * SPAN * d + 1))
        window.append(codes)
        if is_member(comp, C.Rat(1, d)):
            members.append(codes)
        values += (C.Rat(n, d) for n in range(-SPAN * d, SPAN * d + 1))
    assert len(values) <= _RADIX
    return _Coordinates(_pick(tuple(window)), _pick(tuple(members)), tuple(values),
                        values.index(0))


# The side digit of a name: closed or open, and a random side normalised.
_CLOSED, _OPEN, _RANDOM_SIDE = 0, 2, _pick((1, 3))


class _Window(dict):
    """One generator's draws over the group `g`: per level, the plans of
    its ways of drawing, and the cut of each name drawn so far, built on a
    miss."""

    __slots__ = ("g", "values", "levels", "closed", "open", "random", "target")

    def __init__(self, g: ValueGroup):
        self.g = g  # held, so no other group takes its id meanwhile
        tables = tuple(_coordinates(c.kind, c.primes) for c in g.components)
        self.values = tuple(t.values for t in tables)
        self.levels = (_pick(range(len(tables))),)
        below = [tuple(t.members for t in tables[:i]) for i in range(len(tables))]
        self.closed = tuple(b + (t.members, _CLOSED) for b, t in zip(below, tables))
        self.open = tuple(b + (t.window, _OPEN) for b, t in zip(below, tables))
        self.random = tuple(b + (t.window, _RANDOM_SIDE) for b, t in zip(below, tables))
        self.target = tuple(tuple(t.zero for t in tables[:i]) + (tables[i].window, _OPEN)
                            for i in range(len(tables)))

    def __missing__(self, name: int) -> Cut:
        rest, digit = divmod(name, _RADIX)
        codes = []
        for _ in self.values:  # at most one digit per component
            if rest:
                rest, code = divmod(rest, _RADIX)
                codes.insert(0, code)
        c = C._trusted_cut((len(codes), tuple(map(getitem, self.values, codes)),
                            OPEN if digit & 2 else CLOSED))
        c = self[name] = C.normalize(self.g, c) if digit & 1 else c
        return c


def _window(rng: random.Random, g: ValueGroup) -> _Window:
    try:
        return rng._tclass_windows[id(g)]
    except AttributeError:
        rng._tclass_windows = {}  # id(group) -> its _Window
    except KeyError:
        pass
    w = rng._tclass_windows[id(g)] = _Window(g)
    return w


def _draw(bits, plan: tuple) -> int:
    """The name a plan draws: per step, a leaf digit as it is, or a node's
    picks down to a leaf, each by `_below`'s rule."""
    name = 0
    for node in plan:
        while node.__class__ is tuple:
            n, k, node = node
            r = bits(k)
            while r >= n:
                r = bits(k)
            node = node[r]
        name = name * _RADIX + node
    return name


def random_cut(rng: random.Random, g: ValueGroup) -> Cut:
    """A canonical cut: a level, member coordinates below it, any top of
    the window and a side (a pick of 1 from two is open), normalised."""
    w = _window(rng, g)
    bits = rng.getrandbits
    return w[_draw(bits, w.random[_draw(bits, w.levels)])]


def group_cut(rng: random.Random, g: ValueGroup, level: int, side: str) -> Cut:
    """A cut at `level` and `side`, canonical as drawn: member coordinates
    below the top, a member top when closed, any top of the window when
    open.  Callers ask for an open cut at a dense level only, where every
    top is canonical."""
    w = _window(rng, g)
    return w[_draw(rng.getrandbits, (w.open if side == OPEN else w.closed)[level - 1])]


def target_cut(rng: random.Random, g: ValueGroup, level: int) -> Cut:
    """The open cut at a dense `level` with zeros below the top and any
    top of the window: a class of the localized group at that level."""
    w = _window(rng, g)
    return w[_draw(rng.getrandbits, w.target[level - 1])]
