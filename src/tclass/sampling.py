"""Seeded random generators for cuts, tuples, and group elements.

Everything stays inside the box oracle's budget on purpose: boundary
coordinates in [-SPAN, SPAN] and denominators small enough that the
oracle's lattice refinement stays within its cap of 64 up to a least prime
of 7 (from 11 on it refuses).  Generators take an explicit random.Random so
every caller is reproducible from a seed.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from .groups import DISCRETE, RATIONALS, ArchComponent, ValueGroup, is_member
from .cuts import CLOSED, OPEN, Cut, normalize

SPAN = 2


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


def random_rational(rng: random.Random, comp: ArchComponent) -> Fraction:
    """A boundary coordinate, not necessarily a member of the component."""
    d = rng.choice(den_choices(comp))
    return Fraction(rng.randint(-SPAN * d, SPAN * d), d)


@functools.cache
def _member_dens(comp: ArchComponent) -> tuple[int, ...]:
    return tuple(d for d in den_choices(comp) if is_member(comp, Fraction(1, d)))


def random_member(rng: random.Random, comp: ArchComponent) -> Fraction:
    d = rng.choice(_member_dens(comp))
    return Fraction(rng.randint(-SPAN * d, SPAN * d), d)


def random_cut(rng: random.Random, g: ValueGroup) -> Cut:
    """A canonical cut with member coordinates below the top."""
    level = rng.randint(1, g.rank)
    boundary = [random_member(rng, g.components[k]) for k in range(level - 1)]
    boundary.append(random_rational(rng, g.components[level - 1]))
    side = rng.choice((CLOSED, OPEN))
    return normalize(g, Cut(level, tuple(boundary), side))

