"""Totally ordered abelian groups built as lexicographic towers of
archimedean subgroups of Q.

A group is a finite tuple of components, most significant first.  Elements
are tuples of rationals (an `int` when integral, else a `Fraction`), one
coordinate per component, compared lexicographically.  The convex
subgroups of such a tower are exactly the suffix kernels
H_i = {x : x_1 = ... = x_i = 0} for i = 0..n, so a convex subgroup is
represented by its index i alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

DISCRETE = "Z"
RATIONALS = "Q"
LOCALIZED = "Zloc"


class MalformedElementError(ValueError):
    pass


# Deterministic Miller-Rabin: the prime bases 2..37 decide every n below
# PRIMALITY_BOUND (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIMALITY_BOUND = 318665857834031151167461


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    if p >= PRIMALITY_BOUND:
        raise ValueError(
            f"{p} is not below {PRIMALITY_BOUND}, the limit of the exact primality test"
        )
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class ArchComponent:
    """One archimedean slot of the tower: Z, all of Q, or Z localized so
    that denominators draw their prime factors from a fixed finite set."""

    kind: str
    primes: frozenset[int] = field(default_factory=frozenset)
    # Z is the only archimedean subgroup here with a least positive
    # element; stored once, as the kernel reads it on every cut.
    dense: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in (DISCRETE, RATIONALS, LOCALIZED):
            raise ValueError(f"unknown component kind {self.kind!r}")
        object.__setattr__(self, "primes", frozenset(self.primes))
        if self.kind == LOCALIZED:
            if not self.primes:
                raise ValueError("a localized component needs at least one prime")
            for p in self.primes:
                if not _is_prime(p):
                    raise ValueError(f"{p} is not prime")
        elif self.primes:
            raise ValueError(f"{self.kind} component takes no primes")
        object.__setattr__(self, "dense", self.kind != DISCRETE)


Z = ArchComponent(DISCRETE)
Q = ArchComponent(RATIONALS)


def Zloc(*primes: int) -> ArchComponent:
    return ArchComponent(LOCALIZED, frozenset(primes))


def is_member(comp: ArchComponent, q: int | Fraction) -> bool:
    """Membership of a rational in the component (not just its divisible hull)."""
    if q.__class__ is int or comp.kind == RATIONALS:
        return True
    if comp.kind == DISCRETE:
        return q.denominator == 1
    d = q.denominator
    for p in comp.primes:
        while d % p == 0:
            d //= p
    return d == 1


@dataclass(frozen=True)
class ValueGroup:
    components: tuple[ArchComponent, ...]
    # len(components), stored once: every kernel operation reads it.
    rank: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("a value group needs at least one component")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "rank", len(comps))

    def element(self, coords) -> tuple[int | Fraction, ...]:
        """Validated element: one member coordinate per component."""
        xs = tuple(coords)
        if len(xs) != self.rank:
            raise MalformedElementError(
                f"expected {self.rank} coordinates, got {len(xs)}"
            )
        for pos, (c, comp) in enumerate(zip(xs, self.components)):
            if not is_member(comp, c):
                raise MalformedElementError(
                    f"coordinate {pos + 1} = {c} is not a member of {describe_component(comp)}"
                )
        return xs


def is_strongly_discrete(g: ValueGroup) -> bool:
    return all(not c.dense for c in g.components)


# === JSON descriptors ===
# Component descriptors: "Z" | "Q" | {"Zloc": [primes...]}; a value group is a
# list of descriptors, most significant first.

def component_from_json(obj) -> ArchComponent:
    if obj == "Z":
        return Z
    if obj == "Q":
        return Q
    if isinstance(obj, dict) and set(obj) == {"Zloc"}:
        primes = obj["Zloc"]
        if not isinstance(primes, list) or not all(
            isinstance(p, int) and not isinstance(p, bool) for p in primes
        ):
            raise ValueError(f"Zloc wants a list of primes, got {primes!r}")
        return Zloc(*primes)
    raise ValueError(f"unknown component descriptor {obj!r}")


def component_to_json(comp: ArchComponent):
    if comp.kind == LOCALIZED:
        return {"Zloc": sorted(comp.primes)}
    return comp.kind


def describe_component(comp: ArchComponent) -> str:
    if comp.kind == LOCALIZED:
        inside = ",".join(f"1/{p}" for p in sorted(comp.primes))
        return f"Z[{inside}]"
    return comp.kind


def value_group_from_json(obj) -> ValueGroup:
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"a value group descriptor is a non-empty list, got {obj!r}")
    return ValueGroup(tuple(component_from_json(c) for c in obj))


def value_group_to_json(g: ValueGroup):
    return [component_to_json(c) for c in g.components]
