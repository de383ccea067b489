"""Box-truncated set arithmetic: the independent oracle for cut operations.

Everything here works pointwise on finite member lattices inside the box
[-8, 8]^rank and never consults the boundary-arithmetic formulas it checks.
Products come from minima of enumerated value sets (the sumset of two upper
sets of a totally ordered group is the upper set at the sum of their
minima), and residuals quantify over the enumerated divisor set through its
minimum, the worst case.

Resolution bookkeeping keeps the verdicts exact instead of approximate.
Minima live on a lattice refined beyond the one check points live on, and
each verdict is bracketed between two formula-free facts: clearing the
enumerated minima certifies membership, staying at or under the formal
boundary combination certifies exclusion.  The two disagree only on the
sub-resolution band a lattice enumeration inherently cannot decide (an
unattained infimum whose denominator lies outside the member lattice, e.g.
an edge at 19/12 over the dyadics); points there are skipped, every other
point gets an exact verdict.  The price is a budget: boundary coordinates
up to |3|, check coordinates up to |4|, denominators capped at 64, which
sampled cuts meet at every least prime up to 7 (11 needs 121).  Callers
stay inside those margins; the module raises rather than degrade silently.

Each check runs on an integer lattice.  It fixes one scale per component,
S_k = lcm(fine2[k], the denominator at k of every boundary it reads), and
writes every coordinate it forms (lattice points, lex minima, the virtual
infimum, formal sums and differences of boundaries) as the integer n that
stands for n / S_k.  Every such denominator divides S_k, and S_k > 0 keeps
the lex order, so each comparison is exact and decides as it would on
`Fraction`s, only on int tuples.  Membership in a cut is one such compare
of the point's prefix with the scaled boundary: `>=` for a closed cut, `>`
for an open one.  A point turns back into `Fraction`s only to be named in
a mismatch message.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, ge, gt, sub

from .groups import DISCRETE, RATIONALS, ValueGroup, localized_part
from .cuts import CLOSED, Cut
from .sampling import _below

LO, HI = -8, 8
MAX_BOUNDARY = 3
MAX_COORD = 4
DEN_CAP = 64
N_RANDOM = 16


def _check_den(comp) -> int:
    if comp.kind == DISCRETE:
        return 1
    if comp.kind == RATIONALS:
        return 4
    # From a least prime p of 5 on, points at 1/p would need fine2 >= p^3.
    return {2: 4, 3: 3}.get(min(comp.primes), 1)


def lattice_dens(g: ValueGroup, cuts, strict_discrete: bool = True):
    """Per-component (fine, fine2) lattice denominators adequate for `cuts`."""
    fine, fine2 = [], []
    for idx, comp in enumerate(g.components):
        dc = _check_den(comp)
        present = {dc}
        for c in cuts:
            if c.level > idx:
                present.add(c.boundary[idx].denominator)
        big = math.lcm(*present)
        if comp.kind == DISCRETE:
            if strict_discrete and big != 1:
                raise ValueError("canonical cuts keep integer coordinates at discrete components")
            fine.append(1)
            fine2.append(1)
            continue
        if comp.kind == RATIONALS:
            f = 2 * big
            f2 = 2 * f
        else:
            p = min(comp.primes)
            f = math.lcm(*(localized_part(comp, d) for d in present))
            while f <= big:
                f *= p
            f2 = f * p
        if f2 > DEN_CAP:
            raise ValueError(
                f"component {idx + 1} needs lattice denominator {f2} > {DEN_CAP}; "
                "keep boundary denominators small"
            )
        fine.append(f)
        fine2.append(f2)
    return fine, fine2


def lattice_scale(cuts, dens) -> tuple:
    """Per-component integer scale S_k: the lcm of the lattice denominator
    dens[k] and every boundary denominator of `cuts` at component k."""
    return tuple(
        math.lcm(d, *(c.boundary[k].denominator for c in cuts if c.level > k))
        for k, d in enumerate(dens)
    )


def _scaled(q: Fraction, s: int) -> int:
    return q.numerator * (s // q.denominator)


def _scaled_cut(a: Cut, scale) -> tuple:
    """(boundary on the integer lattice, membership test) of a cut: `ge`
    for a closed cut, `gt` for an open one."""
    return tuple(map(_scaled, a.boundary, scale)), ge if a.side == CLOSED else gt


def _inside(cut: tuple, x: tuple) -> bool:
    """Is the scaled point x in the upper set of the scaled cut?  One tuple
    compare: a prefix that differs from the boundary decides by `>`, and an
    equal prefix by the cut's side."""
    boundary, test = cut
    return test(x[: len(boundary)], boundary)


def _unscaled(x: tuple, scale) -> tuple:
    return tuple(map(Fraction, x, scale))


def _assert_small_boundary(a: Cut) -> None:
    if any(abs(q) > MAX_BOUNDARY for q in a.boundary):
        raise ValueError(f"box oracle wants |boundary| <= {MAX_BOUNDARY}")


def lex_min(a: Cut, dens, scale) -> tuple:
    """Lex-least member of the cut's upper set on the box lattice `dens`,
    as a point on the integer lattice `scale`.

    Prefer agreeing with the boundary for as long as its coordinates sit on
    the lattice; the first off-lattice coordinate gets rounded up and frees
    the rest to drop to the box floor.
    """
    _assert_small_boundary(a)
    coords = []
    for k, q in enumerate(a.boundary):
        step = scale[k] // dens[k]
        n = _scaled(q, scale[k])
        last = k == a.level - 1
        if not last and n % step == 0:
            coords.append(n)
            continue
        up = n // step + 1 if last and a.side != CLOSED else -(-n // step)
        coords.append(up * step)
        break
    return tuple(coords) + tuple(LO * s for s in scale[len(coords):])


def _targets_for(steps, scale, prefix, tails) -> list:
    """The `fine`-lattice neighborhood of one prefix of length m: its top
    coordinate moved up to 3 steps either way under each tail of
    `tails[m]` (0, -2 and 2 at every later component), and for m >= 2 the
    coordinate below the top moved one step either way, zeros after."""
    m = len(prefix)
    base = tuple(n // u * u for n, u in zip(prefix, steps))
    head, last, step = base[: m - 1], base[m - 1], steps[m - 1]
    out = []
    for dlast in range(-3, 4):
        top = last + dlast * step
        if abs(top) > HI * scale[m - 1]:
            continue
        for tail in tails[m]:
            out.append(head + (top,) + tail)
    if m >= 2:
        for db in (-1, 1):
            out.append(head[:-1] + (head[-1] + db * steps[m - 2], last) + tails[m][0])
    return out


def sample_points(g: ValueGroup, prefixes, rng, fine, scale) -> list:
    """Member points on the integer lattice `scale` that exercise the edges
    of the given scaled boundary prefixes: `fine`-lattice neighborhoods of
    every prefix plus N_RANDOM seeded random lattice points, sorted.  Each
    distinct tail is kept once (a full-length prefix's three are `()`)."""
    steps = [s // f for s, f in zip(scale, fine)]
    tails = {m: tuple(dict.fromkeys(tuple(t * s for s in scale[m:]) for t in (0, -2, 2)))
             for m in range(1, g.rank + 1)}
    pts = set()
    for prefix in prefixes:
        pts.update(_targets_for(steps, scale, prefix, tails))
    draws = [(MAX_COORD * dc, 2 * MAX_COORD * dc + 1, s // dc)
             for dc, s in zip(map(_check_den, g.components), scale)]
    getrandbits = rng.getrandbits
    for _ in range(N_RANDOM):
        pts.add(tuple((_below(getrandbits, n) - r) * u for r, n, u in draws))
    return sorted(pts)


def check_mul(g: ValueGroup, a: Cut, b: Cut, predicted: Cut, rng) -> list:
    """Pointwise mismatches between `predicted` and the box sumset of a and b.

    The sumset verdict at x brackets the truth between two formula-free
    facts: x is in the sumset whenever it clears the sum of the enumerated
    minima (actual members), and only if its prefix clears the formal sum of
    the boundaries (the unattained infimum).  The two disagree exactly on
    the sub-resolution band between infimum and enumerated edge; points in
    that band are skipped, everywhere else the verdict is exact.
    """
    cuts = (a, b, predicted)
    fine, fine2 = lattice_dens(g, cuts)
    scale = lattice_scale(cuts, fine2)
    edge = tuple(map(add, lex_min(a, fine2, scale), lex_min(b, fine2, scale)))
    (ba, _), (bb, _), (bp, test_p) = (_scaled_cut(c, scale) for c in cuts)
    m, lp = min(a.level, b.level), predicted.level
    formal = tuple(map(add, ba[:m], bb[:m]))
    mismatches = []
    for x in sample_points(g, (ba, bb, bp, formal), rng, fine, scale):
        got = x >= edge
        if not got and x[:m] > formal:
            continue
        want = test_p(x[:lp], bp)
        if got != want:
            mismatches.append(f"at {_unscaled(x, scale)}: box says {got}, cut arithmetic says {want}")
    return mismatches


def check_quotient(g: ValueGroup, a: Cut, b: Cut, predicted: Cut, rng) -> list:
    """Pointwise mismatches between `predicted` and the box residual (A : B).

    A shift passes the box test iff adding the worst (least) enumerated
    member of B stays inside A.  For an open divisor that least member sits
    one refined-lattice step above the true infimum, so each verdict is
    double-checked against the virtual infimum (the boundary itself, never
    enumerated): where the two agree the verdict is exact, where they
    disagree the point lies in the sub-resolution band and is skipped.
    """
    cuts = (a, b, predicted)
    fine, fine2 = lattice_dens(g, cuts)
    scale = lattice_scale(cuts, fine2)
    mb = lex_min(b, fine2, scale)
    (ba, test_a), (bb, _), (bp, test_p) = (_scaled_cut(c, scale) for c in cuts)
    k, la, lp = b.level - 1, a.level, predicted.level
    # Only the prefix of x + mb (or x + virt) through A's level is compared.
    virt, mb = (mb[:k] + bb[k:] + mb[k + 1:])[:la], mb[:la]
    m = min(a.level, b.level)
    ediff = tuple(map(sub, ba[:m], bb[:m]))
    mismatches = []
    for x in sample_points(g, (ba, bb, bp, ediff), rng, fine, scale):
        got = test_a(tuple(map(add, x, mb)), ba)
        low = test_a(tuple(map(add, x, virt)), ba)
        if got != low:
            continue
        want = test_p(x[:lp], bp)
        if got != want:
            mismatches.append(f"at {_unscaled(x, scale)}: box says {got}, cut arithmetic says {want}")
    return mismatches


def check_same_set(g: ValueGroup, a: Cut, b: Cut, rng) -> list:
    """Pointwise agreement of two cut literals as sets; used to validate
    normalization and canonical uniqueness without any formula in the loop."""
    fine, fine2 = lattice_dens(g, (a, b), strict_discrete=False)
    scale = lattice_scale((a, b), fine2)
    sa, sb = _scaled_cut(a, scale), _scaled_cut(b, scale)
    mismatches = []
    for x in sample_points(g, (sa[0], sb[0]), rng, fine, scale):
        ina, inb = _inside(sa, x), _inside(sb, x)
        if ina != inb:
            mismatches.append(f"at {_unscaled(x, scale)}: {ina} vs {inb}")
    return mismatches
