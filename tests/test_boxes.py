"""Self-checks for the box oracle.

The box module arbitrates the frozen values asserted everywhere else, so it
gets validated first and by the dumbest available means: exhaustive lattice
enumeration, explicit pairwise sumsets, and deliberately wrong predictions
that must be rejected.

`lex_min` and `sample_points` return points on a check's integer lattice;
the tests here unscale them to `Fraction`s before comparing them with the
brute-force enumerations.
"""

import itertools
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import GROUPS, random_element, reference_sample_points
from tclass import CLOSED, OPEN, Cut, Q, ValueGroup, Z, Zloc
from tclass import boxes
from tclass.cuts import member, mul, quotient, translate
from tclass.groups import is_member
from tclass.sampling import random_cut

ZZ = GROUPS["Z"]
DY = GROUPS["Zhalf"]
QQ = ValueGroup((Q,))


def scaled_lattice(g, cuts):
    """(fine, fine2, scale) of a check over `cuts`."""
    fine, fine2 = boxes.lattice_dens(g, cuts)
    return fine, fine2, boxes.lattice_scale(cuts, fine2)


def unscaled(x, scale):
    return tuple(F(n, s) for n, s in zip(x, scale))


def box_lattice(g, dens):
    axes = [
        [F(k, d) for k in range(boxes.LO * d, boxes.HI * d + 1)]
        for d in dens
    ]
    return itertools.product(*axes)


def test_lex_min_matches_brute_minimum(group, rng):
    for _ in range(20):
        a = random_cut(rng, group)
        _, fine2, scale = scaled_lattice(group, (a,))
        got = unscaled(boxes.lex_min(a, fine2, scale), scale)
        brute = min(x for x in box_lattice(group, fine2) if member(group, a, x))
        assert got == brute, f"{a}: lex_min {got} vs enumerated {brute}"


def test_lex_min_rounds_offlattice_closed_boundary():
    # Closed at 1/3 over the dyadics: least lattice member is the next step up
    a = Cut(1, (F(1, 3),), CLOSED)
    _, fine2, scale = scaled_lattice(DY, (a,))
    got = unscaled(boxes.lex_min(a, fine2, scale), scale)
    assert got[0] > F(1, 3)
    assert got[0] - F(1, 3) < F(1, fine2[0])


def test_lattice_dens_properties(group, rng):
    for _ in range(10):
        cuts = (random_cut(rng, group), random_cut(rng, group))
        fine, fine2 = boxes.lattice_dens(group, cuts)
        for comp, f, f2 in zip(group.components, fine, fine2):
            assert f2 % f == 0
            assert is_member(comp, F(1, f2)), "lattice steps must be members"
        for c in cuts:
            for k in range(c.level):
                q = c.boundary[k]
                if is_member(group.components[k], q):
                    assert (q * fine2[k]).denominator == 1


def test_lattice_dens_discrete_strictness():
    bad = Cut(1, (F(1, 2),), CLOSED)
    with pytest.raises(ValueError):
        boxes.lattice_dens(ZZ, (bad,))
    fine, fine2 = boxes.lattice_dens(ZZ, (bad,), strict_discrete=False)
    assert fine == [1] and fine2 == [1]


def test_lattice_dens_denominator_cap():
    wide = (Cut(1, (F(1, 5),), CLOSED), Cut(1, (F(1, 7),), CLOSED))
    with pytest.raises(ValueError, match="denominator"):
        boxes.lattice_dens(QQ, wide)


# Groups whose least prime is 5 or 7, outside `conftest.GROUPS`: there check
# points sit on the integers, since at 1/p they would force fine2 >= p^3.
WIDE_PRIMES = {
    "Z[1/5]": ValueGroup((Zloc(5),)),
    "Z[1/7]": ValueGroup((Zloc(7),)),
    "Z,Z[1/5]": ValueGroup((Z, Zloc(5))),
    "Z[1/5,1/7]": ValueGroup((Zloc(5, 7),)),
}


@pytest.mark.parametrize("name", sorted(WIDE_PRIMES))
def test_box_oracle_checks_least_primes_5_and_7(name, rng):
    g = WIDE_PRIMES[name]
    rejected = 0
    for _ in range(20):
        a, b = random_cut(rng, g), random_cut(rng, g)
        fine, fine2, scale = scaled_lattice(g, (a, b))
        assert max(fine2) <= boxes.DEN_CAP
        for comp, f, f2 in zip(g.components, fine, fine2):
            assert f2 % f == 0 and is_member(comp, F(1, f2))
        got = unscaled(boxes.lex_min(a, fine2, scale), scale)
        assert got == min(x for x in box_lattice(g, fine2) if member(g, a, x))
        right = mul(g, a, b)
        assert boxes.check_mul(g, a, b, right, rng) == []
        assert boxes.check_quotient(g, a, b, quotient(g, a, b), rng) == []
        assert boxes.check_same_set(g, a, a, rng) == []
        shifted = translate(g, right, (F(1),) + (F(0),) * (g.rank - 1))
        if abs(shifted.boundary[0]) <= boxes.MAX_BOUNDARY:
            assert boxes.check_mul(g, a, b, shifted, rng)
            rejected += 1
    assert rejected


def test_box_oracle_refuses_least_prime_11(rng):
    g = ValueGroup((Zloc(11),))
    a = random_cut(rng, g)
    with pytest.raises(ValueError, match="needs lattice denominator 121 > 64"):
        boxes.check_mul(g, a, a, mul(g, a, a), rng)


def test_boundary_magnitude_cap():
    big = Cut(1, (F(4),), CLOSED)
    with pytest.raises(ValueError, match="boundary"):
        boxes.lex_min(big, [1], [1])


def _shift(x, d):
    return tuple(p + q for p, q in zip(x, d))


def test_membership_is_upper_closed(group, rng):
    zero = (F(0),) * group.rank
    for _ in range(60):
        a = random_cut(rng, group)
        x = random_element(rng, group)
        d = random_element(rng, group)
        if d < zero:
            d = tuple(-q for q in d)
        if member(group, a, x):
            assert member(group, a, _shift(x, d))


def test_membership_reduces_to_finite_minimum(group, rng):
    # the residual check leans on this: quantifying a shifted membership
    # over a finite set is the same as testing its least element
    for _ in range(60):
        a = random_cut(rng, group)
        shift = random_element(rng, group)
        pts = [random_element(rng, group) for _ in range(5)]
        every = all(member(group, a, _shift(shift, v)) for v in pts)
        assert every == member(group, a, _shift(shift, min(pts)))


@pytest.mark.parametrize("gname", ["Z", "Zhalf", "Q"])
def test_sumset_is_upper_set_at_minimum_sum(gname, rng):
    g = QQ if gname == "Q" else GROUPS[gname]
    for _ in range(6):
        a, b = random_cut(rng, g), random_cut(rng, g)
        _, fine2, scale = scaled_lattice(g, (a, b))
        d = fine2[0]
        pts = [(F(k, d),) for k in range(boxes.LO * d, boxes.HI * d + 1)]
        ua = [x for x in pts if member(g, a, x)]
        ub = [x for x in pts if member(g, b, x)]
        ma, mb = min(ua), min(ub)
        assert ma == unscaled(boxes.lex_min(a, fine2, scale), scale)
        assert mb == unscaled(boxes.lex_min(b, fine2, scale), scale)
        sums = {x[0] + y[0] for x in ua for y in ub}
        edge = ma[0] + mb[0]
        for (v,) in pts:
            if abs(v) <= 4:
                assert (v in sums) == (v >= edge)


def test_check_mul_accepts_truth_and_rejects_shifts(rng):
    a, b = Cut(1, (F(2),), CLOSED), Cut(1, (F(3),), CLOSED)
    right = mul(ZZ, a, b)
    assert right == Cut(1, (F(5),), CLOSED)
    assert boxes.check_mul(ZZ, a, b, right, rng) == []
    shifted = translate(ZZ, right, (F(1),))
    assert boxes.check_mul(ZZ, a, b, shifted, rng)
    flipped = Cut(1, (F(5),), OPEN)
    assert boxes.check_mul(ZZ, a, b, flipped, rng)


def test_check_mul_rejects_shift_on_dense_group(rng):
    a = Cut(1, (F(1, 3),), OPEN)
    right = mul(DY, a, a)
    assert boxes.check_mul(DY, a, a, right, rng) == []
    wrong = translate(DY, right, (F(1),))
    assert boxes.check_mul(DY, a, a, wrong, rng)


def test_check_quotient_rejects_shifted_rank2_inverse(rng):
    # (V : <1;(1);closed>) over a discrete rank-2 tower is the height-1
    # ring cut; the naive "negate the boundary" guess is wrong because the
    # residual must absorb arbitrarily low second coordinates
    g = GROUPS["Z2"]
    v = Cut(2, (F(0), F(0)), CLOSED)
    p = Cut(1, (F(1),), CLOSED)
    right = Cut(1, (F(0),), CLOSED)
    naive = Cut(1, (F(-1),), CLOSED)
    assert boxes.check_quotient(g, v, p, right, rng) == []
    assert boxes.check_quotient(g, v, p, naive, rng)


def test_check_quotient_resolution_band_regression(rng):
    # residual edge 19/12 is not dyadic, so no member lattice refines onto
    # it; the bracketing skip must keep exact points exact instead of
    # flagging false mismatches one lattice step under the edge
    a = Cut(1, (F(4, 3),), OPEN)
    b = Cut(1, (F(-1, 4),), OPEN)
    right = Cut(1, (F(19, 12),), OPEN)
    assert boxes.check_quotient(DY, a, b, right, rng) == []
    # the same set written with the other side marker is still accepted
    closed_twin = Cut(1, (F(19, 12),), CLOSED)
    assert boxes.check_quotient(DY, a, b, closed_twin, rng) == []
    # a unit-shifted answer is still rejected
    wrong = Cut(1, (F(7, 12),), OPEN)
    assert boxes.check_quotient(DY, a, b, wrong, rng)


def test_check_same_set_separates_and_identifies(rng):
    assert boxes.check_same_set(ZZ, Cut(1, (F(0),), CLOSED), Cut(1, (F(0),), OPEN), rng)
    assert boxes.check_same_set(DY, Cut(1, (F(1, 3),), CLOSED), Cut(1, (F(1, 3),), OPEN), rng) == []
    g = GROUPS["Z_Q"]
    at = (F(0), F(1, 2))
    assert boxes.check_same_set(g, Cut(2, at, CLOSED), Cut(2, at, OPEN), rng)


# The value groups of the benchmark's box checks, then Z, Q and Z[1/3]
# alone and mixed towers of rank 2 and 3.
POINT_GROUPS = {
    **{name: GROUPS[name] for name in ("Z_Q", "Zhalf", "Z_Zthird", "Z2")},
    "Z": ZZ, "Q": QQ, "Zthird": ValueGroup((Zloc(3),)), "Q_Zhalf": ValueGroup((Q, Zloc(2))),
    "Q_Z_Zhalf": ValueGroup((Q, Z, Zloc(2))), "Zthird_Q_Z": ValueGroup((Zloc(3), Q, Z)),
}


@pytest.mark.parametrize("name", sorted(POINT_GROUPS))
def test_sample_points_draw_as_the_reference(name, monkeypatch):
    # Every `sample_points` call of a check on a seeded canonical pair, with
    # its own prefixes, for the right prediction and one shifted a step up
    # at its top: the same points as the reference, which builds every
    # prefix's three tails (`()` thrice at full length) as `sample_points`
    # did before it kept each distinct tail once, and the generator left
    # in the same state.  So no check loses a point.
    g = POINT_GROUPS[name]
    real = boxes.sample_points
    calls = []

    def twin(g, prefixes, rng, fine, scale):
        ref_rng = random.Random()
        ref_rng.setstate(rng.getstate())
        got = real(g, prefixes, rng, fine, scale)
        assert got == reference_sample_points(g, prefixes, ref_rng, fine, scale)
        assert rng.getstate() == ref_rng.getstate()
        calls.append(prefixes)
        return got
    monkeypatch.setattr(boxes, "sample_points", twin)
    rng = random.Random(27)
    caught = 0
    for _ in range(40):
        a, b = random_cut(rng, g), random_cut(rng, g)
        for check, right in ((boxes.check_mul, mul(g, a, b)),
                             (boxes.check_quotient, quotient(g, a, b))):
            assert check(g, a, b, right, rng) == []
            wrong = translate(g, right, (0,) * (right.level - 1) + (1,))
            caught += bool(check(g, a, b, wrong, rng))
    assert len(calls) == 160 and caught == 80
    assert g.rank in {len(prefixes[0]) for prefixes in calls}


def inside_by_definition(a, boundary, x):
    """x is in the cut's upper set: a prefix that differs from the scaled
    boundary decides by `>`, and an equal prefix by the cut's side."""
    prefix = x[: len(boundary)]
    if prefix != boundary:
        return prefix > boundary
    return a.side == CLOSED


def test_inside_matches_its_definition(group, rng):
    on_boundary = 0
    for _ in range(30):
        c = random_cut(rng, group)
        for side in (CLOSED, OPEN):
            a = Cut(c.level, c.boundary, side)
            fine, _, scale = scaled_lattice(group, (a,))
            scaled = boxes._scaled_cut(a, scale)
            boundary = scaled[0]
            pts = boxes.sample_points(group, (boundary,), rng, fine, scale)
            # the boundary itself under every tail: the equal-prefix case
            pts += [boundary + x[a.level:] for x in pts]
            for x in pts:
                assert boxes._inside(scaled, x) == inside_by_definition(a, boundary, x), (a, x)
                on_boundary += x[: a.level] == boundary
    assert on_boundary


def test_sample_points_members_and_determinism(group):
    a = Cut(1, (F(1),), CLOSED)
    fine, fine2, scale = scaled_lattice(group, (a,))
    prefix = (1 * scale[0],)
    one = boxes.sample_points(group, (prefix,), random.Random(5), fine, scale)
    two = boxes.sample_points(group, (prefix,), random.Random(5), fine, scale)
    assert one == two
    for x in one:
        assert len(x) == group.rank
        for q, comp in zip(unscaled(x, scale), group.components):
            assert abs(q) <= boxes.HI
            assert is_member(comp, q)
    snapped = tuple([F(1)] + [F(0)] * (group.rank - 1))
    assert snapped in [unscaled(x, scale) for x in one]


def test_lattice_scale_holds_every_boundary():
    # 1/3 is no dyadic member, so the scale outgrows the lattice's 32
    a, b = Cut(1, (F(4, 3),), OPEN), Cut(1, (F(-1, 4),), OPEN)
    _, fine2, scale = scaled_lattice(DY, (a, b))
    assert fine2 == [32] and scale == (96,)
    g = GROUPS["Z_Q"]
    _, fine2, scale = scaled_lattice(g, (Cut(2, (F(1), F(1, 3)), CLOSED),))
    assert scale == (1, fine2[1]) and fine2[1] % 3 == 0


# Mismatch messages of deliberately wrong predictions, byte for byte as
# the box oracle wrote them when it ran on `Fraction` points.
WRONG_MUL_Z = {
    6: ["at (Fraction(5, 1),): box says True, cut arithmetic says False"],
    4: ["at (Fraction(4, 1),): box says False, cut arithmetic says True"],
}
WRONG_QUOTIENT_Z_Q = [
    f"at (Fraction(1, 1), Fraction({n}, {d})): box says True, cut arithmetic says False"
    for n, d in ((7, 8), (11, 12), (23, 24), (1, 1), (25, 24), (13, 12))
]


def test_wrong_mul_messages_are_pinned():
    a, b = Cut(1, (F(2),), CLOSED), Cut(1, (F(3),), CLOSED)
    for top, lines in WRONG_MUL_Z.items():
        wrong = Cut(1, (F(top),), CLOSED)
        assert boxes.check_mul(ZZ, a, b, wrong, random.Random(1)) == lines


def test_wrong_quotient_messages_are_pinned():
    g = GROUPS["Z_Q"]
    a, b = Cut(2, (F(1), F(1, 2)), OPEN), Cut(2, (F(0), F(-1, 3)), CLOSED)
    right = quotient(g, a, b)
    assert right == Cut(2, (F(1), F(5, 6)), OPEN)
    assert boxes.check_quotient(g, a, b, right, random.Random(1)) == []
    wrong = translate(g, right, (F(0), F(1, 4)))
    assert boxes.check_quotient(g, a, b, wrong, random.Random(1)) == WRONG_QUOTIENT_Z_Q
    closed = Cut(2, right.boundary, CLOSED)
    assert boxes.check_quotient(g, a, b, closed, random.Random(1)) == [
        "at (Fraction(1, 1), Fraction(5, 6)): box says False, cut arithmetic says True"]


def recorded_points(monkeypatch) -> list:
    """Replace `boxes.sample_points` with a wrapper that records how many
    points each call returns."""
    sizes = []
    real = boxes.sample_points

    def wrapper(*args, **kwargs):
        pts = real(*args, **kwargs)
        sizes.append(len(pts))
        return pts
    monkeypatch.setattr(boxes, "sample_points", wrapper)
    return sizes


# Points the seeded batch below sampled when the oracle ran on `Fraction`
# points: the integer lattice must sample the very same set.
BATCH_POINTS = 3596


def test_each_check_samples_once_and_the_same_points(monkeypatch):
    sizes = recorded_points(monkeypatch)
    rng = random.Random(2024)
    checks = 0
    for name in sorted(GROUPS):
        g = GROUPS[name]
        for _ in range(8):
            a, b = random_cut(rng, g), random_cut(rng, g)
            assert boxes.check_mul(g, a, b, mul(g, a, b), rng) == []
            assert boxes.check_quotient(g, a, b, quotient(g, a, b), rng) == []
            assert boxes.check_same_set(g, a, a, rng) == []
            checks += 3
    assert len(sizes) == checks == 120
    assert sum(sizes) == BATCH_POINTS


def test_tracer_counts_the_points_a_check_samples(monkeypatch):
    # The benchmark's `boxes.points` counter wraps `boxes.sample_points` by
    # name; if the checks stopped calling it, the counter would read 0.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        from tracing import Tracer
    finally:
        sys.path.pop(0)
    g = GROUPS["Z_Q"]
    a, b = Cut(2, (F(1), F(1, 2)), OPEN), Cut(2, (F(0), F(-1, 3)), CLOSED)
    predicted = mul(g, a, b)
    tracer = Tracer()
    tracer.install()
    try:
        assert boxes.check_mul(g, a, b, predicted, random.Random(3)) == []
    finally:
        tracer.uninstall()
    sizes = recorded_points(monkeypatch)
    assert boxes.check_mul(g, a, b, predicted, random.Random(3)) == []
    assert len(sizes) == 1 and sizes[0] > 0
    assert tracer.box_points == sizes[0]
