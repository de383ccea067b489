"""Shared fixtures: reference value groups and deterministic randomness."""

import math
import random
import signal
import threading
import zlib
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from tclass import CLOSED, OPEN, Cut, Q, ValueGroup, Z, Zloc
from tclass import boxes, checks
from tclass import cuts as C
from tclass.cli import KINDS
from tclass.groups import DISCRETE, is_member
from tclass.sampling import SPAN, den_choices

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# The slowest test takes about 2.5 s.  A fault that makes a loop spin
# (a mutated guard, say) fails its test at this deadline instead of
# hanging the suite.
DEADLINE_S = 60


class DeadlineExceeded(BaseException):
    """Not an `Exception`, so no `except Exception` in the code under test
    (`checks._drive`'s trials record those as failure lines) can swallow it."""


# The five reference groups every randomized suite runs over: a DVR, a
# discrete rank-2 tower, a dense bottom under a discrete top, a dense rank-1
# group of dyadics, and a mixed tower with 3-adic denominators.
GROUPS = {
    "Z": ValueGroup((Z,)),
    "Z2": ValueGroup((Z, Z)),
    "Z_Q": ValueGroup((Z, Q)),
    "Zhalf": ValueGroup((Zloc(2),)),
    "Z_Zthird": ValueGroup((Z, Zloc(3))),
}


def random_rational(rng, comp):
    """A coordinate of the sampling window, not necessarily a member."""
    d = rng.choice(den_choices(comp))
    return Fraction(rng.randint(-SPAN * d, SPAN * d), d)


def random_member(rng, comp):
    """A coordinate of the sampling window that is a member."""
    d = rng.choice([d for d in den_choices(comp) if is_member(comp, Fraction(1, d))])
    return Fraction(rng.randint(-SPAN * d, SPAN * d), d)


def random_element(rng, g):
    """A group element with small coordinates, for principal shifts."""
    return g.element([random_member(rng, c) for c in g.components])


def assert_coordinate_types(cuts):
    """Every coordinate as the package builds one: an `int` when it is
    integral, else the kernel's `cuts.Rat`, never a plain `Fraction` (from
    a parser or the sampling window, say)."""
    for c in cuts:
        assert all(type(x) is (int if x.denominator == 1 else C.Rat)
                   for x in c.boundary), C.format_cut(c)


def exact_sample(model, form):
    """The exact sequence's sample check at `form`, after the form's trial
    has built what its samples share; tuples are `pruefer_fc` literals."""
    spec = KINDS["pruefer_fc"]
    shared = checks.exact_form(model, spec, form, "FORM").draw(None)
    return checks.exact_sample(model, spec, form, "FORM", shared)


# === references: definitions the tests compare against; no command needs them ===

def random_raw_cut(rng, g):
    """An arbitrary well-formed literal; may denote a non-canonical set."""
    level = rng.randint(1, g.rank)
    boundary = []
    for k in range(level):
        comp = g.components[k]
        dens = (1, 2, 3) if comp.kind == DISCRETE else den_choices(comp)
        d = rng.choice(dens)
        boundary.append(Fraction(rng.randint(-2 * d, 2 * d), d))
    return Cut(level, tuple(boundary), rng.choice((CLOSED, OPEN)))


def reference_targets_for(g, steps, scale, prefix):
    """The neighborhood points of one scaled prefix, built coordinate list
    by coordinate list: `boxes._targets_for` must give the same points."""
    m = len(prefix)
    base = [n // u * u for n, u in zip(prefix, steps)]
    tails = [[t * s for s in scale[m:]] for t in (0, -2, 2)]
    out = []
    for dlast in range(-3, 4):
        top = base[m - 1] + dlast * steps[m - 1]
        if abs(top) > boxes.HI * scale[m - 1]:
            continue
        for tail in tails:
            out.append(tuple(base[: m - 1] + [top] + tail))
    if m >= 2:
        for db in (-1, 1):
            coords = list(base)
            coords[m - 2] += db * steps[m - 2]
            out.append(tuple(coords + [0] * (g.rank - m)))
    return out


def reference_sample_points(g, prefixes, rng, fine, scale):
    """`boxes.sample_points` with its random points drawn by `randint`: it
    must return the same points and leave `rng` in the same state."""
    steps = [s // f for s, f in zip(scale, fine)]
    pts = set()
    for prefix in prefixes:
        pts.update(reference_targets_for(g, steps, scale, prefix))
    draws = [(boxes.MAX_COORD * dc, s // dc)
             for dc, s in zip(map(boxes._check_den, g.components), scale)]
    for _ in range(boxes.N_RANDOM):
        pts.add(tuple(rng.randint(-r, r) * u for r, u in draws))
    return sorted(pts)


def _key(a, pos):
    # Position pos of the lower-edge key: boundary coordinates, then a fill
    # that places the edge below (closed) or above (open) the boundary fiber.
    if pos < a.level:
        return a.boundary[pos]
    return math.inf if a.side == OPEN else -math.inf


def is_subset(g, a, b):
    """Upper sets are nested exactly as their lower edges are ordered (two
    canonical cuts have the same edge only when they are equal)."""
    for pos in range(max(a.level, b.level) + 1):
        ka, kb = _key(a, pos), _key(b, pos)
        if ka != kb:
            return ka > kb
    return True


def group_inv(g, x, J):
    """The inverse in the constituent group at J.  (J : L) alone may land on
    a side-closed cut (the overring's class) when the boundary is a member;
    multiplying back into J keeps the inverse in the group and fixes inv at
    the identity."""
    if C.form_cut(g, C.classify_idempotent(g, x.rep)) != J:
        raise C.NotInGroupError(f"{C.format_cut(x.rep)} is not in the group at {C.format_cut(J)}")
    return C.class_of(g, C.t_closure(g, C.mul(g, C.quotient(g, J, x.rep), J)))


@pytest.fixture(autouse=True)
def deadline():
    """Arm SIGALRM for each test where it can be (POSIX, main thread)."""
    if not hasattr(signal, "SIGALRM") or threading.current_thread() is not threading.main_thread():
        yield
        return

    def expired(signum, frame):
        raise DeadlineExceeded(f"test ran past {DEADLINE_S} s")
    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(DEADLINE_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng(request):
    # seeded from the test's own name: deterministic, independent per test,
    # stable under -k selection and test reordering
    return random.Random(zlib.crc32(request.node.name.encode()))


@pytest.fixture(params=sorted(GROUPS), ids=sorted(GROUPS))
def group(request):
    return GROUPS[request.param]
