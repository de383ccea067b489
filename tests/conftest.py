"""Shared fixtures: reference value groups and deterministic randomness."""

import random
import zlib

import pytest
from hypothesis import HealthCheck, settings

from tclass import Q, Z, ValueGroup, Zloc
from tclass.sampling import random_member

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

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


def random_element(rng, g, span=2):
    """A group element with small coordinates, for principal shifts."""
    return g.element([random_member(rng, c, span) for c in g.components])


@pytest.fixture
def rng(request):
    # seeded from the test's own name: deterministic, independent per test,
    # stable under -k selection and test reordering
    return random.Random(zlib.crc32(request.node.name.encode()))


@pytest.fixture(params=sorted(GROUPS), ids=sorted(GROUPS))
def group(request):
    return GROUPS[request.param]
