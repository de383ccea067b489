"""Lex towers of archimedean components: order, arithmetic, convexity."""

from fractions import Fraction as F

import pytest

from conftest import GROUPS
from tclass import Q, Z, ValueGroup, Zloc
from tclass import cuts as C
from tclass import groups as G

Z2 = GROUPS["Z2"]
ZD = GROUPS["Zhalf"]


def test_is_prime_agrees_with_trial_division():
    def by_trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(-3, 5000) if G._is_prime(n)] == [
        n for n in range(-3, 5000) if by_trial(n)]


def test_is_prime_large_values():
    # a strong pseudoprime to every prime base up to 31, caught by 37
    assert not G._is_prime(3825123056546413051)
    assert G._is_prime(10 ** 12 + 39)
    assert G._is_prime(1000000000000000003)
    assert G._is_prime(2 ** 61 - 1)
    assert not G._is_prime((2 ** 31 - 1) * (10 ** 12 + 39))
    with pytest.raises(ValueError, match="primality"):
        G._is_prime(2 ** 89 - 1)
    with pytest.raises(ValueError):
        G.component_from_json({"Zloc": [True]})


def test_component_membership():
    two = Zloc(2)
    assert not G.is_member(two, F(1, 3))
    assert G.is_member(two, F(5, 8))
    assert not G.is_member(Z, F(1, 2))
    assert G.is_member(Q, F(22, 7))


def test_component_constructors_reject_bad_input():
    with pytest.raises(ValueError):
        Zloc(4)
    with pytest.raises(ValueError):
        Zloc()
    with pytest.raises(ValueError):
        G.ArchComponent(G.DISCRETE, frozenset({2}))
    with pytest.raises(ValueError):
        G.ArchComponent("weird")


def test_element_validates_membership():
    with pytest.raises(G.MalformedElementError):
        Z2.element((F(1, 2), F(0)))
    assert Z2.element([F(1), F(-3)]) == (F(1), F(-3))


def test_element_checks_its_length():
    with pytest.raises(G.MalformedElementError, match="expected 2 coordinates, got 1"):
        Z2.element((F(1),))


def test_quotient_least_positive_examples():
    # G/H_i is the tower of components 1..i, and a lex tower has a least
    # positive element iff its last component does: iff that one is Z
    assert not Z2.components[0].dense
    assert Q.dense
    zh = ValueGroup((Z, Zloc(2)))
    assert zh.components[1].dense
    # no minimum concretely: positive members keep halving
    q = F(1)
    for _ in range(8):
        assert G.is_member(zh.components[1], q) and q > 0
        q /= 2


def test_strongly_discrete_detector_agrees_with_prime_cut_idempotence(group):
    # the order-theoretic detector and the ideal-theoretic one must agree:
    # a dense level is exactly a level whose prime cut squares to itself
    expected = all(not c.dense for c in group.components)
    assert G.is_strongly_discrete(group) == expected
    by_ideals = all(
        not C.is_idempotent(group, C.prime_cut(group, i))
        for i in range(1, group.rank + 1)
    )
    assert G.is_strongly_discrete(group) == by_ideals


def test_json_round_trips():
    for g in GROUPS.values():
        assert G.value_group_from_json(G.value_group_to_json(g)) == g
    assert G.component_from_json("Z") == Z
    assert G.component_from_json({"Zloc": [3]}) == Zloc(3)
    with pytest.raises(ValueError):
        G.component_from_json({"Zloc": []})
    with pytest.raises(ValueError):
        G.component_from_json("R")


def test_describe_component():
    assert "Z" in G.describe_component(Z)
    text = G.describe_component(Zloc(2, 3))
    assert "2" in text and "3" in text
