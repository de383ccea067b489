"""Cayley-table oracle: validation, Clifford analysis, sampled closures."""

import itertools
import random
import re
from fractions import Fraction as F

import pytest

from tclass import CLOSED, OPEN, Cut, Q, ValueGroup, Zloc
from tclass import semigroups
from tclass.cuts import ValuationClassModel, normalize
from tclass.semigroups import (
    FiniteCommSemigroup,
    MalformedTableError,
    NotIdempotentError,
    SampleClosure,
    constituent_group,
    cross_check,
    from_fixture,
    idempotents,
    _generators,
    is_clifford,
    sample_closure,
)

def to_fixture(s: FiniteCommSemigroup) -> str:
    """The table in the format `from_fixture` reads."""
    lines = [str(s.size)]
    lines.extend(" ".join(str(x) for x in row) for row in s.table)
    return "\n".join(lines) + "\n"


# C3 with identity at index 1, as produced by the Z[1/2] closure below.
C3_TEXT = "3\n2 0 1\n0 1 2\n1 2 0\n"
C3_ROWS = [[2, 0, 1], [0, 1, 2], [1, 2, 0]]

# two-element meet semilattice e <= f
SEMILATTICE = [[0, 1], [1, 1]]

# commutative monoid with a nilpotent: 0 identity, 1*1 = 2, 2 absorbing
NILPOTENT = [[0, 1, 2], [1, 2, 2], [2, 2, 2]]


def test_rejects_empty_table():
    with pytest.raises(MalformedTableError, match="empty"):
        FiniteCommSemigroup([])


def test_rejects_ragged_and_out_of_range():
    with pytest.raises(MalformedTableError, match="square"):
        FiniteCommSemigroup([[0, 1], [0]])
    with pytest.raises(MalformedTableError, match="square"):
        FiniteCommSemigroup([[1]])
    with pytest.raises(MalformedTableError, match="square"):
        FiniteCommSemigroup([[0, 2], [2, 0]])


def test_rejects_non_commutative_with_location():
    with pytest.raises(MalformedTableError, match=r"not commutative at \(0, 1\)"):
        FiniteCommSemigroup([[0, 0], [1, 1]])


def test_non_commutative_names_the_first_pair_in_row_major_order():
    # Asymmetric at (1, 2), (0, 3) and (2, 3): (0, 3) comes first row by
    # row, (1, 2) first column by column.
    rows = [list(r) for r in cyclic(4)]
    rows[1][2] = rows[0][3] = rows[3][2] = 0
    with pytest.raises(MalformedTableError, match=r"^not commutative at \(0, 3\)$"):
        FiniteCommSemigroup(rows)


def test_rejects_entries_outside_the_indices():
    # A negative entry would index from the end of a row, so it is refused
    # like an entry past it.
    for rows in ([[-1]], [[0, -1], [-1, 0]], [[0, 1, 2], [1, 2, 0], [2, 0, 3]],
                 [[0, 1, 2], [1, -3, 0], [2, 0, 1]]):
        with pytest.raises(MalformedTableError, match="^table is not square over its own indices$"):
            FiniteCommSemigroup(rows)


def test_rejects_non_associative_with_location():
    # commutative but (0*0)*1 = 0 while 0*(0*1) = 1
    with pytest.raises(MalformedTableError, match=r"not associative at \(0, 0, 1\)"):
        FiniteCommSemigroup([[1, 1], [1, 0]])


def test_assoc_cap_refuses_rather_than_skips(monkeypatch):
    monkeypatch.setattr(semigroups, "ASSOC_CAP", 2)
    with pytest.raises(MalformedTableError, match="table of size 3 exceeds the verification cap 2$"):
        FiniteCommSemigroup(C3_ROWS)
    # raising the cap re-enables the check instead of bypassing it
    monkeypatch.setattr(semigroups, "ASSOC_CAP", 3)
    assert FiniteCommSemigroup(C3_ROWS).size == 3


def reference_failures(rows):
    """Every (i, j, k) with (i j) k != i (j k): the O(m^3) sweep."""
    m = len(rows)
    return {(i, j, k) for i in range(m) for j in range(m) for k in range(m)
            if rows[rows[i][j]][k] != rows[i][rows[j][k]]}


def assert_matches_reference(rows):
    """The constructor accepts exactly the tables the sweep accepts, and a
    rejection names a triple that really fails."""
    failures = reference_failures(rows)
    if not failures:
        assert FiniteCommSemigroup(rows).table == tuple(map(tuple, rows))
        return
    with pytest.raises(MalformedTableError, match="not associative") as exc:
        FiniteCommSemigroup(rows)
    triple = tuple(map(int, re.search(r"\((\d+), (\d+), (\d+)\)", str(exc.value)).groups()))
    assert triple in failures


def commutative_table(m, entries):
    """The symmetric table whose upper triangle, row by row, is `entries`."""
    rows = [[0] * m for _ in range(m)]
    pairs = [(i, j) for i in range(m) for j in range(i, m)]
    for (i, j), x in zip(pairs, entries):
        rows[i][j] = rows[j][i] = x
    return rows


@pytest.mark.parametrize("m", [1, 2, 3])
def test_associativity_check_matches_sweep_on_every_small_table(m):
    accepted = 0
    tables = list(itertools.product(range(m), repeat=m * (m + 1) // 2))
    for entries in tables:
        rows = commutative_table(m, entries)
        assert_matches_reference(rows)
        accepted += not reference_failures(rows)
    assert 0 < accepted and (m == 1 or accepted < len(tables))


@pytest.mark.parametrize("m", range(4, 9))
def test_associativity_check_matches_sweep_on_random_tables(m):
    rng = random.Random(m)
    for _ in range(200):
        assert_matches_reference(
            commutative_table(m, [rng.randrange(m) for _ in range(m * (m + 1) // 2)]))


def cyclic(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def chain(n, op):
    return [[op(i, j) for j in range(n)] for i in range(n)]


def product(a, b):
    """The direct product, (x, y) at index x * len(b) + y."""
    nb = len(b)
    return [[a[i // nb][j // nb] * nb + b[i % nb][j % nb] for j in range(len(a) * nb)]
            for i in range(len(a) * nb)]


SEMIGROUPS = {
    "C5": cyclic(5),
    "C6": cyclic(6),
    "min-chain": chain(5, min),
    "max-chain": chain(5, max),
    "nilpotent": NILPOTENT,
    "C3xC2": product(cyclic(3), cyclic(2)),
    "C2xsemilattice": product(cyclic(2), SEMILATTICE),
    "C3xmax-chain": product(cyclic(3), chain(3, max)),
}


@pytest.mark.parametrize("name", sorted(SEMIGROUPS))
def test_associativity_check_matches_sweep_on_corrupted_semigroups(name):
    rows = SEMIGROUPS[name]
    m = len(rows)
    assert not reference_failures(rows)
    assert_matches_reference(rows)
    for i in range(m):
        for j in range(i, m):
            for x in range(m):
                if x != rows[i][j]:
                    bad = [list(r) for r in rows]
                    bad[i][j] = bad[j][i] = x
                    assert_matches_reference(bad)


def test_generators_are_greedy_and_can_be_every_element():
    assert _generators(C3_ROWS) == [0]
    assert _generators(cyclic(6)) == [0, 1]
    assert _generators(product(cyclic(3), cyclic(2))) == [0, 1, 2]
    # no element of a max-chain is a product of smaller ones: Light's test
    # is the full m^3 sweep there
    assert _generators(chain(5, max)) == [0, 1, 2, 3, 4]


def reference_generators(rows) -> list[int]:
    """The greedy generating set by definition: keep each index that the
    submagma generated by the kept ones, grown to a fixed point, misses."""
    gens, inside = [], set()
    for g in range(len(rows)):
        if g not in inside:
            gens.append(g)
            inside = set(gens)
            while True:
                grown = inside | {rows[x][y] for x in inside for y in inside}
                if grown == inside:
                    break
                inside = grown
    return gens


def test_generators_match_the_definition():
    rng = random.Random(11)
    tables = [SEMILATTICE, NILPOTENT, C3_ROWS, *SEMIGROUPS.values()]
    tables += [random_commutative_semigroup(rng) for _ in range(30)]
    for rows in tables:
        assert _generators(rows) == reference_generators(rows)


def test_table_equality_and_ops():
    s = FiniteCommSemigroup(SEMILATTICE)
    assert s.size == 2
    assert s.table[0][1] == 1
    assert s.table == FiniteCommSemigroup([[0, 1], [1, 1]]).table
    assert s.table != FiniteCommSemigroup(C3_ROWS).table


def test_semilattice_analysis():
    s = FiniteCommSemigroup(SEMILATTICE)
    assert idempotents(s) == frozenset({0, 1})
    assert is_clifford(s)
    for e in (0, 1):
        assert constituent_group(s, e) == (e,)


def test_cyclic_group_analysis():
    s = FiniteCommSemigroup(C3_ROWS)
    assert idempotents(s) == frozenset({1})
    assert is_clifford(s)
    assert constituent_group(s, 1) == (0, 1, 2)
    assert_is_group(s, 1)


def test_nilpotent_monoid_is_not_clifford():
    s = FiniteCommSemigroup(NILPOTENT)
    assert idempotents(s) == frozenset({0, 2})
    assert not is_clifford(s)


def test_constituent_group_requires_idempotent():
    s = FiniteCommSemigroup(C3_ROWS)
    with pytest.raises(NotIdempotentError, match="not idempotent"):
        constituent_group(s, 0)


def test_constituent_groups_of_nilpotent_monoid_are_proper():
    # not Clifford, yet each idempotent still carries its unit group
    s = FiniteCommSemigroup(NILPOTENT)
    assert constituent_group(s, 0) == (0,)
    assert constituent_group(s, 2) == (2,)


def assert_is_group(s: FiniteCommSemigroup, e: int) -> None:
    """`constituent_group(s, e)` is a group under s with identity e, and it
    is the whole H-class of e: every x with x*e = x and x*y = e for some y.
    The oracle proves these axioms in its docstring; this checks them."""
    t = s.table
    members = constituent_group(s, e)
    inside = set(members)
    assert members == tuple(sorted(inside))
    assert e in inside
    for x in members:
        assert {t[x][y] for y in members} <= inside, f"G_{e} not closed at {x}"
        assert t[x][e] == x, f"{e} is no identity for {x}"
        assert any(t[x][y] == e for y in members), f"{x} has no inverse in G_{e}"
    assert inside == {x for x in range(s.size) if t[x][e] == x and e in t[x]}


def random_commutative_semigroup(rng) -> list:
    """The direct product of two or three factors drawn from cyclic groups,
    the two-element semilattice, the nilpotent monoid and a max-chain."""
    factors = [cyclic(2), cyclic(3), cyclic(4), SEMILATTICE, NILPOTENT, chain(3, max)]
    rows = rng.choice(factors)
    for _ in range(rng.randint(1, 2)):
        rows = product(rows, rng.choice(factors))
    return rows


def test_constituent_groups_are_groups():
    tables = [SEMILATTICE, NILPOTENT, C3_ROWS, *SEMIGROUPS.values()]
    rng = random.Random(7)
    tables += [random_commutative_semigroup(rng) for _ in range(30)]
    checked = 0
    for rows in tables:
        s = FiniteCommSemigroup(rows)
        for e in idempotents(s):
            assert_is_group(s, e)
            checked += 1
    assert checked > 100


# -- sampled closures against the exact valuation model ----------------------


def dyadic_model():
    return ValuationClassModel(ValueGroup((Zloc(2),)))


def test_closure_saturates_to_c3_and_cross_checks():
    m = dyadic_model()
    third = m.class_of(Cut(1, (F(1, 3),), OPEN))
    max_ideal = m.class_of(Cut(1, (F(0),), OPEN))
    cl = sample_closure(m, [third, max_ideal], 256)
    assert cl.saturated
    assert len(cl.dictionary) == 3
    assert to_fixture(cl.semigroup) == C3_TEXT
    # index layout: seeds first, then the product class at 2/3
    assert cl.elements[0] == third
    assert cl.elements[1] == max_ideal
    assert cl.elements[2] == m.class_of(Cut(1, (F(2, 3),), OPEN))
    assert idempotents(cl.semigroup) == frozenset({1})
    assert constituent_group(cl.semigroup, 1) == (0, 1, 2)
    rep = cross_check(cl, m)
    assert rep.passed
    assert rep.mismatches == []


def test_constituent_groups_of_dyadic_closures_are_groups():
    m = dyadic_model()
    g = m.group
    rng = random.Random(3)
    tops = [F(n, q) for q in (3, 5, 9) for n in range(q)] + [F(0), F(1, 2)]
    sizes = []
    for _ in range(6):
        cuts = [Cut(1, (rng.choice(tops),), rng.choice((OPEN, CLOSED))) for _ in range(3)]
        seeds = [m.class_of(normalize(g, a)) for a in cuts]
        cl = sample_closure(m, seeds, 256)
        assert cl.saturated
        sizes.append(len(cl.dictionary))
        for e in idempotents(cl.semigroup):
            assert_is_group(cl.semigroup, e)
        assert cross_check(cl, m).passed
    assert max(sizes) > 10, sizes


def test_closure_of_single_idempotent_is_trivial():
    m = dyadic_model()
    ring = m.class_of(Cut(1, (F(0),), CLOSED))
    cl = sample_closure(m, [ring], 8)
    assert cl.saturated and len(cl.dictionary) == 1
    assert to_fixture(cl.semigroup) == "1\n0\n"
    assert cross_check(cl, m).passed

    mq = ValuationClassModel(ValueGroup((Q,)))
    max_ideal = mq.class_of(Cut(1, (F(0),), OPEN))
    clq = sample_closure(mq, [max_ideal], 8)
    assert clq.saturated and len(clq.dictionary) == 1
    assert cross_check(clq, mq).passed


def test_closure_budget_exhaustion_degrades_gracefully():
    m = dyadic_model()
    third = m.class_of(Cut(1, (F(1, 3),), OPEN))
    max_ideal = m.class_of(Cut(1, (F(0),), OPEN))
    cl = sample_closure(m, [third, max_ideal], 2)
    assert not cl.saturated
    assert cl.semigroup is None
    assert len(cl.dictionary) == 2
    with pytest.raises(ValueError, match="^cross_check needs a saturated closure$"):
        cross_check(cl, m)


def test_closure_rejects_budget_below_seed_count():
    m = dyadic_model()
    seeds = [m.class_of(Cut(1, (F(1, d),), OPEN)) for d in (3, 5, 7)]
    with pytest.raises(ValueError, match="budget"):
        sample_closure(m, seeds, 2)


class LowerTriangleEscapes:
    """A stand-in whose y * x, for x < y, is a class outside the closure."""

    def mul(self, x, y):
        return min(x + y, 4) if x <= y else 99


def test_closure_reports_lower_product_outside_it_as_not_commutative():
    with pytest.raises(MalformedTableError, match=r"not commutative at \(0, 1\)"):
        sample_closure(LowerTriangleEscapes(), [0, 1], 16)


def test_closure_deduplicates_seeds():
    m = dyadic_model()
    ring = m.class_of(Cut(1, (F(0),), CLOSED))
    also_ring = m.class_of(Cut(1, (F(5),), CLOSED))
    cl = sample_closure(m, [ring, also_ring, ring], 8)
    # principal classes coincide, so the closure is a single point
    assert cl.saturated and len(cl.dictionary) == 1


def test_cross_check_catches_misassigned_idempotent():
    m = dyadic_model()
    third = m.class_of(Cut(1, (F(1, 3),), OPEN))
    max_ideal = m.class_of(Cut(1, (F(0),), OPEN))
    two_thirds = m.class_of(Cut(1, (F(2, 3),), OPEN))
    # same C3 table, but the dictionary claims the idempotent sits at index 0
    corrupted = SampleClosure(
        {max_ideal: 0, third: 1, two_thirds: 2},
        FiniteCommSemigroup(C3_ROWS),
        True,
    )
    rep = cross_check(corrupted, m)
    assert not rep.passed
    assert any("idempotent sets differ" in msg for msg in rep.mismatches)


class SelfClassified(ValuationClassModel):
    """Right products, wrong classification: every class claims to be its
    own idempotent."""

    def idempotent_of(self, x):
        return x


def test_cross_check_takes_model_idempotents_from_classification():
    m = SelfClassified(ValueGroup((Zloc(2),)))
    seeds = [m.class_of(Cut(1, (F(1, 3),), OPEN)), m.class_of(Cut(1, (F(0),), OPEN))]
    rep = cross_check(sample_closure(m, seeds, 256), m)
    assert not rep.passed
    assert any("idempotent sets differ" in msg for msg in rep.mismatches)


def test_fixture_round_trip():
    s = FiniteCommSemigroup(C3_ROWS)
    assert from_fixture(to_fixture(s)).table == s.table
    assert to_fixture(from_fixture(C3_TEXT)) == C3_TEXT
    # whitespace noise is tolerated on the way in
    assert from_fixture("\n" + C3_TEXT + "\n\n").table == s.table


def test_fixture_malformed_text():
    with pytest.raises(MalformedTableError, match="empty"):
        from_fixture("   \n  ")
    with pytest.raises(MalformedTableError, match="size"):
        from_fixture("three\n0 1\n1 0\n")
    with pytest.raises(MalformedTableError, match="expected 2 rows, found 1"):
        from_fixture("2\n0 1\n")
    with pytest.raises(MalformedTableError, match="bad row"):
        from_fixture("2\n0 1\n1 x\n")
    # table-level validation still applies after parsing
    with pytest.raises(MalformedTableError, match="commutative"):
        from_fixture("2\n0 0\n1 1\n")


def test_constituent_group_is_a_member_tuple():
    grp = constituent_group(FiniteCommSemigroup(C3_ROWS), 1)
    assert type(grp) is tuple and grp == (0, 1, 2)
    assert constituent_group(FiniteCommSemigroup(product(cyclic(2), SEMILATTICE)), 1) == (1, 3)
