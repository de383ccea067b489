"""Valuation ideals as cuts: arithmetic, closures, classification, groups.

Derived values frozen here were computed independently by the box oracle;
the oracle call sits next to each frozen assertion so a regression in
either side surfaces as a disagreement.
"""

import ast
import copy
import json
import math
import pickle
import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    GROUPS,
    assert_coordinate_types,
    group_inv,
    is_subset,
    random_element,
    random_member,
    random_raw_cut,
    random_rational,
)
from tclass import CLOSED, OPEN, Cut, Q, ValueGroup, Z, Zloc
from tclass import boxes
from tclass import cuts as C
from tclass import pruefer as P
from tclass.groups import is_member
from tclass.sampling import group_cut, random_cut, target_cut

ZZ = GROUPS["Z"]
Z2 = GROUPS["Z2"]
ZQ = GROUPS["Z_Q"]
DY = GROUPS["Zhalf"]
QQ = ValueGroup((Q,))

seeds = st.integers(0, 2**32 - 1)
group_names = st.sampled_from(sorted(GROUPS))


def test_cut_construction_rejects_malformed():
    with pytest.raises(C.MalformedCutError):
        Cut(0, (), CLOSED)
    with pytest.raises(C.MalformedCutError):
        Cut(2, (F(1),), CLOSED)
    with pytest.raises(C.MalformedCutError):
        Cut(1, (F(1),), "half-open")


def test_value_types_are_the_tuples_of_their_fields(monkeypatch):
    # Each value type hashes as the tuple of its fields, as the frozen
    # dataclasses it replaced did, so no cache key, set or dict order moves.
    a = C.cut_from_json(ZQ, {"level": 2, "boundary": ["1", "1/3"], "side": "open"})
    form = C.classify_idempotent(ZQ, a)
    values = [a, form.overring, form, C.is_regular(ZQ, a),
              P.IdealTuple((a, C.ring_cut(ZZ)))]
    assert [type(v).__name__ for v in values] == [
        "Cut", "OverringSpec", "IdempotentForm", "RegularityWitness", "IdealTuple"]
    for v in values:
        fields = tuple(getattr(v, f) for f in type(v)._fields)
        assert isinstance(v, tuple) and hash(v) == hash(fields) and v == fields, v

    # Every `Cut(...)` runs the guards, once.
    built = []
    post_init = C.Cut.__post_init__
    monkeypatch.setattr(C.Cut, "__post_init__", lambda c: built.append(c) or post_init(c))
    for level, boundary, side in ((1, (1,), "half-open"), (0, (), CLOSED), (2, (1,), OPEN)):
        with pytest.raises(C.MalformedCutError):
            Cut(level, boundary, side)
    assert Cut(1, (F(1, 2),), OPEN) == (1, (F(1, 2),), OPEN)
    assert len(built) == 4


# Where a `Cut` may skip its guards: the kernel results whose shape
# follows from operands already checked, and the one builder's definition.
# `translate` adds an unchecked shift, and outside literals (`cut_from_json`,
# `prime_cut`'s) are input, so both stay `Cut(...)`.
UNGUARDED_BUILDS = {
    ("cuts.py", "_trusted_cut"),
    ("cuts.py", "normalize"),
    ("cuts.py", "mul"),
    ("cuts.py", "quotient"),
    ("cuts.py", "ring_cut"),
    ("cuts.py", "CutClass.rep"),
    ("sampling.py", "_Window.__missing__"),
}


def scoped_nodes(tree):
    """Each node of a module's tree with the qualified name of the class or
    function around it; a module-level assignment's scope is its target."""
    todo = [(tree, "")]
    while todo:
        node, scope = todo.pop()
        yield scope, node
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.Assign) and not scope:
            scope = ".".join(t.id for t in node.targets if isinstance(t, ast.Name))
        todo.extend((child, scope) for child in ast.iter_child_nodes(node))


def refers_to(node, name: str) -> bool:
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def test_no_package_code_skips_the_cut_guards():
    # `_make` and `_replace` build a `NamedTuple` without its `__new__`, so
    # a `Cut` built by either would skip `__post_init__`; nothing calls
    # them.  `cuts._trusted_cut` and `tuple.__new__(Cut, ...)` skip it too,
    # and appear exactly where `UNGUARDED_BUILDS` says.
    package = Path(C.__file__).parent
    skipping, unguarded = [], set()
    for path in sorted(package.glob("*.py")):
        for scope, node in scoped_nodes(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("_make", "_replace"):
                skipping.append(f"{path.name}:{node.lineno}")
            named = (refers_to(node, "_trusted_cut")
                     or isinstance(node, ast.alias) and node.name == "_trusted_cut")
            new_cut = (isinstance(node, ast.Call)
                       and any(isinstance(a, ast.Attribute) and a.attr == "__new__"
                               and refers_to(a.value, "tuple") for a in (node.func, *node.args))
                       and any(refers_to(a, "Cut") for a in node.args))
            if named or new_cut:
                unguarded.add((path.name, scope))
    assert skipping == []
    assert unguarded == UNGUARDED_BUILDS


def test_validate_cut_level_range():
    with pytest.raises(C.MalformedCutError):
        C.validate_cut(ZZ, Cut(2, (F(0), F(0)), CLOSED))


# === normalization ===


def test_normalize_discrete_open_becomes_closed_successor(rng):
    got = C.normalize(ZZ, Cut(1, (F(0),), OPEN))
    assert got == Cut(1, (F(1),), CLOSED)
    assert boxes.check_same_set(ZZ, Cut(1, (F(0),), OPEN), got, rng) == []


def test_normalize_dense_nonmember_closed_collapses_to_open(rng):
    raw = Cut(1, (F(1, 3),), CLOSED)
    got = C.normalize(DY, raw)
    assert got == Cut(1, (F(1, 3),), OPEN)
    assert boxes.check_same_set(DY, raw, got, rng) == []


def test_normalize_keeps_canonical_cut():
    a = Cut(1, (F(1),), CLOSED)
    assert C.normalize(Z2, a) == a


def is_canonical(g, a):
    """The form `normalize` promises, written out: member coordinates below
    the top; at the top, a closed cut has a member boundary and an open cut
    sits at a dense component."""
    below = all(is_member(c, q) for c, q in zip(g.components, a.boundary[:-1]))
    top = g.components[a.level - 1]
    return below and (is_member(top, a.boundary[-1]) if a.side == CLOSED else top.dense)


def test_normalize_is_idempotent_and_set_preserving(group, rng):
    for _ in range(40):
        raw = random_raw_cut(rng, group)
        n1 = C.normalize(group, raw)
        assert is_canonical(group, n1), f"{C.format_cut(raw)} -> {C.format_cut(n1)}"
        assert C.normalize(group, n1) == n1
        assert boxes.check_same_set(group, raw, n1, rng) == []


def test_distinct_canonical_cuts_denote_distinct_sets(rng):
    # curated same-level pairs where the difference is within the box
    pairs = [
        (ZZ, Cut(1, (F(0),), CLOSED), Cut(1, (F(1),), CLOSED)),
        (DY, Cut(1, (F(0),), OPEN), Cut(1, (F(0),), CLOSED)),
        (DY, Cut(1, (F(1, 3),), OPEN), Cut(1, (F(1, 2),), OPEN)),
        (Z2, Cut(1, (F(1),), CLOSED), Cut(2, (F(1), F(0)), CLOSED)),
        (ZQ, Cut(2, (F(0), F(0)), OPEN), Cut(2, (F(0), F(0)), CLOSED)),
    ]
    for g, a, b in pairs:
        assert C.normalize(g, a) == a and C.normalize(g, b) == b
        assert boxes.check_same_set(g, a, b, rng), f"{a} vs {b} not separated"


# === membership and order ===


def test_member_examples():
    p = Cut(1, (F(1),), CLOSED)
    assert C.member(Z2, p, (F(1), F(-5)))
    assert not C.member(Z2, p, (F(0), F(100)))
    m = Cut(1, (F(0),), OPEN)
    assert C.member(QQ, m, (F(1, 7),))
    assert not C.member(QQ, m, (F(0),))


def test_is_subset(group, rng):
    for _ in range(30):
        a = random_cut(rng, group)
        b = random_cut(rng, group)
        inter = C.mul(group, a, C.ring_cut(group))
        assert is_subset(group, a, a)
        if is_subset(group, a, b) and is_subset(group, b, a):
            assert a == b
        assert is_subset(group, inter, a) or inter == a


# === multiplication ===


def test_mul_dense_idempotent_maximal_ideal(rng):
    m = Cut(1, (F(0),), OPEN)
    got = C.mul(QQ, m, m)
    assert got == m
    assert boxes.check_mul(QQ, m, m, got, rng) == []


def test_mul_discrete_prime_not_idempotent(rng):
    p = Cut(1, (F(1),), CLOSED)
    got = C.mul(Z2, p, p)
    assert got == Cut(1, (F(2),), CLOSED)
    assert boxes.check_mul(Z2, p, p, got, rng) == []


def test_mul_principal_adds_boundaries():
    a, b = Cut(1, (F(2),), CLOSED), Cut(1, (F(3),), CLOSED)
    assert C.mul(ZZ, a, b) == Cut(1, (F(5),), CLOSED)


def test_mul_rejects_cut_from_wider_tower():
    with pytest.raises(C.MalformedCutError):
        C.mul(ZZ, Cut(1, (F(0),), CLOSED), Cut(2, (F(0), F(0)), CLOSED))


# The kernel takes canonical cuts without normalising them, yet every public
# operation still checks a cut's level against the rank, directly or through
# an operation it calls.  Each operation that reads a cut compares its level
# itself, so each operand position of `mul` and `quotient` has its case.
WIDE = Cut(2, (F(0), F(0)), CLOSED)


@pytest.mark.parametrize("op", [
    lambda: C.quotient(ZZ, C.ring_cut(ZZ), WIDE),
    lambda: C.class_of(ZZ, WIDE),
    lambda: C.translate(ZZ, WIDE, (F(1),)),
    lambda: C.t_closure(ZZ, WIDE),
    lambda: C.classify_idempotent(ZZ, WIDE),
    lambda: C.is_regular(ZZ, WIDE),
    lambda: C.group_membership(ZZ, WIDE, C.idempotents(ZZ)),
    lambda: C.normalize(ZZ, WIDE),
    lambda: C.mul(ZZ, WIDE, C.ring_cut(ZZ)),
    lambda: C.quotient(ZZ, WIDE, C.ring_cut(ZZ)),
], ids=["quotient", "class_of", "translate", "t_closure", "classify_idempotent",
        "is_regular", "group_membership", "normalize", "mul_wide_first",
        "quotient_wide_dividend"])
def test_kernel_rejects_cut_from_wider_tower(op):
    with pytest.raises(C.MalformedCutError):
        op()


@given(group_names, seeds)
def test_mul_commutative_associative(name, seed):
    g = GROUPS[name]
    r = random.Random(seed)
    a, b, c = (random_cut(r, g) for _ in range(3))
    assert C.mul(g, a, b) == C.mul(g, b, a)
    assert C.mul(g, C.mul(g, a, b), c) == C.mul(g, a, C.mul(g, b, c))


@given(group_names, seeds)
def test_ring_cut_is_identity_on_its_ideals(name, seed):
    g = GROUPS[name]
    r = random.Random(seed)
    boundary = [random_member(r, c) for c in g.components[:-1]]
    boundary.append(random_rational(r, g.components[-1]))
    a = C.normalize(g, Cut(g.rank, tuple(boundary), r.choice((CLOSED, OPEN))))
    assert C.mul(g, a, C.ring_cut(g)) == a


@given(group_names, seeds)
def test_kernel_outputs_are_canonical(name, seed):
    # The contract the kernel rests on: canonical cuts in, canonical cuts out.
    g = GROUPS[name]
    r = random.Random(seed)
    a, b = random_cut(r, g), random_cut(r, g)
    outs = [
        C.mul(g, a, b),
        C.quotient(g, a, b),
        C.stabilizer(g, a),
        C.idempotent_cut(g, a),
        C.t_closure(g, a),
        C.t_closure_over(g, r.randint(a.level, g.rank), a),
        C.translate(g, a, random_element(r, g)),
        C.quotient(g, C.ring_cut(g), a),
        C.class_of(g, a).rep,
        C.is_regular(g, a).idempotent,
        *(C.form_cut(g, f) for f in C.idempotent_forms(g)),
    ]
    for out in outs:
        assert C.normalize(g, out) == out, C.format_cut(out)


@given(group_names, seeds)
def test_unvalidated_kernel_results_pass_the_guards(name, seed):
    # The kernel builds these through `cuts._trusted_cut`, without the
    # guards, because their shape follows from checked operands: each must
    # pass them when rebuilt by `Cut(...)`.
    g = GROUPS[name]
    r = random.Random(seed)
    raw = [random_raw_cut(r, g) for _ in range(3)]
    dense = [i + 1 for i, c in enumerate(g.components) if c.dense]
    drawn = [random_cut(r, g) for _ in range(3)]
    drawn += [group_cut(r, g, r.randint(1, g.rank), CLOSED)]
    for level in dense[:1]:  # open draws exist at dense levels only
        drawn += [target_cut(r, g, level), group_cut(r, g, level, OPEN)]
    canonical = [C.normalize(g, a) for a in raw] + drawn
    outs = [*drawn, *canonical, C.ring_cut(g), *(C.ring_cut(g, i) for i in range(1, g.rank + 1))]
    outs += [C.class_of(g, a).rep for a in canonical]
    outs += [f(g, a, b) for a in canonical for b in canonical for f in (C.mul, C.quotient)]
    for out in outs:
        assert type(out) is Cut and Cut(*out) == out, out


def test_mul_random_against_box(group, rng):
    for _ in range(25):
        a, b = random_cut(rng, group), random_cut(rng, group)
        assert boxes.check_mul(group, a, b, C.mul(group, a, b), rng) == []


# === residuals ===


def test_quotient_of_ring_by_maximal_ideal_is_ring(rng):
    v = C.ring_cut(QQ)
    m = Cut(1, (F(0),), OPEN)
    got = C.quotient(QQ, v, m)
    assert got == v
    assert boxes.check_quotient(QQ, v, m, got, rng) == []


def test_quotient_principal_self_residual_is_ring(group, rng):
    a = C.normalize(group, Cut(group.rank, tuple(random_element(rng, group)), CLOSED))
    assert C.quotient(group, a, a) == C.ring_cut(group)


def test_quotient_rank2_inverse_of_height_one_prime(rng):
    # residual absorbs arbitrarily low tail coordinates, so the edge stays
    # at zero rather than at the negated boundary
    v = C.ring_cut(Z2)
    p = Cut(1, (F(1),), CLOSED)
    got = C.quotient(Z2, v, p)
    assert got == Cut(1, (F(0),), CLOSED)
    assert boxes.check_quotient(Z2, v, p, got, rng) == []


def test_quotient_random_against_box(group, rng):
    for _ in range(25):
        a, b = random_cut(rng, group), random_cut(rng, group)
        assert boxes.check_quotient(group, a, b, C.quotient(group, a, b), rng) == []


def test_inverse_is_residual_into_ring(group, rng):
    # the inverse (V : I)
    for _ in range(10):
        a = random_cut(rng, group)
        got = C.quotient(group, C.ring_cut(group), a)
        assert boxes.check_quotient(group, C.ring_cut(group), a, got, rng) == []


@given(group_names, seeds)
def test_residual_multiplies_back_inside(name, seed):
    g = GROUPS[name]
    r = random.Random(seed)
    a, b = random_cut(r, g), random_cut(r, g)
    back = C.mul(g, C.quotient(g, a, b), b)
    assert is_subset(g, back, a)


# === closures ===


def v_closure(g, a):
    # the divisorial closure (V : (V : a))
    return C.quotient(g, C.ring_cut(g), C.quotient(g, C.ring_cut(g), a))


def test_closures_on_dense_maximal_ideal():
    m = Cut(1, (F(0),), OPEN)
    assert v_closure(QQ, m) == C.ring_cut(QQ)
    assert C.t_closure(QQ, m) == m


def test_closures_fix_principal_cuts(group, rng):
    a = C.normalize(group, Cut(group.rank, tuple(random_element(rng, group)), CLOSED))
    assert v_closure(group, a) == a
    assert C.t_closure(group, a) == a


def test_t_closure_fixes_height_one_prime():
    p = Cut(1, (F(1),), CLOSED)
    assert C.t_closure(Z2, p) == p


@given(group_names, seeds)
def test_t_closure_is_identity_on_canonical_cuts(name, seed):
    # principal subideals of a cut ideal are cofinal in it, so the t-closure
    # never moves a canonical cut; v-closure may grow it
    g = GROUPS[name]
    r = random.Random(seed)
    a = random_cut(r, g)
    assert C.t_closure(g, a) == a
    assert is_subset(g, a, v_closure(g, a))


# === stabilizer ===


def test_stabilizer_examples(rng):
    a = C.normalize(ZZ, Cut(1, (F(7),), CLOSED))
    assert C.stabilizer(ZZ, a) == C.ring_cut(ZZ)
    m = Cut(1, (F(0),), OPEN)
    assert C.stabilizer(QQ, m) == C.ring_cut(QQ)
    p = Cut(1, (F(1),), CLOSED)
    got = C.stabilizer(Z2, p)
    assert got == Cut(1, (F(0),), CLOSED)
    assert boxes.check_quotient(Z2, p, p, got, rng) == []


@given(group_names, seeds)
def test_stabilizer_is_self_residual(name, seed):
    g = GROUPS[name]
    r = random.Random(seed)
    a = random_cut(r, g)
    t = C.stabilizer(g, a)
    assert t == C.quotient(g, a, a)
    assert t.side == CLOSED and all(q == 0 for q in t.boundary)
    assert C.mul(g, a, t) == a


# === idempotents ===


def test_is_idempotent_examples():
    assert C.is_idempotent(QQ, Cut(1, (F(0),), OPEN))
    for g in GROUPS.values():
        for lvl in range(1, g.rank + 1):
            assert C.is_idempotent(g, C.ring_cut(g, lvl))
    assert not C.is_idempotent(Z2, C.normalize(Z2, Cut(1, (F(0),), OPEN)))


def test_prime_cut_idempotent_iff_dense(group):
    for i in range(1, group.rank + 1):
        prime = C.prime_cut(group, i)
        assert C.is_idempotent(group, prime) == group.components[i - 1].dense


def test_idempotent_cut_is_total_and_idempotent(group, rng):
    for _ in range(20):
        a = random_cut(rng, group)
        j = C.idempotent_cut(group, a)
        assert C.is_idempotent(group, j)
        assert j == C.form_cut(group, C.classify_idempotent(group, a))


def test_group_membership_requires_idempotent_j(monkeypatch):
    # Over Z, <1; (1); closed> squares to <1; (2); closed>: planted as the
    # cut of every form, it is refused where the idempotents are built.
    monkeypatch.setattr(C, "form_cut", lambda g, form: Cut(1, (F(1),), CLOSED))
    with pytest.raises(C.NotIdempotentError):
        C.idempotents(ZZ)


# === regularity ===


def test_regularity_principal_gives_ring_and_boundary_shift():
    a = Cut(1, (F(3),), CLOSED)
    w = C.is_regular(ZZ, a)
    assert w.idempotent == C.ring_cut(ZZ)
    assert w.shift == (F(3),)


def test_regularity_dense_open_member_boundary():
    w = C.is_regular(QQ, Cut(1, (F(1, 2),), OPEN))
    assert w.idempotent == Cut(1, (F(0),), OPEN)
    assert w.shift == (F(1, 2),)


def test_regularity_dense_open_nonmember_boundary():
    w = C.is_regular(DY, Cut(1, (F(1, 3),), OPEN))
    assert w.idempotent == Cut(1, (F(0),), OPEN)
    assert w.shift is None


def test_regularity_ring_branch_rank2():
    w = C.is_regular(Z2, Cut(1, (F(1),), CLOSED))
    assert w.idempotent == Cut(1, (F(0),), CLOSED)
    assert w.shift == (F(1), F(0))


@given(group_names, seeds)
def test_every_canonical_cut_is_regular(name, seed):
    # I = (I^2 (I : I^2))_t, and the witness invariants hold
    g = GROUPS[name]
    r = random.Random(seed)
    a = random_cut(r, g)
    sq = C.mul(g, a, a)
    recon = C.t_closure(g, C.mul(g, sq, C.quotient(g, a, sq)))
    assert recon == a
    w = C.is_regular(g, a)
    j = C.t_closure(g, C.mul(g, a, C.quotient(g, C.stabilizer(g, a), a)))
    assert w.idempotent == j
    if w.shift is not None:
        assert C.translate(g, a, w.shift) == C.t_closure(g, sq)


# === classification ===


def test_classify_discrete_rank1_always_ring():
    form = C.classify_idempotent(ZZ, Cut(1, (F(3),), CLOSED))
    assert form.variant == "ring"
    assert form.overring.levels == (1,)


def test_classify_dense_open_class_is_max_ideals():
    form = C.classify_idempotent(QQ, Cut(1, (F(1, 3),), OPEN))
    assert form.variant == "max_ideals"
    assert form.open_components == frozenset({0})
    assert form.overring.levels == (1,)


def test_classify_dense_bottom_component():
    form = C.classify_idempotent(ZQ, Cut(2, (F(0), F(0)), OPEN))
    assert form.variant == "max_ideals"
    assert form.overring.levels == (2,)


def test_classify_height_one_overring_branch():
    form = C.classify_idempotent(Z2, Cut(1, (F(1),), CLOSED))
    assert form.variant == "ring"
    assert form.overring.levels == (1,)


def test_classify_localization_consistency(group, rng):
    # a max-ideals classification names a dense level: the witness cut is
    # idempotent there, and stays idempotent in the truncated tower
    for _ in range(30):
        a = random_cut(rng, group)
        form = C.classify_idempotent(group, a)
        j = C.form_cut(group, form)
        assert C.is_idempotent(group, j)
        if form.variant == "max_ideals":
            lvl = form.overring.levels[0]
            gt = ValueGroup(group.components[:lvl])  # the tower's quotient G/H_lvl
            assert C.is_idempotent(gt, Cut(lvl, j.boundary, j.side))
        assert j == C.is_regular(group, a).idempotent


def test_idempotent_uniqueness_small(group, rng):
    # exactly one canonical idempotent admits each sampled class
    candidates = [C.ring_cut(group, l) for l in range(1, group.rank + 1)]
    candidates += [
        C.prime_cut(group, i)
        for i in range(1, group.rank + 1)
        if group.components[i - 1].dense
    ]
    idems = C.idempotents(group)
    assert len(idems) == len(candidates) and {j for _, j, _ in idems} == set(candidates)
    for _ in range(60):
        a = random_cut(rng, group)
        hits = [C.form_cut(group, f) for f in C.group_membership(group, a, idems)]
        assert len(hits) == 1
        assert hits[0] == C.form_cut(group, C.classify_idempotent(group, a))


def _reference_residual_membership(g, L, J):
    # The pairwise audit `cuts` ran before the idempotents were shared.
    if C.stabilizer(g, L) != C.stabilizer(g, J):
        return False
    r = C.quotient(g, L, C.mul(g, L, L))
    lr = C.t_closure(g, C.mul(g, L, r))
    if lr != J:
        return False
    if C.t_closure(g, C.mul(g, J, lr)) != J:
        return False
    return C.t_closure(g, C.mul(g, L, C.quotient(g, J, L))) == J


def _reference_group_membership(g, L, J):
    if not C.is_idempotent(g, J):
        raise C.NotIdempotentError(f"{C.format_cut(J)} is not idempotent")
    operative = C.idempotent_cut(g, L) == J
    if _reference_residual_membership(g, L, J) != operative:
        raise C.InternalInconsistencyError("membership tests diverged")
    return operative


def test_shared_membership_matches_the_pairwise_audit(group, rng):
    idems = C.idempotents(group)
    forms = C.idempotent_forms(group)
    for _ in range(60):
        a = random_cut(rng, group)
        want = [f for f in forms
                if _reference_group_membership(group, a, C.form_cut(group, f))]
        assert C.group_membership(group, a, idems) == want
        assert C.residual_membership(group, a, C.stabilizer(group, a), idems) == want


# === constituent group operations ===


def admitted(g, L):
    """The idempotent cuts whose constituent group holds L's class."""
    return [C.form_cut(g, f) for f in C.group_membership(g, L, C.idempotents(g))]


def test_group_membership_identity_and_example():
    j = Cut(1, (F(0),), OPEN)
    assert admitted(DY, j) == [j]
    L = Cut(1, (F(1, 3),), OPEN)
    assert admitted(DY, L) == [j]
    inv = group_inv(DY, C.class_of(DY, L), j)
    assert inv == C.class_of(DY, Cut(1, (F(-1, 3),), OPEN))
    prod = C.class_mul(DY, C.class_of(DY, L), inv)
    assert prod == C.class_of(DY, j)


def test_group_membership_rejects_principal_class_at_dense_idempotent():
    # the ring class is principal; its idempotent is the ring itself, not
    # the maximal ideal, even though the stabilizer condition matches
    j = Cut(1, (F(0),), OPEN)
    v = C.ring_cut(QQ)
    assert j not in admitted(QQ, v)
    idems = C.idempotents(QQ)
    t = C.stabilizer(QQ, v)
    assert C.residual_membership(QQ, v, t, idems) == C.group_membership(QQ, v, idems)


def test_group_ops_reject_non_members():
    j = Cut(1, (F(0),), OPEN)
    v = C.ring_cut(QQ)
    with pytest.raises(C.NotInGroupError):
        group_inv(QQ, C.class_of(QQ, v), j)


@given(group_names, seeds)
def test_group_axioms_on_members(name, seed):
    g = GROUPS[name]
    r = random.Random(seed)
    a = random_cut(r, g)
    j = C.form_cut(g, C.classify_idempotent(g, a))
    b = random_cut(r, g)
    jb = C.form_cut(g, C.classify_idempotent(g, b))
    x = C.class_of(g, a)
    e = C.class_of(g, j)  # the group's identity
    assert C.class_mul(g, x, e) == x
    xinv = group_inv(g, x, j)
    assert C.class_mul(g, x, xinv) == e
    if jb == j:
        y = C.class_of(g, b)
        assert C.class_mul(g, x, y) == C.class_mul(g, y, x)


@given(group_names, seeds)
def test_class_product_does_not_depend_on_the_representatives(name, seed):
    g = GROUPS[name]
    r = random.Random(seed)
    a, b = random_cut(r, g), random_cut(r, g)
    # principal translates of a and b: other representatives of their classes
    a2, b2 = (C.translate(g, c, random_element(r, g)) for c in (a, b))
    assert C.class_mul(g, C.class_of(g, a2), C.class_of(g, b2)) == C.class_of(g, C.mul(g, a, b))


# The groups of the key-product check: rank 1 over every kind of
# component (two localized primes in one), and two mixed towers whose
# levels differ, so that pairs of unequal levels occur.
CLASS_MUL_GROUPS = {
    "Z": ValueGroup((Z,)),
    "Q": ValueGroup((Q,)),
    "Z[1/2,1/3]": ValueGroup((Zloc(2, 3),)),
    "Z[1/5]": ValueGroup((Zloc(5),)),
    "Z,Z[1/2]": ValueGroup((Z, Zloc(2))),
    "Z[1/3],Q,Z": ValueGroup((Zloc(3), Q, Z)),
}
KEY_DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 15, 35)


@pytest.mark.parametrize("name", sorted(CLASS_MUL_GROUPS))
def test_class_mul_on_keys_is_the_class_of_the_product(name):
    # `class_row` reduces a sum of tops by n mod d alone, trusting that
    # `class_of` left every key's denominator free of the localized
    # primes, and asks the side rule once per distinct side at x's level;
    # here every key x of a window of cuts (each level, tops n/d with
    # |n| <= 40, both sides) is multiplied by the whole window, in a
    # seeded order that mixes levels and sides, and each product is
    # checked against the cuts' own product classified afresh.
    # `class_mul` is the one-element row.
    g = CLASS_MUL_GROUPS[name]
    keys = {C.class_of(g, C.normalize(g, Cut(level, (0,) * (level - 1) + (F(n, d),), side)))
            for level in range(1, g.rank + 1) for n in range(-40, 41)
            for d in KEY_DENOMINATORS for side in (CLOSED, OPEN)}
    ys = sorted(keys)
    random.Random(name).shuffle(ys)
    levels = set()
    for x in ys:
        want = [C.class_of(g, C.mul(g, x.rep, y.rep)) for y in ys]
        assert C.class_row(g, x, ys) == want, x
        assert [C.class_mul(g, x, y) for y in ys] == want, x
        assert C.class_row(g, x, []) == []
        levels.update(x.level == y.level for y in ys)
    # Z is discrete, so its open cuts normalise to closed ones.
    assert {y.side for y in ys} == ({CLOSED} if name == "Z" else {CLOSED, OPEN})
    assert levels == ({True, False} if g.rank > 1 else {True})


def test_class_translation_invariance(group, rng):
    for _ in range(20):
        a = random_cut(rng, group)
        shift = random_element(rng, group)
        assert C.class_of(group, C.translate(group, a, shift)) == C.class_of(group, a)


def assert_class_of(g, a, x):
    """x is a's class by a check stated here, not by `_coset_rep`: a's level
    and side, zeros below the top, and a top in [0, 1), in lowest terms,
    that differs from a's top by a member of the component."""
    top = F(x.n, x.d)
    assert x.rep == Cut(a.level, (F(0),) * (a.level - 1) + (top,), a.side)
    assert 0 <= top < 1 and x.d > 0 and math.gcd(x.n, x.d) == 1
    assert is_member(g.components[a.level - 1], a.boundary[-1] - top)



COSET_COMPONENTS = {"Z": Z, "Q": Q, "Z[1/2]": Zloc(2), "Z[1/3]": Zloc(3), "Z[1/2,1/3]": Zloc(2, 3)}


@pytest.mark.parametrize("name", sorted(COSET_COMPONENTS))
def test_coset_rep_matches_a_fraction_reference(name):
    # The coset n/d + C meets [0, 1) in exactly one rational whose lowest
    # denominator is 1 over Q and prime to the localized primes over
    # Z[1/S] (over Z, [0, 1) holds only one).  Every n/d with d up to 64
    # is checked: d = 1 and the pure p-powers, with no unit part left to
    # invert, among them.
    comp = COSET_COMPONENTS[name]
    for d in range(1, 65):
        for n in range(-d, 2 * d):
            rn, rd = C._coset_rep(comp, n, d)
            r = F(rn, rd)
            assert (r.numerator, r.denominator) == (rn, rd) and 0 <= r < 1, (n, d)
            assert is_member(comp, F(n, d) - r), (n, d)
            assert rd == 1 if comp.kind == "Q" else all(rd % p for p in comp.primes), (n, d)

@given(group_names, seeds)
def test_cut_classes_are_equal_exactly_when_their_reps_are(name, seed):
    g = GROUPS[name]
    r = random.Random(seed)
    # Raw, non-canonical cuts, and principal translates of some of them so
    # that distinct cuts share classes (and Zloc tops mix a p-power with a
    # coprime denominator).
    cuts = [random_raw_cut(r, g) for _ in range(12)]
    cuts += [C.translate(g, a, random_element(r, g)) for a in cuts[:6]]
    classes = [C.class_of(g, a) for a in cuts]
    equal = [[x == y for y in classes] for x in classes]
    for x, same in zip(classes, equal):
        assert all(hash(x) == hash(z) for z, s in zip(classes, same) if s)
    for a, x, same in zip(cuts, classes, equal):
        assert_class_of(g, a, x)
        assert same == [x.rep == z.rep for z in classes]
        # equal exactly when level and side agree and the tops differ by a member
        comp = g.components[a.level - 1]
        assert same == [(a.level, a.side) == (b.level, b.side)
                        and is_member(comp, a.boundary[-1] - b.boundary[-1]) for b in cuts]


def test_cut_class_repr_and_immutability():
    x = C.class_of(DY, Cut(1, (F(4, 3),), OPEN))
    assert repr(x) == "CutClass(level=1, side='open', n=1, d=3)"
    with pytest.raises(AttributeError):
        x.rep = Cut(1, (F(0),), OPEN)
    with pytest.raises(AttributeError):
        del x.rep
    assert x != x.rep
    for args in ((), (x.rep,)):  # a class is its four-int key, not a cut
        with pytest.raises(TypeError):
            C.CutClass(*args)
    assert pickle.loads(pickle.dumps(x)) == x == copy.deepcopy(x)


def test_cut_class_literal_checks_what_a_cut_literal_checks():
    # A hand-built class is refused with `Cut`'s messages, instead of a
    # `rep` of level 0 or of an unknown side.
    with pytest.raises(C.MalformedCutError, match="^level must be at least 1"):
        C.CutClass(0, CLOSED, 0, 1)
    with pytest.raises(C.MalformedCutError, match="^side must be 'closed' or 'open', got 'half'$"):
        C.CutClass(1, "half", 0, 1)
    for a in (Cut(1, (F(4, 3),), OPEN), Cut(2, (F(0), F(1, 2)), CLOSED)):
        x = C.class_of(GROUPS["Z_Q"], a)
        assert C.CutClass(*x) == x
        for copied in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert copied == x and type(copied) is C.CutClass


# === transfer to overrings ===


def test_t_closure_transfer_on_common_ideals(group, rng):
    for _ in range(40):
        a = random_cut(rng, group)
        t_level = C.stabilizer(group, a).level
        over = C.t_closure_over(group, t_level, a)
        assert over == C.t_closure(group, a)


def test_t_closure_over_rejects_non_ideals():
    a = C.normalize(Z2, Cut(2, (F(0), F(1)), CLOSED))
    with pytest.raises(C.DomainMismatchError):
        C.t_closure_over(Z2, 1, a)


def test_t_closure_over_rejects_a_level_out_of_range():
    # No overring sits below level 1 or above the rank.
    a = C.ring_cut(Z2, 1)
    for level in (-1, 0, Z2.rank + 1):
        with pytest.raises(C.MalformedCutError):
            C.t_closure_over(Z2, level, a)


# === serialization and adapters ===


def test_cut_json_round_trip(group, rng):
    for _ in range(20):
        a = random_cut(rng, group)
        assert C.cut_from_json(group, C.cut_to_json(a)) == a


def test_cut_from_json_diagnostics():
    with pytest.raises(C.MalformedCutError):
        C.cut_from_json(ZZ, {"level": 1, "boundary": ["x"], "side": "closed"})
    with pytest.raises(C.MalformedCutError):
        C.cut_from_json(ZZ, {"level": 1, "boundary": ["0"], "side": "ajar"})
    with pytest.raises(C.MalformedCutError):
        C.cut_from_json(ZZ, {"boundary": ["0"], "side": "open"})


def test_format_cut():
    assert C.format_cut(Cut(2, (F(1), F(-1, 2)), OPEN)) == "<2; (1, -1/2); open>"


def test_cut_from_json_reads_integral_coordinates_as_ints():
    def parsed(g, text):
        return C.cut_from_json(g, {"level": 1, "boundary": [text], "side": "closed"})
    for g, text, want in ((ZZ, "4/2", 2), (ZZ, "-0", 0), (ZZ, "1e2", 100), (QQ, "5/2", F(5, 2)),
                          (QQ, "-0.25", F(-1, 4))):
        got = parsed(g, text)
        assert got.boundary == (want,), text
        assert_coordinate_types([got])


# As `Fraction()` reads an exponent; a copy, so that the reference below
# does not move with the reader under test.
REFERENCE_EXPONENT = re.compile(r"[eE][+-]?(\d+(?:_\d+)*)")


def reference_coordinate(c):
    """The coordinate reader that `cuts._coordinate` must match: the type
    and length checks, then `Rat(text)` behind the exponent check, with no
    `int` fast path.  A float is refused: a non-integral JSON number
    reaches the reader as its text."""
    if isinstance(c, bool) or not isinstance(c, (int, str)):
        raise C.MalformedCutError(f"a boundary coordinate is a JSON number or a string, got {c!r}")
    text = str(c)
    exp = REFERENCE_EXPONENT.search(text)
    if len(text) > C.MAX_COORDINATE_CHARS or (exp and int(exp.group(1)) > C.MAX_EXPONENT):
        raise C.MalformedCutError(
            f"boundary coordinate {text[:24]!r} exceeds the literal limits "
            f"({C.MAX_COORDINATE_CHARS} characters, exponent at most {C.MAX_EXPONENT})"
        )
    try:
        return C.Rat(text)
    except (ValueError, ZeroDivisionError) as e:
        raise C.MalformedCutError(f"bad boundary coordinate {text!r}: {e}") from None


def read_outcome(read, c) -> tuple:
    """(type, value) of what `read` makes of c, or (error type, message)."""
    try:
        x = read(c)
    except Exception as e:
        return type(e), str(e)
    return type(x), x


COORDINATE_INPUTS = st.one_of(
    st.text(alphabet="0123456789+-/ _e.\u0663", max_size=12),
    st.from_regex(r"\A[+-]?[0-9]{1,110}(/[0-9]{1,110})?\Z"),
    st.integers(min_value=-10**110, max_value=10**110),
    st.sampled_from([True, 1.0, 1e20, None]),
    st.integers(min_value=95, max_value=110).map(lambda k: "1/" + "7" * k),
)


@settings(max_examples=400)
@given(COORDINATE_INPUTS)
def test_coordinate_reads_as_the_fraction_reader(c):
    # A plain n or n/d is read by `int`; the value, its type (`int` or
    # `Rat`) and every error and its message must be the reference's.
    assert read_outcome(C._coordinate, c) == read_outcome(reference_coordinate, c)


def test_coordinate_reads_edge_spellings_as_the_fraction_reader():
    # Signs, leading zeros, a zero numerator or denominator, the length
    # limit on either side, and spellings only `Fraction()` reads.
    for c in ("3/2", "+6/4", "006/004", " 3/2 ", "-0/5", "3/0", "-0/000", "1/" + "7" * 98,
              "1/" + "7" * 99, "\u0663/2", "1_0/3", "15e-1", "3 / 2", 10**99, -10**99):
        assert read_outcome(C._coordinate, c) == read_outcome(reference_coordinate, c), c

# === coordinates as built: an int or a `Rat` and the equal Fraction agree ===


def as_built(xs) -> tuple:
    """The coordinates as the package builds them: an int when integral,
    else a `cuts.Rat`."""
    return tuple(C.Rat(x) for x in xs)


def report_text(x) -> list:
    """What a report can print of a kernel result."""
    if isinstance(x, Cut):
        return [json.dumps(C.cut_to_json(x), sort_keys=True), C.format_cut(x)]
    if isinstance(x, C.CutClass):
        return [repr(x), *report_text(x.rep)]
    if isinstance(x, C.RegularityWitness):
        shift = None if x.shift is None else [str(q) for q in x.shift]
        return [*report_text(x.idempotent), repr(shift)]
    if isinstance(x, list):
        return [t for y in x for t in report_text(y)]
    return [repr(x)]


def test_integral_coordinates_give_the_same_results_as_ints_or_fractions(group, rng):
    # Each cut is built twice: integral coordinates as ints and the others
    # as `Rat`s, as the parsers and samplers build them, and every one as a
    # plain `Fraction`.  Results, hashes and printed text must not tell the
    # two apart.
    g = group
    idems = C.idempotents(g)
    ints = 0
    for _ in range(40):
        a, b, raw = (Cut(c.level, as_built(c.boundary), c.side)
                     for c in (random_cut(rng, g), random_cut(rng, g), random_raw_cut(rng, g)))
        shift = as_built(random_element(rng, g))
        assert_coordinate_types([a, b, raw])
        ints += sum(type(x) is int for x in a.boundary + b.boundary + raw.boundary + shift)
        fa, fb, fraw = (Cut(c.level, tuple(map(F, c.boundary)), c.side) for c in (a, b, raw))
        t = C.ring_cut(g, a.level)
        arithmetic = [
            (C.mul(g, a, b), C.mul(g, fa, fb)),
            (C.quotient(g, a, b), C.quotient(g, fa, fb)),
            # A `Rat` less itself is the int 0 (through `cuts._sum`), and
            # the 0 of a ring cut less a `Rat` is a `Rat` (`Rat.__rsub__`).
            (C.quotient(g, a, a), C.quotient(g, fa, fa)),
            (C.quotient(g, t, a), C.quotient(g, t, fa)),
            (C.translate(g, a, shift), C.translate(g, fa, tuple(map(F, shift)))),
        ]
        assert_coordinate_types(got for got, _ in arithmetic)
        for got, want in [
            (C.normalize(g, raw), C.normalize(g, fraw)),
            *arithmetic,
            (C.class_of(g, a), C.class_of(g, fa)),
            (C.is_regular(g, a), C.is_regular(g, fa)),
            (C.group_membership(g, a, idems), C.group_membership(g, fa, idems)),
            (C.classify_idempotent(g, a), C.classify_idempotent(g, fa)),
        ]:
            assert got == want
            assert hash(tuple(got) if isinstance(got, list) else got) == \
                hash(tuple(want) if isinstance(want, list) else want)
            assert report_text(got) == report_text(want)
    assert ints > 0


def test_valuation_class_model_adapter(rng):
    model = C.ValuationClassModel(DY)
    x = model.class_of(Cut(1, (F(1, 3),), OPEN))
    y = model.class_of(Cut(1, (F(2, 3),), OPEN))
    [prod] = model.row(x, [y])
    assert prod == model.class_of(Cut(1, (F(0),), OPEN))
    assert model.row(prod, [prod, x]) == [prod, x]
    assert model.idempotent_of(x) == prod
    # `describe` names a class by the literal `classify` reads back.
    assert C.cut_from_json(DY, json.loads(model.describe(x))) == x.rep
