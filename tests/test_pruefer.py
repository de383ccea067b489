"""Finite intersections of independent valuations: tuple ideals, the
idempotent classification, and the exact-sequence verification."""

import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import GROUPS, exact_sample, group_inv, is_subset
from tclass import CLOSED, OPEN, Cut, Q, ValueGroup, Z, Zloc
from tclass import checks
from tclass import cuts as C
from tclass import pruefer as P
from tclass.cli import KINDS, cmd_verify, load_model

DY = GROUPS["Zhalf"]
TR = ValueGroup((Zloc(3),))
QQ = ValueGroup((Q,))
ZZ = GROUPS["Z"]
Z2 = GROUPS["Z2"]

# shipped reference models, mixing dense and discrete components
M_DD = P.PrueferModel((DY, TR))
M_DZ = P.PrueferModel((DY, ZZ))
M_QQZ = P.PrueferModel((QQ, QQ))
M_RANK2 = P.PrueferModel((Z2, ZZ))

MODELS = {"dense_dense": M_DD, "dense_discrete": M_DZ, "rank2_mixed": M_RANK2}

seeds = st.integers(0, 2**32 - 1)


def tup(*cuts):
    return P.IdealTuple(tuple(cuts))


def random_tuple(rng, model):
    from tclass.sampling import random_cut

    return tup(*(random_cut(rng, g) for g in model.valuations))


@pytest.fixture(params=sorted(MODELS), ids=sorted(MODELS))
def model(request):
    return MODELS[request.param]


def test_model_requires_at_least_one_valuation():
    with pytest.raises(ValueError):
        P.PrueferModel(())


RING_DD = C.IdempotentForm(C.OverringSpec((1, 1)), frozenset())


# Each call gets a tuple one cut short of M_DD's two components; zipping it
# against the valuations would silently drop the second one.
@pytest.mark.parametrize("call", [
    lambda a: P.mul(M_DD, a, P.ring_tuple(M_DD, RING_DD.overring)),
    lambda a: P.classify_idempotent(M_DD, a),
    lambda a: P.class_of(M_DD, a),
    lambda a: P.psi_localize(M_DD, a, RING_DD),
], ids=["mul", "classify_idempotent", "class_of", "psi_localize"])
def test_tuple_arity_checked(call):
    with pytest.raises(C.DomainMismatchError):
        call(tup(Cut(1, (F(0),), CLOSED)))


def test_form_arity_checked():
    # A form one component short would otherwise be built on the first
    # component alone: zip drops the second.
    short = C.IdempotentForm(C.OverringSpec((1,)), frozenset())
    with pytest.raises(C.DomainMismatchError):
        P.form_tuple(M_DD, short)


def test_mul_componentwise_principal():
    a = tup(Cut(1, (F(1, 2),), CLOSED), Cut(1, (F(1, 3),), CLOSED))
    b = tup(Cut(1, (F(1, 4),), CLOSED), Cut(1, (F(2, 3),), CLOSED))
    got = P.mul(M_DD, a, b)
    assert got == tup(Cut(1, (F(3, 4),), CLOSED), Cut(1, (F(1),), CLOSED))


def test_mul_componentwise_idempotent_over_rationals():
    a = tup(Cut(1, (F(0),), OPEN), Cut(1, (F(0),), CLOSED))
    assert P.mul(M_QQZ, a, a) == a


def test_t_closure_is_the_identity_componentwise(rng):
    for _ in range(20):
        a = random_tuple(rng, M_DD)
        assert P.t_closure(M_DD, a) == a


def stabilizer_tuple(model, a):
    """T = (A : A), componentwise."""
    return tup(*(C.stabilizer(g, c) for g, c in zip(model.valuations, a.cuts)))


def residual(model, a, b):
    """(A : B), componentwise."""
    return tup(*map(C.quotient, model.valuations, a.cuts, b.cuts))


def test_stabilizer_examples():
    for model, a, levels in (
        (M_DD, tup(Cut(1, (F(1, 2),), CLOSED), Cut(1, (F(5),), CLOSED)), (1, 1)),
        (M_RANK2, tup(Cut(1, (F(1),), CLOSED), Cut(1, (F(2),), CLOSED)), (1, 1)),
        (M_RANK2, tup(Cut(2, (F(1), F(0)), CLOSED), Cut(1, (F(2),), CLOSED)), (2, 1)),
        (M_QQZ, tup(Cut(1, (F(0),), OPEN), Cut(1, (F(0),), CLOSED)), (1, 1)),
    ):
        spec = C.OverringSpec(levels)
        assert P.classify_idempotent(model, a).overring == spec
        assert stabilizer_tuple(model, a) == P.ring_tuple(model, spec)


def test_classify_all_principal_is_ring():
    form = P.classify_idempotent(M_DD, tup(Cut(1, (F(1, 2),), CLOSED), Cut(1, (F(5),), CLOSED)))
    assert form.variant == "ring"
    assert form.overring.levels == (1, 1)
    assert form.open_components == frozenset()


def test_classify_one_dense_open_component():
    form = P.classify_idempotent(M_DZ, tup(Cut(1, (F(1, 3),), OPEN), Cut(1, (F(5),), CLOSED)))
    assert form.variant == "max_ideals"
    assert form.open_components == frozenset({0})
    assert form.overring.levels == (1, 1)


def test_classify_two_idempotent_maximal_ideals():
    form = P.classify_idempotent(M_DD, tup(Cut(1, (F(0),), OPEN), Cut(1, (F(0),), OPEN)))
    assert form.variant == "max_ideals"
    assert form.open_components == frozenset({0, 1})


def test_form_tuple_components_match_open_set(model, rng):
    for _ in range(20):
        a = random_tuple(rng, model)
        form = P.classify_idempotent(model, a)
        j = P.form_tuple(model, form)
        assert P.mul(model, j, j) == j
        for i, (g, cut) in enumerate(zip(model.valuations, j.cuts)):
            if i in form.open_components:
                assert cut.side == OPEN
                assert C.is_idempotent(g, cut)
            else:
                assert cut.side == CLOSED and all(q == 0 for q in cut.boundary)


def test_classified_idempotent_equals_existence_construction(model, rng):
    for _ in range(25):
        a = random_tuple(rng, model)
        t = stabilizer_tuple(model, a)
        j = P.t_closure(model, P.mul(model, a, residual(model, t, a)))
        assert j == P.form_tuple(model, P.classify_idempotent(model, a))


def test_regularity_componentwise(model, rng):
    for _ in range(25):
        a = random_tuple(rng, model)
        sq = P.mul(model, a, a)
        recon = P.t_closure(model, P.mul(model, sq, residual(model, a, sq)))
        assert recon == a


def test_tmax_containing():
    # the t-maximal ideals of R containing a tuple are those of the
    # components whose cut lies inside the component's maximal ideal: the
    # ring itself sits inside none; strictly positive or open-at-zero
    # components are inside theirs; negative excluded
    def tmax(a):
        return {i for i, (g, c) in enumerate(zip(M_DD.valuations, a.cuts))
                if is_subset(g, c, C.prime_cut(g, g.rank))}

    assert tmax(tup(Cut(1, (F(0),), CLOSED), Cut(1, (F(0),), CLOSED))) == set()
    assert tmax(tup(Cut(1, (F(1, 2),), CLOSED), Cut(1, (F(0),), OPEN))) == {0, 1}
    assert tmax(tup(Cut(1, (F(-1, 2),), CLOSED), Cut(1, (F(0),), OPEN))) == {1}


def test_principal_multiples_of_the_overring_have_its_class(model, rng):
    t = P.classify_idempotent(model, random_tuple(rng, model)).overring
    e = P.class_of(model, P.ring_tuple(model, t))
    # the identity is its own square and inverse in every component's group
    for g, x, j in zip(model.valuations, e, P.ring_tuple(model, t).cuts):
        assert C.class_mul(g, x, x) == x
        assert group_inv(g, x, j) == x
    # Cl(T) is trivial: a principal multiple of T has T's class, be it a
    # principal tuple of R times T ...
    for _ in range(10):
        shifts = [
            tuple(F(rng.randint(-2, 2)) for _ in range(g.rank))
            for g in model.valuations
        ]
        a = tup(*(C.normalize(g, Cut(g.rank, s, CLOSED))
                  for g, s in zip(model.valuations, shifts)))
        assert P.class_of(model, P.mul(model, a, P.ring_tuple(model, t))) == e
    # ... or, below full rank, a tuple at an overring's own levels: that
    # overring shifted by a group element
    for _ in range(10):
        over = C.OverringSpec(tuple(rng.randint(1, g.rank) for g in model.valuations))
        a = tup(*(Cut(lvl, tuple(F(rng.randint(-2, 2)) for _ in range(lvl)), CLOSED)
                  for lvl in over.levels))
        assert P.class_of(model, a) == P.class_of(model, P.ring_tuple(model, over))


def test_psi_identity_and_example():
    form = P.classify_idempotent(M_DD, tup(Cut(1, (F(0),), OPEN), Cut(1, (F(0),), OPEN)))
    jbar = P.form_tuple(M_DD, form)
    psi_j = P.psi_localize(M_DD, jbar, form)
    assert [c.rep for c in psi_j] == [Cut(1, (F(0),), OPEN), Cut(1, (F(0),), OPEN)]
    L = tup(Cut(1, (F(1, 3),), OPEN), Cut(1, (F(0),), OPEN))
    psi_l = P.psi_localize(M_DD, L, form)
    assert psi_l[0] == C.class_of(DY, Cut(1, (F(1, 3),), OPEN))
    assert psi_l[1] == C.class_of(TR, Cut(1, (F(0),), OPEN))


def test_phi_embeds_identity_to_jbar():
    form = P.classify_idempotent(M_DD, tup(Cut(1, (F(0),), OPEN), Cut(1, (F(0),), OPEN)))
    # the identity of Cl(T) is T's class; multiplied into the idempotent
    # and t-closed it lands on the idempotent's class
    t = P.ring_tuple(M_DD, form.overring)
    jbar = P.form_tuple(M_DD, form)
    embedded = P.t_closure(M_DD, P.mul(M_DD, t, jbar))
    assert P.class_of(M_DD, embedded) == P.class_of(M_DD, jbar)


def test_group_membership_and_ops(model, rng):
    idems = [C.idempotents(g) for g in model.valuations]
    for _ in range(15):
        a = random_tuple(rng, model)
        form = P.classify_idempotent(model, a)
        j = P.form_tuple(model, form)
        # Componentwise: each cut's audited membership is its own form
        # alone, and the tuple's form is their join.
        per = list(map(C.group_membership, model.valuations, a.cuts, idems))
        assert per == [[f] for f in map(C.classify_idempotent, model.valuations, a.cuts)]
        assert P._split(form) == [f for f, in per]
        x = P.class_of(model, a)
        e = P.class_of(model, j)
        # the group law is componentwise
        for g, xi, ei, ji in zip(model.valuations, x, e, j.cuts):
            assert C.class_mul(g, xi, ei) == xi
            assert C.class_mul(g, xi, group_inv(g, xi, ji)) == ei


def exact_sequence(model, samples, rng) -> dict:
    """`verify`'s exact-sequence check of `model`, naming tuples by their
    `pruefer_fc` literals."""
    return checks.exact_sequence(model, KINDS["pruefer_fc"], samples, rng)


def test_exact_sequence_members_are_canonical_as_drawn(rng):
    # A group member is built from `sampling.group_cut` draws without
    # `normalize`; `psi_localize` refuses one outside its form's group, and
    # every drawn sample passes its test.
    for model in MODELS.values():
        for form in P.enumerate_idempotent_forms(model):
            sample = exact_sample(model, form)
            for _ in range(20):
                x = sample.draw(rng)
                for g, c in ((g, c) for a in x[:2] for g, c in zip(model.valuations, a.cuts)):
                    assert C.normalize(g, c) is c, C.format_cut(c)
                assert sample.test(x) == []


def test_enumerate_idempotent_forms_counts():
    # one choice per discrete rank-1 component, two per dense one,
    # levels multiply for higher ranks
    assert len(P.enumerate_idempotent_forms(P.PrueferModel((ZZ,)))) == 1
    assert len(P.enumerate_idempotent_forms(P.PrueferModel((DY,)))) == 2
    assert len(P.enumerate_idempotent_forms(M_DZ)) == 2
    assert len(P.enumerate_idempotent_forms(M_DD)) == 4
    assert len(P.enumerate_idempotent_forms(M_RANK2)) == 2
    forms = P.enumerate_idempotent_forms(M_DD)
    assert len(set(forms)) == len(forms)
    ring_forms = [f for f in forms if f.variant == "ring"]
    assert len(ring_forms) == 1


def test_exact_sequence_ring_form(rng):
    forms = [f for f in P.enumerate_idempotent_forms(M_DD) if f.variant == "ring"]
    assert len(forms) == 1
    report = exact_sequence(M_DD, 40, rng)
    assert report["failures"] == [] and report["instances"] == 40 * 4


def test_exact_sequence_dense_forms(model, rng):
    report = exact_sequence(model, 30, rng)
    assert report["failures"] == []
    assert report["instances"] == 30 * len(P.enumerate_idempotent_forms(model))


def test_exact_sequence_zero_samples_vacuous(rng):
    state = rng.getstate()
    report = exact_sequence(M_DD, 0, rng)
    assert report["passed"] and report["instances"] == 0
    assert rng.getstate() == state


def test_tuple_json_round_trip(model, rng):
    for _ in range(10):
        a = random_tuple(rng, model)
        assert P.tuple_from_json(model, P.tuple_to_json(a)) == a


def test_tuple_json_diagnostics():
    with pytest.raises(C.MalformedCutError, match="cuts"):
        P.tuple_from_json(M_DD, {"ideal": []})
    with pytest.raises(C.MalformedCutError, match="expected 2"):
        P.tuple_from_json(M_DD, {"cuts": [C.cut_to_json(Cut(1, (F(0),), CLOSED))]})
    bad = {"cuts": [C.cut_to_json(Cut(1, (F(0),), CLOSED)),
                    {"level": 2, "boundary": ["0", "0"], "side": "closed"}]}
    with pytest.raises(C.MalformedCutError, match="component 2"):
        P.tuple_from_json(M_DD, bad)


def test_pruefer_class_model_adapter(rng):
    adapter = P.PrueferClassModel(M_DD, P.tuple_to_json)
    a = tup(Cut(1, (F(1, 3),), OPEN), Cut(1, (F(0),), OPEN))
    x = adapter.class_of(a)
    [sq] = adapter.row(x, [x])
    assert sq == adapter.class_of(tup(Cut(1, (F(2, 3),), OPEN), Cut(1, (F(0),), OPEN)))
    j = adapter.idempotent_of(x)
    assert adapter.row(j, [j, x]) == [j, x]
    assert adapter.row(x, []) == []
    # classes are named by the literal of their representative tuple
    assert P.tuple_from_json(M_DD, json.loads(adapter.describe(x))) == P.tuple_of_class(x)


def test_a_product_fault_planted_between_commands_is_caught(monkeypatch):
    # No class product outlives its command, so a side-rule fault planted
    # after a clean command reaches the next command's Cayley-table
    # oracle; only that oracle catches this fault on this spec.
    kind, model = load_model(json.dumps({"kind": "pruefer_fc", "valuations": [["Z"], ["Z", "Q"]]}))
    assert cmd_verify(kind, model, 10, 1, None)["passed"]
    side = C._product_side

    def deeper(a_level, a_side, b_level, b_side):
        if a_level == b_level:
            return side(a_level, a_side, b_level, b_side)
        return a_side if a_level > b_level else b_side
    monkeypatch.setattr(C, "_product_side", deeper)
    reports = {c["name"]: c for c in cmd_verify(kind, model, 10, 1, None)["checks"]}
    assert not reports["semigroup_cross_check"]["passed"]


@given(st.sampled_from(sorted(MODELS)), seeds)
def test_tuple_mul_laws(name, seed):
    model = MODELS[name]
    r = random.Random(seed)
    a, b, c = (random_tuple(r, model) for _ in range(3))
    assert P.mul(model, a, b) == P.mul(model, b, a)
    assert P.mul(model, P.mul(model, a, b), c) == P.mul(model, a, P.mul(model, b, c))


@given(st.sampled_from(sorted(MODELS)), seeds)
def test_class_model_mul_is_the_tuple_product(name, seed):
    # The reference is the tuple path: both reps as tuples, their product,
    # its t-closure and its class.
    model = MODELS[name]
    adapter = P.PrueferClassModel(model, P.tuple_to_json)
    r = random.Random(seed)
    x, *ys = (P.class_of(model, random_tuple(r, model)) for _ in range(4))
    want = [P.class_of(model, P.t_closure(model, P.mul(
        model, P.tuple_of_class(x), P.tuple_of_class(y)))) for y in ys]
    assert adapter.row(x, ys) == want
