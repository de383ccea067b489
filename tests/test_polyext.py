"""Polynomial extensions V[X] over extended ideal classes."""

from fractions import Fraction as F

import pytest

from conftest import GROUPS
from tclass import CLOSED, OPEN, Cut, Q, ValueGroup, Z, Zloc
from tclass import cuts as C
from tclass import polyext as X
from tclass.groups import is_strongly_discrete
from tclass.sampling import random_cut, random_element

QQ = ValueGroup((Q,))
DY = GROUPS["Zhalf"]


def model(*comps):
    return X.PolyExtModel(ValueGroup(comps))


def test_t_idempotent_primes_frozen_examples():
    assert X.t_idempotent_primes(model(Z, Z, Z)) == []
    assert X.t_idempotent_primes(X.PolyExtModel(QQ)) == [1]
    assert X.t_idempotent_primes(model(Z, Zloc(2))) == [2]


def test_t_idempotent_primes_empty_iff_strongly_discrete(group):
    m = X.PolyExtModel(group)
    assert (X.t_idempotent_primes(m) == []) == is_strongly_discrete(group)


def test_classify_examples():
    mq = X.PolyExtModel(QQ)
    assert X.classify(mq, X.extended_class(mq, Cut(1, (F(0),), OPEN))) == X.IdempotentMaxClass(1)
    mzz = model(Z, Z)
    principal = X.extended_class(mzz, Cut(2, (F(1), F(2)), CLOSED))
    assert X.classify(mzz, principal) == X.TLinkedOverring(2)
    height_one = X.extended_class(mzz, Cut(1, (F(1),), CLOSED))
    assert X.classify(mzz, height_one) == X.TLinkedOverring(1)


def test_classify_commutes_with_base_classification(group, rng):
    m = X.PolyExtModel(group)
    for _ in range(30):
        a = random_cut(rng, group)
        form = C.classify_idempotent(group, a)
        lifted = X.classify(m, X.extended_class(m, a))
        assert lifted.prime_level == form.overring.levels[0]
        if form.variant == "max_ideals":
            assert isinstance(lifted, X.IdempotentMaxClass)
        else:
            assert isinstance(lifted, X.TLinkedOverring)


def test_extended_class_mod_principal_shifts(group, rng):
    m = X.PolyExtModel(group)
    for _ in range(20):
        a = random_cut(rng, group)
        shift = random_element(rng, group)
        assert X.extended_class(m, C.translate(group, a, shift)) == X.extended_class(m, a)


def test_decompose_strongly_discrete_counts():
    for n in (1, 2, 3):
        d = X.decompose(model(*([Z] * n)))
        assert len(d.idempotents) == n
        assert all(g.trivial for g in d.groups)
        assert d.scope == "extended classes"


def test_decompose_dense_rank_one():
    d = X.decompose(X.PolyExtModel(QQ))
    assert len(d.idempotents) == 2
    assert X.TLinkedOverring(1) in d.idempotents
    assert X.IdempotentMaxClass(1) in d.idempotents
    by_idem = dict(zip(d.idempotents, d.groups))
    assert by_idem[X.TLinkedOverring(1)].trivial
    assert not by_idem[X.IdempotentMaxClass(1)].trivial
    assert all(g.scope == "extended classes" for g in d.groups)


def test_decompose_mixed_tower():
    d = X.decompose(model(Z, Zloc(3)))
    assert len(d.idempotents) == 3
    assert X.IdempotentMaxClass(2) in d.idempotents


def test_group_law_representable_part():
    m = X.PolyExtModel(DY)
    pm = X.PolyClassModel(m)
    third = X.extended_class(m, Cut(1, (F(1, 3),), OPEN))
    two_thirds = X.extended_class(m, Cut(1, (F(2, 3),), OPEN))
    identity = X.extended_class(m, Cut(1, (F(0),), OPEN))
    assert pm.mul(third, two_thirds) == identity
    assert pm.idempotent_of(third) == identity
    assert pm.mul(identity, identity) == identity
    assert pm.mul(third, third) != third


def test_model_rejects_trivial_base():
    with pytest.raises(ValueError):
        ValueGroup(())


def test_sym_json_round_trip(group, rng):
    m = X.PolyExtModel(group)
    for _ in range(10):
        s = X.extended_class(m, random_cut(rng, group))
        assert X.sym_from_json(m, X.sym_to_json(s)) == s


def test_sym_json_diagnostics():
    m = X.PolyExtModel(QQ)
    with pytest.raises(C.MalformedCutError, match="coeff"):
        X.sym_from_json(m, {"ideal": {}})
    with pytest.raises(C.MalformedCutError):
        X.sym_from_json(m, {"coeff": {"level": 2, "boundary": ["0", "0"], "side": "open"}})


def test_poly_class_model_describe():
    m = X.PolyExtModel(QQ)
    pm = X.PolyClassModel(m)
    s = X.extended_class(m, Cut(1, (F(0),), OPEN))
    assert isinstance(pm.describe(s), str)
    assert pm.class_of(s) == s
