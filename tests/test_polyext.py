"""Polynomial extensions V[X] over extended ideal classes."""

from fractions import Fraction as F

import pytest

from conftest import GROUPS, random_element
from tclass import CLOSED, OPEN, Cut, Q, ValueGroup, Z, Zloc
from tclass import cuts as C
from tclass import polyext as X
from tclass.groups import is_strongly_discrete
from tclass.sampling import random_cut

QQ = ValueGroup((Q,))
DY = GROUPS["Zhalf"]


def model(*comps):
    return X.PolyExtModel(ValueGroup(comps))


def overring(level):
    """The form of V_p[X], p the prime at `level`."""
    return C.IdempotentForm(C.OverringSpec((level,)), frozenset())


def max_class(level):
    """The form of p[X], p the idempotent prime at `level`."""
    return C.IdempotentForm(C.OverringSpec((level,)), frozenset({0}))


def trivial(m, form):
    return X.group_description(m.base, form).startswith("trivial")


def t_idempotent_primes(m):
    """Levels of the p[X] in the decomposition: its maximal ideal forms."""
    return [f.overring.levels[0] for f in X.decompose(m.base) if f.open_components]


def test_t_idempotent_primes_frozen_examples():
    assert t_idempotent_primes(model(Z, Z, Z)) == []
    assert t_idempotent_primes(X.PolyExtModel(QQ)) == [1]
    assert t_idempotent_primes(model(Z, Zloc(2))) == [2]


def test_t_idempotent_primes_empty_iff_strongly_discrete(group):
    m = X.PolyExtModel(group)
    assert (t_idempotent_primes(m) == []) == is_strongly_discrete(group)


def classify(m, a):
    """The idempotent of the extended class of coefficient cut a."""
    return C.classify_idempotent(m.base, C.class_of(m.base, a).rep)


def test_classify_examples():
    assert classify(X.PolyExtModel(QQ), Cut(1, (F(0),), OPEN)) == max_class(1)
    mzz = model(Z, Z)
    assert classify(mzz, Cut(2, (F(1), F(2)), CLOSED)) == overring(2)
    assert classify(mzz, Cut(1, (F(1),), CLOSED)) == overring(1)


def test_classify_commutes_with_base_classification(group, rng):
    m = X.PolyExtModel(group)
    for _ in range(30):
        a = random_cut(rng, group)
        assert classify(m, a) == C.classify_idempotent(group, a)


def test_extended_class_mod_principal_shifts(group, rng):
    m = X.PolyExtModel(group)
    for _ in range(20):
        a = random_cut(rng, group)
        shift = random_element(rng, group)
        assert C.class_of(m.base, C.translate(group, a, shift)) == C.class_of(m.base, a)


def test_decompose_strongly_discrete_counts():
    for n in (1, 2, 3):
        m = model(*([Z] * n))
        d = X.decompose(m.base)
        assert d == [overring(level) for level in range(1, n + 1)]
        assert all(trivial(m, f) for f in d)
    assert X.SCOPE == "extended classes"


def test_decompose_dense_rank_one():
    m = X.PolyExtModel(QQ)
    assert X.decompose(m.base) == [overring(1), max_class(1)]
    assert trivial(m, overring(1))
    assert not trivial(m, max_class(1))


def test_decompose_mixed_tower():
    d = X.decompose(model(Z, Zloc(3)).base)
    assert d == [overring(1), overring(2), max_class(2)]


def test_group_law_representable_part():
    m = X.PolyExtModel(DY)
    pm = C.ValuationClassModel(m.base)
    third = C.class_of(m.base, Cut(1, (F(1, 3),), OPEN))
    two_thirds = C.class_of(m.base, Cut(1, (F(2, 3),), OPEN))
    identity = C.class_of(m.base, Cut(1, (F(0),), OPEN))
    assert pm.mul(third, two_thirds) == identity
    assert pm.idempotent_of(third) == identity
    assert pm.mul(identity, identity) == identity
    assert pm.mul(third, third) != third


def test_model_rejects_trivial_base():
    with pytest.raises(ValueError):
        ValueGroup(())


def test_sym_json_round_trip(group, rng):
    # The literal names an extended class; it reads back as the class rep.
    m = X.PolyExtModel(group)
    for _ in range(10):
        s = C.class_of(m.base, random_cut(rng, group))
        assert X.sym_from_json(group, X.sym_to_json(s.rep)) == s.rep
        assert C.class_of(m.base, X.sym_from_json(group, X.sym_to_json(s.rep))) == s


def test_sym_json_diagnostics():
    with pytest.raises(C.MalformedCutError, match="coeff"):
        X.sym_from_json(QQ, {"ideal": {}})
    with pytest.raises(C.MalformedCutError):
        X.sym_from_json(QQ, {"coeff": {"level": 2, "boundary": ["0", "0"], "side": "open"}})
