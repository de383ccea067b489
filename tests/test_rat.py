"""The kernel's rational `cuts.Rat` against `Fraction`: every operator it
runs on its slots gives `Fraction`'s value, a result is an `int` exactly
when it is integral, and a `Rat` hashes and prints as its `Fraction`."""

import operator
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tclass.cuts import Rat

fractions = st.builds(F, st.integers(-24, 24), st.integers(1, 12))
# A `Rat` operand: non-integral, so never an `int`.
rats = fractions.filter(lambda q: q.denominator > 1).map(Rat)
# What a `Rat` meets: an `int`, a `Rat` (an `int` when integral), a plain `Fraction`.
operands = st.one_of(st.integers(-24, 24), fractions.map(Rat), fractions)

BINARY = (operator.add, operator.sub, operator.eq, operator.ne,
          operator.lt, operator.gt, operator.le, operator.ge)


def assert_built(got, want: F, plain: bool):
    """`got` has `want`'s value; it is a plain `Fraction` when a plain
    `Fraction` took part, else an `int` exactly when it is integral."""
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    if plain:
        assert type(got) is F
    else:
        assert type(got) is (int if want.denominator == 1 else Rat)


@given(rats, operands)
def test_operators_agree_with_fraction(x, y):
    assert type(x) is Rat
    for a, b in ((x, y), (y, x)):
        for op in BINARY:
            got, want = op(a, b), op(F(a), F(b))
            if isinstance(want, bool):
                assert got is want, (op, a, b)
            else:
                assert_built(got, want, type(y) is F)


@given(rats)
def test_unary_operators_hash_and_text_agree_with_fraction(x):
    assert_built(-x, -F(x), False)
    assert bool(x) is bool(F(x)) is True
    assert hash(x) == hash(F(x))
    assert str(x) == str(F(x))
    assert (x.numerator, x.denominator) == (F(x).numerator, F(x).denominator)


@given(st.integers(-50, 50), st.integers(-12, 12).filter(bool))
def test_a_rat_of_an_integral_value_is_an_int(n, d):
    want = F(n, d)
    for got in (Rat(n, d), Rat(str(want)), Rat(want)):
        assert_built(got, want, False)


def test_a_rat_refuses_what_fraction_refuses():
    with pytest.raises(ZeroDivisionError):
        Rat(1, 0)
    with pytest.raises(ValueError):
        Rat("1/2/3")
