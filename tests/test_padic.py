"""Digit arithmetic, norms, and value-group rounding."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultrapoly import (
    GAMMA_ZERO,
    GammaValue,
    NotPrimeError,
    PAdic,
    PrimeMismatchError,
    round_to_gamma,
)

from oracles import gamma_floor, schoolbook_add, trial_division_valuation


# ---------------------------------------------------------------- addition

def test_add_forces_carry():
    a = PAdic.from_int(1, 3, 6)
    b = PAdic.from_int(2, 3, 6)
    s = a + b
    assert s.valuation == 1
    assert s.digits[0] == 1
    assert all(d == 0 for d in s.digits[1:])


def test_add_zero_is_identity():
    a = PAdic.from_int(7, 5, 8)
    z = PAdic.zero(5, 8)
    assert a + z == a
    assert z + a == a


def test_add_all_ones_cancels_to_zero_at_precision():
    # 111111_2 + 1 = 2^6: every digit of the shared window vanishes
    a = PAdic(2, 0, (1, 1, 1, 1, 1, 1), 6)
    b = PAdic.from_int(1, 2, 6)
    expected = schoolbook_add(list(a.digits), 0, list(b.digits), 0, 2)
    assert expected is None
    s = a + b
    assert s.is_zero
    assert s.precision == 6
    assert s.norm().is_zero


def test_add_prime_mismatch():
    with pytest.raises(PrimeMismatchError):
        PAdic.from_int(1, 2, 4) + PAdic.from_int(1, 3, 4)


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    va=st.integers(-3, 3),
    vb=st.integers(-3, 3),
    raw_a=st.lists(st.integers(0, 4), min_size=1, max_size=6),
    raw_b=st.lists(st.integers(0, 4), min_size=1, max_size=6),
)
def test_add_matches_schoolbook_and_strong_triangle(p, va, vb, raw_a, raw_b):
    da = [d % p for d in raw_a]
    db = [d % p for d in raw_b]
    if da[0] % p == 0:
        da[0] = 1
    if db[0] % p == 0:
        db[0] = 1
    a = PAdic(p, va, tuple(da), len(da))
    b = PAdic(p, vb, tuple(db), len(db))
    s = a + b
    expected = schoolbook_add(da, va, db, vb, p)
    if expected is None:
        assert s.is_zero
    else:
        digits, valuation = expected
        assert s.valuation == valuation
        assert list(s.digits) == digits
    assert s.norm() <= max(a.norm(), b.norm())


# ------------------------------------------------------------------- norms

def test_norm_of_25_base_5():
    x = PAdic.from_int(25, 5, 6)
    assert trial_division_valuation(25, 1, 5) == 2
    assert x.norm() == GammaValue(2)
    assert x.norm().as_fraction(5) == Fraction(1, 25)


def test_norm_of_one_third_base_3():
    x = PAdic.from_fraction(Fraction(1, 3), 3, 6)
    assert trial_division_valuation(1, 3, 3) == -1
    assert x.norm() == GammaValue(-1)
    assert x.norm().as_fraction(3) == Fraction(3)


def test_norm_of_zero_is_infinity():
    assert PAdic.zero(7, 4).norm().is_zero


def test_from_fraction_unit_denominator():
    # 1/2 in Z_3: digits of the inverse of 2 mod 3^4
    x = PAdic.from_fraction(Fraction(1, 2), 3, 4)
    assert x.valuation == 0
    assert (x.unit_int() * 2) % 3**4 == 1


def test_negative_integer_expansion():
    x = PAdic.from_int(-1, 3, 5)
    assert x.digits == (2, 2, 2, 2, 2)
    assert (x + PAdic.from_int(1, 3, 5)).is_zero


# --------------------------------------------------------------- rounding

def test_round_seven_tenths_base_2():
    assert gamma_floor(Fraction(7, 10), 2) == 1
    assert round_to_gamma(Fraction(7, 10), 2) == GammaValue(1)
    assert round_to_gamma("0.7", 2) == GammaValue(1)


def test_round_zero_is_infinity():
    for p in (2, 3, 5):
        assert round_to_gamma(0, p).is_zero


def test_round_fixes_value_group_members():
    assert round_to_gamma(Fraction(1, 27), 3) == GammaValue(3)
    assert round_to_gamma(Fraction(9), 3) == GammaValue(-2)


def test_round_rejects_negative():
    with pytest.raises(ValueError):
        round_to_gamma(Fraction(-1, 2), 2)


@settings(max_examples=400, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    num=st.integers(1, 10**6),
    den=st.integers(1, 10**6),
)
def test_round_sandwich_and_oracle(p, num, den):
    r = Fraction(num, den)
    g = round_to_gamma(r, p)
    assert g.exponent == gamma_floor(r, p)
    value = g.as_fraction(p)
    assert value <= r <= p * value
    # idempotence on the value group
    assert round_to_gamma(value, p) == g


# ------------------------------------------------------------- GammaValue

def test_gamma_order_matches_real_order():
    values = [GammaValue(e) for e in range(-3, 4)] + [GAMMA_ZERO]
    for a in values:
        for b in values:
            assert (a < b) == (a.as_fraction(3) < b.as_fraction(3))
    assert min(values) == GAMMA_ZERO


def test_gamma_json_roundtrip():
    for g in (GammaValue(5), GammaValue(-2), GAMMA_ZERO):
        assert GammaValue.from_json(g.to_json()) == g
    assert GAMMA_ZERO.to_json() == "INF"


def test_gamma_scaling():
    assert GammaValue(3).scaled(2) == GammaValue(1)
    assert GAMMA_ZERO.scaled(-4).is_zero


# ------------------------------------------------------------ validation

def test_prime_is_checked():
    with pytest.raises(NotPrimeError):
        PAdic.from_int(1, 6, 4)
    with pytest.raises(NotPrimeError):
        round_to_gamma(Fraction(1, 2), 9)


def test_digit_invariants_enforced():
    with pytest.raises(ValueError):
        PAdic(3, 0, (0, 1, 1), 3)  # leading digit zero
    with pytest.raises(ValueError):
        PAdic(3, 0, (1, 3, 0), 3)  # digit out of range
    with pytest.raises(ValueError):
        PAdic(3, 0, (1, 1), 3)  # window size mismatch


def test_text_form():
    assert PAdic.from_int(10, 3, 3).to_text() == "p:3 v:0 d:1,0,1"
    assert PAdic.zero(3, 3).to_text() == "p:3 v:- d:0"
