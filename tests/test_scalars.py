"""Exact scalar arithmetic: field laws, canonical forms, text grammar."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittmod.scalars import (
    A1,
    A2,
    B,
    C,
    IOTA,
    L,
    ONE,
    ZERO,
    ParamPolynomial,
    Scalar,
    ScalarParseError,
    coeff_is_zero,
    coeff_to_text,
    factor_linear_in_iota,
    factor_polynomial,
    parse_rational,
    parse_scalar,
    poly_exact_div,
    poly_gcd,
    scalar_to_text,
)

DESK = {
    "l": Fraction(1, 7),
    "b": Fraction(1, 11),
    "c": Fraction(1, 13),
    "a1": Fraction(1, 17),
    "a2": Fraction(1, 19),
    "iota": Fraction(0),
}


# -- pinned arithmetic ---------------------------------------------------


def test_add_cancels_symbol():
    assert (C + L) + (C - L) == 2 * C


def test_rational_sum():
    x = Scalar.from_rational(Fraction(1, 7)) + Scalar.from_rational(Fraction(1, 11))
    assert x == Scalar.from_rational(Fraction(18, 77))
    assert x.const_value() == Fraction(18, 77)


def test_difference_of_squares():
    assert (C + L) * (C - L) == C * C - L * L


def test_inverse_roundtrip():
    x = (C + L) / (A1 - B)
    assert x * x.inv() == ONE
    assert ONE / x == x.inv()


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()
    with pytest.raises(ZeroDivisionError):
        ONE / (C - C)


def test_subtraction_and_negation():
    assert C - C == ZERO
    assert -(C - L) == L - C
    assert not (C - C)
    assert bool(C)


def test_pow_negative_exponent():
    x = (C + ONE) ** -2
    assert x * (C + ONE) ** 2 == ONE


def test_canonical_den_is_monic():
    # 1/(2c) must store den with leading coefficient 1
    x = ONE / (2 * C)
    assert x.den.leading_coeff() == Fraction(1)
    assert x == Scalar.from_rational(Fraction(1, 2)) / C


def test_gcd_cancellation_in_constructor():
    num = (C + L) * (A1 - B)
    den = (C + L) * (A2 + B)
    x = Scalar(num.num, den.num)
    assert x.num == (A1 - B).num
    assert x.den == (A2 + B).num


def test_gcd_is_monic():
    # the gcd with zero is the other argument made monic, not 2*c
    assert poly_gcd(ZERO.num, (-2 * C).num) == C.num
    assert poly_gcd(ZERO.num, ZERO.num) == ZERO.num
    assert poly_gcd(Scalar.from_rational(6).num, Scalar.from_rational(4).num) == ONE.num


def test_gcd_of_iota_linear_factor():
    f = IOTA * C + B
    g = poly_gcd(f.num, (f * (C - IOTA)).num)
    assert g == f.num
    assert scalar_to_text(Scalar(g)) == "c*iota + b"


def test_exact_division_contract():
    f = (C + L) * (A1 - B)
    assert poly_exact_div(f.num, (C + L).num) == (A1 - B).num
    with pytest.raises(ValueError):
        poly_exact_div(f.num, (C + B).num)
    with pytest.raises(ZeroDivisionError):
        poly_exact_div(f.num, ZERO.num)


# -- evaluation ----------------------------------------------------------


def test_evaluate_desk_point():
    assert (C + L).evaluate(DESK) == Fraction(20, 91)


def test_evaluate_missing_symbol():
    with pytest.raises(KeyError):
        (C + L).evaluate({"c": Fraction(1, 13)})


def test_evaluate_pole():
    x = ONE / (C - Fraction(1, 13))
    with pytest.raises(ZeroDivisionError):
        x.evaluate(DESK)


# -- printing and parsing ------------------------------------------------


def test_text_examples():
    assert scalar_to_text(C + 3 * B - 3) == "c + 3*b - 3"
    assert scalar_to_text(ZERO) == "0"
    assert scalar_to_text((C + L) / (A1 - B - L)) == "(c + l)/(a1 - b - l)"
    assert scalar_to_text(Scalar.from_rational(Fraction(-5, 7))) == "-5/7"


def test_parse_examples():
    assert parse_scalar("c + 3*b - 3") == C + 3 * B - 3
    assert parse_scalar("(c+l)/(a1-b-l)") == (C + L) / (A1 - B - L)
    assert parse_scalar("l^2 - 2*l + 1") == (L - 1) * (L - 1)
    assert parse_scalar("-5/7") == Scalar.from_rational(Fraction(-5, 7))
    assert parse_scalar("iota") == IOTA


def test_parse_rejects_garbage():
    for bad in ("c +", "(c", "c ** 2", "q + 1", "1/0", ""):
        with pytest.raises(ScalarParseError):
            parse_scalar(bad)


def test_parse_error_carries_position():
    try:
        parse_scalar("c + $")
    except ScalarParseError as exc:
        assert exc.pos == 4
    else:
        raise AssertionError("expected a parse error")


def test_parse_rational():
    assert parse_rational(" -3/4 ") == Fraction(-3, 4)
    with pytest.raises(ValueError):
        parse_rational("3/0")
    with pytest.raises(ValueError):
        parse_rational("x")


def test_coeff_helpers():
    assert coeff_to_text(Fraction(2, 3)) == "2/3"
    assert coeff_to_text(C + L) == "c + l"
    assert coeff_is_zero(Fraction(0))
    assert coeff_is_zero(ZERO)
    assert not coeff_is_zero(C)


# -- factorization -------------------------------------------------------


def test_factor_linear_in_iota_basic():
    x = (C + IOTA) * (A1 - B - IOTA)
    fac = factor_linear_in_iota(x)
    assert fac is not None
    got = {(scalar_to_text(zeta), sign) for zeta, sign in fac.factors}
    assert got == {("c", 1), ("a1 - b", -1)}
    assert fac.product() == x


def test_factor_linear_in_iota_none_for_quadratic():
    # iota^2 + c is irreducible over the parameter field
    assert factor_linear_in_iota(IOTA * IOTA + C) is None


def test_factor_linear_in_iota_iota_free():
    fac = factor_linear_in_iota(C + 3 * B)
    assert fac is not None
    assert fac.factors == ()
    assert fac.unit == C + 3 * B


def test_factor_polynomial_quadratic():
    unit, factors = factor_polynomial((C + L) * (C - L) * 6)
    assert unit == Scalar.from_rational(6)
    assert {scalar_to_text(f) for f, _ in factors} == {"c + l", "c - l"}
    assert all(m == 1 for _, m in factors)


def test_factor_polynomial_with_multiplicity():
    unit, factors = factor_polynomial((C - 1) ** 3)
    assert unit == ONE
    assert factors == ((C - 1, 3),)


def test_factor_polynomial_rejects_quotients():
    with pytest.raises(ValueError):
        factor_polynomial(ONE / C)


# -- property tests ------------------------------------------------------

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=5
)

atoms = st.sampled_from([L, B, C, A1, A2, IOTA]) | rationals.map(
    Scalar.from_rational
)


def _combine(children):
    return (
        st.tuples(children, children).map(lambda p: p[0] + p[1])
        | st.tuples(children, children).map(lambda p: p[0] * p[1])
        | children.map(lambda x: -x)
    )


scalars = st.recursive(atoms, _combine, max_leaves=6)


@settings(max_examples=60, deadline=None)
@given(scalars, scalars, scalars)
def test_field_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x
    assert x - x == ZERO


@settings(max_examples=60, deadline=None)
@given(scalars)
def test_inverse_axiom(x):
    if not x.is_zero():
        assert x * x.inv() == ONE


@settings(max_examples=60, deadline=None)
@given(scalars, scalars)
def test_evaluate_is_homomorphism(x, y):
    try:
        vx, vy = x.evaluate(DESK), y.evaluate(DESK)
    except ZeroDivisionError:
        return  # pole at the desk point; nothing to compare
    assert (x + y).evaluate(DESK) == vx + vy
    assert (x * y).evaluate(DESK) == vx * vy


@settings(max_examples=40, deadline=None)
@given(scalars, scalars)
def test_quotient_stays_reduced(x, y):
    if y.is_zero():
        return
    q = x / y
    if q.is_zero():
        assert q.den == ParamPolynomial.const(1)
        return
    g = poly_gcd(q.num, q.den)
    assert g.is_const()


@settings(max_examples=60, deadline=None)
@given(scalars)
def test_text_roundtrip(x):
    assert parse_scalar(scalar_to_text(x)) == x
