"""Exact scalar arithmetic: ring laws, canonical forms, text printer."""

import copy
import pickle
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations
from sympy.polys.rings import PolyElement

from wittmod import scalars as scalars_module
from wittmod.engine import Window, gt_obstruction, recursion_factorization_oracle
from wittmod.report import canonical_json
from wittmod.scalars import (
    A1,
    A2,
    B,
    C,
    IOTA,
    L,
    ONE,
    SYMBOLS,
    ZERO,
    ParamPolynomial,
    Scalar,
    add_term,
    coeff_is_zero,
    coeff_to_text,
    common_denominator,
    factor_linear_in_iota,
    factor_polynomial,
    lowest_terms,
    parse_rational,
    poly_gcd,
    poly_to_text,
    scalar_to_text,
    scaled_int,
    shift_symbols,
)
from wittmod.sl3 import Params

# -- pinned arithmetic ---------------------------------------------------


def test_add_cancels_symbol():
    assert (C + L) + (C - L) == 2 * C


def test_rational_sum():
    x = Scalar.from_rational(Fraction(1, 7)) + Scalar.from_rational(Fraction(1, 11))
    assert x == Scalar.from_rational(Fraction(18, 77))
    assert x.const_value() == Fraction(18, 77)


def test_difference_of_squares():
    assert (C + L) * (C - L) == C * C - L * L


def test_division_by_zero_or_by_a_non_constant_is_refused():
    # a Scalar is a polynomial over an integer: its quotients are by
    # nonzero constants only, and a negative power is refused
    assert (2 * C + 4) / 6 == (C + 2) / 3 == C / 3 + Fraction(2, 3)
    with pytest.raises(ZeroDivisionError):
        ONE / (C - C)
    for make in (
        lambda: ONE / C,
        lambda: (C + L) / (A1 - B),
    ):
        with pytest.raises(ValueError, match="is not constant"):
            make()
    # the denominator is an int: a polynomial, even a constant one, is refused
    for den in ((2 * C).num, ParamPolynomial.const(2), Fraction(2)):
        with pytest.raises(ValueError, match="is not an int"):
            Scalar(ONE.num, den)
    with pytest.raises(ValueError, match="negative power"):
        (C + ONE) ** -2


def test_subtraction_and_negation():
    assert C - C == ZERO
    assert -(C - L) == L - C
    assert not (C - C)
    assert bool(C)


def test_canonical_den_keeps_the_integer_content():
    # lowest_terms(1, 2c) keeps den 2c: the content 2 stays with den,
    # whose leading coefficient is positive
    assert lowest_terms(ONE.num, (2 * C).num) == (ONE.num, (2 * C).num)
    assert lowest_terms(ONE.num, (-2 * C).num) == ((-ONE).num, (2 * C).num)
    assert lowest_terms((3 * C).num, (6 * C * B).num) == (ONE.num, (2 * B).num)
    half = Scalar.from_rational(Fraction(-1, 2))
    assert (half.num, half.den) == ((-ONE).num, 2)
    assert scalar_to_text(C / -2) == "-1/2*c"


def test_gcd_cancellation_in_constructor():
    # the constructor cancels the integer gcd of num's content and den;
    # a polynomial gcd is cancelled by lowest_terms only
    x = Scalar((6 * C + 4 * L).num, -4)
    assert (x.num, x.den) == ((-3 * C - 2 * L).num, 2)
    num = (C + L) * (A1 - B)
    den = (C + L) * (A2 + B)
    assert lowest_terms(num.num, den.num) == ((A1 - B).num, (A2 + B).num)


def test_gcd_keeps_the_integer_content():
    # the gcd in Z[symbols]: the gcd with zero is the other argument with
    # a positive leading coefficient, and integer contents have a gcd too
    assert poly_gcd(ZERO.num, (-2 * C).num) == (2 * C).num
    assert poly_gcd(ZERO.num, ZERO.num) == ZERO.num
    assert poly_gcd(Scalar.from_rational(6).num, Scalar.from_rational(4).num) == (2 * ONE).num
    assert poly_gcd((6 * C).num, (-4 * C * C).num) == (2 * C).num


def test_gcd_of_iota_linear_factor():
    f = IOTA * C + B
    g = poly_gcd(f.num, (f * (C - IOTA)).num)
    assert g == f.num
    assert scalar_to_text(Scalar(g)) == "c*iota + b"


# -- printing ------------------------------------------------------------


def test_text_examples():
    assert scalar_to_text(C + 3 * B - 3) == "c + 3*b - 3"
    assert scalar_to_text(ZERO) == "0"
    assert scalar_to_text((C + L) / 2) == "1/2*c + 1/2*l"
    assert scalar_to_text(Scalar.from_rational(Fraction(-5, 7))) == "-5/7"


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


def test_common_denominator():
    # the lcm of the denominators; 1 once a value is symbolic, so symbolic
    # inputs are never scaled
    assert common_denominator([Fraction(1, 6), Fraction(3, 4), 5]) == 12
    assert common_denominator([]) == 1
    assert common_denominator([Fraction(1, 2), L + C]) == 1
    assert common_denominator([Fraction(1, 2), ONE]) == 1


def test_scaled_int():
    # scale * v as an int; a denominator left over, a Scalar or a float is refused
    assert scaled_int(5) == 5 and type(scaled_int(5)) is int
    assert scaled_int(-4, 3) == -12
    assert scaled_int(Fraction(3, 4), 8) == 6 and type(scaled_int(Fraction(3, 4), 8)) is int
    assert scaled_int(Fraction(3, 4), -4) == -3
    assert scaled_int(Fraction(-5, 6), 12) == -10
    assert scaled_int(Fraction(6, 1)) == 6
    for v, scale in ((Fraction(1, 6), 4), (Fraction(-5, 6), 9), (Fraction(1, 2), 1)):
        with pytest.raises(ValueError, match="not an integer"):
            scaled_int(v, scale)
    for v in (L + C, ONE, 0.5):
        with pytest.raises(ValueError, match="cannot be scaled"):
            scaled_int(v, 6)


@pytest.mark.parametrize("val", [Fraction(2, 3), C + L], ids=["fraction", "scalar"])
def test_add_term_drops_a_key_whose_sum_is_zero(val):
    out = {"kept": val}
    add_term(out, "k", val)
    add_term(out, "k", val)
    assert out == {"kept": val, "k": val + val}
    add_term(out, "k", -(val + val))
    assert out == {"kept": val}
    add_term(out, "new", val - val)
    assert out == {"kept": val}


@pytest.mark.parametrize(
    "val",
    [3, Fraction(1, 7), Scalar.sym("b")],
    ids=["int", "fraction", "scalar"],
)
def test_add_term_tests_zero_by_truth_for_each_coefficient_type(val):
    # 3 - 3, 1/7 - 1/7 and b - b leave no key; a nonzero sum stays
    out = {}
    add_term(out, "k", val)
    assert out == {"k": val}
    add_term(out, "k", -val)
    assert out == {}
    add_term(out, "k", val)
    add_term(out, "k", val)
    assert out == {"k": val + val} and out["k"]


# -- factorization -------------------------------------------------------


def _multiply_back(unit, pairs):
    p = unit
    for zeta, sign in pairs:
        p = p * (zeta + IOTA if sign > 0 else zeta - IOTA)
    return p


def test_factor_linear_in_iota_basic():
    x = (C + IOTA) * (A1 - B - IOTA)
    fac = factor_linear_in_iota(x)
    assert fac is not None
    unit, pairs = fac
    got = {(scalar_to_text(zeta), sign) for zeta, sign in pairs}
    assert got == {("c", 1), ("a1 - b", -1)}
    assert _multiply_back(unit, pairs) == x


def test_factor_linear_in_iota_none_for_quadratic():
    # iota^2 + c is irreducible over the parameter field
    assert factor_linear_in_iota(IOTA * IOTA + C) is None


def test_factor_linear_in_iota_iota_free():
    fac = factor_linear_in_iota(C + 3 * B)
    assert fac is not None
    unit, pairs = fac
    assert pairs == ()
    assert unit == C + 3 * B


# pairs REFUSED: the factor's iota coefficient (given as unit) is not
# constant, so it has no split into Scalars
REFUSED = object()


# outputs recorded before factor_linear_in_iota was read off factor_polynomial
@pytest.mark.parametrize(
    "x, unit, pairs",
    [
        ((C * IOTA + B) * (A1 - B - IOTA), "c", REFUSED),
        (3 * (C + IOTA) ** 2 * (L - IOTA), "3", [("l", -1), ("c", 1), ("c", 1)]),
        (IOTA * (B - IOTA), "1", [("0", 1), ("b", -1)]),
        (ZERO, "0", []),
        (Scalar.from_rational(5), "5", []),
        # recorded before the integer content moved into den: factors
        # with an integer leading coefficient in iota
        ((2 * IOTA + C) * (3 * IOTA - L), "-6", [("1/3*l", -1), ("1/2*c", 1)]),
    ],
)
def test_factor_linear_in_iota_pinned(x, unit, pairs):
    if pairs is REFUSED:
        with pytest.raises(ValueError, match=rf"{unit}\*iota \+ b has a non-constant iota coefficient"):
            factor_linear_in_iota(x)
        return
    got_unit, got_pairs = factor_linear_in_iota(x)
    assert scalar_to_text(got_unit) == unit
    assert [(scalar_to_text(zeta), sign) for zeta, sign in got_pairs] == pairs
    assert not got_unit.num.degree_in("iota") and type(got_unit.den) is int
    assert _multiply_back(got_unit, got_pairs) == x


def test_factor_linear_in_iota_rejects_quotients():
    # no quotient by a non-constant can be formed to be factored; one by
    # a constant factors
    with pytest.raises(ValueError, match="denominator c is not constant"):
        ONE / C
    unit, pairs = factor_linear_in_iota((C + IOTA) / 2)
    assert scalar_to_text(unit) == "1/2"
    assert [(scalar_to_text(zeta), sign) for zeta, sign in pairs] == [("c", 1)]


def test_factorization_takes_one_route(monkeypatch):
    # factoring and the oracle's reduction peel linear forms in
    # ParamPolynomial arithmetic: no sympy factorization, gcd or cofactors
    def refuse(*args, **kwargs):
        raise AssertionError("sympy route")

    for name in ("factor_list", "gcd", "cofactors", "compose"):
        monkeypatch.setattr(PolyElement, name, refuse)
    monkeypatch.setattr(sympy, "factor_list", refuse)
    unit, factors = factor_polynomial((C + L) * (C - L) * 6)
    assert unit == Scalar.from_rational(6) and len(factors) == 2
    assert factor_linear_in_iota((C + IOTA) * (A1 - B - IOTA)) is not None
    assert shift_symbols(C * C, {"c": 1}) == C * C + 2 * C + 1
    assert recursion_factorization_oracle([1])["verdict"] == "pass"


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
    # no quotient by a non-constant can be formed to be factored; one by
    # a constant factors
    with pytest.raises(ValueError, match="denominator c is not constant"):
        ONE / C
    assert factor_polynomial((C - 1) / 3) == (Scalar.from_rational(Fraction(1, 3)), ((C - 1, 1),))


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


# each scalar drawn with its value built independently in sympy; atoms
# include symbol powers up to 4 so that every exponent form gets printed
SYMPY_SYMBOLS = {name: sympy.Symbol(name) for name in SYMBOLS}
paired_atoms = st.tuples(st.sampled_from(SYMBOLS), st.integers(1, 4)).map(
    lambda ne: (Scalar.sym(ne[0]) ** ne[1], SYMPY_SYMBOLS[ne[0]] ** ne[1])
) | rationals.map(lambda q: (Scalar.from_rational(q), sympy.Rational(q)))


def _combine_paired(children):
    return (
        st.tuples(children, children).map(lambda p: (p[0][0] + p[1][0], p[0][1] + p[1][1]))
        | st.tuples(children, children).map(lambda p: (p[0][0] * p[1][0], p[0][1] * p[1][1]))
        | children.map(lambda p: (-p[0], -p[1]))
    )


paired_scalars = st.recursive(paired_atoms, _combine_paired, max_leaves=6)


def _read_with_sympy(text: str):
    return parse_expr(
        text,
        local_dict=dict(SYMPY_SYMBOLS),
        transformations=standard_transformations + (convert_xor,),
    )


@settings(max_examples=60, deadline=None)
@given(paired_scalars, paired_scalars)
def test_text_roundtrip(num, den):
    # the printed text of a scalar, and of its quotient by a nonzero
    # constant, read back by sympy's own parser, is the value it was
    # built as
    (x, x_value), (y, y_value) = num, den
    values = [(x, x_value)]
    if y.is_const() and not y.is_zero():
        values.append((x / y, x_value / y_value))
    for value, expected in values:
        assert sympy.cancel(_read_with_sympy(scalar_to_text(value)) - expected) == 0


# -- integer coefficients and the canonical pair -----------------------------

E_C = (0, 0, 1, 0, 0, 0)  # the exponent of the monomial c


def _is_exact(p: ParamPolynomial) -> bool:
    # every coefficient an int
    return all(type(q) is int for q in p.terms.values())


@contextmanager
def recorded_polynomials():
    """Collect every polynomial built by arithmetic, scaling or the ring."""
    made = []

    def recording(fn):
        def wrapper(*args):
            out = fn(*args)
            made.append(out)
            return out

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in ("__add__", "__sub__", "__neg__", "__mul__", "scale"):
            mp.setattr(ParamPolynomial, name, recording(getattr(ParamPolynomial, name)))
        mp.setattr(scalars_module, "_from_ring", recording(scalars_module._from_ring))
        yield made


@settings(max_examples=40, deadline=None)
@given(scalars, scalars)
def test_field_operations_keep_coefficients_exact(x, y):
    with recorded_polynomials() as made:
        results = [x + y, x - y, x * y, -x, x / 3]
    made += [r.num for r in results]
    assert made and all(_is_exact(p) for p in made)
    assert all(type(r.den) is int for r in results)


def test_factorization_keeps_coefficients_exact():
    with recorded_polynomials() as made:
        factor_polynomial(Scalar.from_rational(Fraction(3, 2)) * (2 * C - 1) * (C + L))
        recursion_factorization_oracle([1])
    assert made and all(_is_exact(p) for p in made)


def test_integral_coefficients_are_stored_as_int():
    # an integral rational is admitted as an int
    assert type(ParamPolynomial({E_C: Fraction(4, 2)}).terms[E_C]) is int
    assert type(ParamPolynomial.const(Fraction(6, 3)).terms[(0,) * 6]) is int
    assert type(ParamPolynomial.symbol("c").terms[E_C]) is int
    assert ParamPolynomial.const(3).scale(Fraction(2, 1)).terms == {(0,) * 6: 6}
    # a Fraction ends up in a Scalar's denominator, never in a coefficient
    for x in ((L + 1) / 2, C / Fraction(2, 3), Fraction(-5, 7) * L, Fraction(1, 2) + C):
        assert _is_exact(x.num) and type(x.den) is int and x.den > 0
    # the ring over ZZ takes ints and gives ints back
    p = ((2 * C + 1) * (2 * L - 3)).num
    f = scalars_module._to_ring(p)
    assert all(type(q) is scalars_module._ring().domain.dtype for q in f.values())
    back = scalars_module._from_ring(f)
    assert back.terms == p.terms and _is_exact(back)
    # a rational that is not integral is refused, and a float too
    for make in (
        lambda: ParamPolynomial({E_C: Fraction(1, 2)}),
        lambda: ParamPolynomial.const(Fraction(1, 3)),
        lambda: p.scale(Fraction(1, 3)),
    ):
        with pytest.raises(ValueError, match="not an integer"):
            make()
    for make in (
        lambda: ParamPolynomial({E_C: 0.5}),
        lambda: ParamPolynomial.const(2.0),
        lambda: p.scale(1 / 3),
        lambda: Scalar.from_rational(0.5),
    ):
        with pytest.raises(TypeError):
            make()


def test_constant_scalar_values_are_fractions():
    # a polynomial's leading and constant values are int coefficients; a
    # Scalar's constant value is num/den as a Fraction, never a float
    p = (3 * C + 2).num
    assert p.leading_coeff() == 3 and type(p.leading_coeff()) is int
    assert type(ParamPolynomial.const(5).const_value()) is int
    assert ParamPolynomial().const_value() == 0
    assert type(Scalar.from_rational(3).const_value()) is Fraction
    assert Scalar.from_rational(3).const_value() == 3
    half = Scalar(ParamPolynomial.const(3), 6)
    assert type(half.const_value()) is Fraction and half.const_value() == Fraction(1, 2)
    assert (half.num, half.den) == (ONE.num, 2)


def test_int_and_fraction_coefficients_compare_equal():
    as_int = ParamPolynomial({E_C: 2})
    # an integral Fraction is admitted as the int it equals, and a product
    # of non-integral rationals can land on an integer
    as_fraction = ParamPolynomial({E_C: Fraction(2)})
    assert as_fraction == as_int and hash(as_fraction) == hash(as_int)
    assert poly_to_text(as_fraction) == poly_to_text(as_int) == "2*c"
    landed = C * Fraction(1, 2) * 4
    for other in (Scalar(as_fraction), landed):
        assert other == Scalar(as_int) and hash(other) == hash(Scalar(as_int))
        assert scalar_to_text(other) == scalar_to_text(Scalar(as_int)) == "2*c"
        assert type(other.den) is int and other.den == 1
    twice = ParamPolynomial.const(Fraction(2))
    assert Scalar(twice, 4) == Scalar(ONE.num, 2) == ONE / 2


# -- the canonical form over ZZ and the polynomial fast path ----------------

integers = st.integers(min_value=-6, max_value=6)
small_polynomials = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=2)] * 6), integers, max_size=3
).map(ParamPolynomial)
constants = integers.map(ParamPolynomial.const)


def _canon_reference(num: ParamPolynomial, den: ParamPolynomial):
    """The canonical pair computed over QQ, as {exponent: Fraction} maps:
    cofactors of the two polynomials, then a monic den."""
    from sympy import QQ
    from sympy.polys.orderings import grlex
    from sympy.polys.rings import ring

    R = ring(",".join(reversed(SYMBOLS)), QQ, grlex)[0]

    def to_ring(p):
        return R({e[::-1]: QQ(q) for e, q in p.terms.items()})

    def from_ring(f):
        return {e[::-1]: Fraction(int(q.numerator), int(q.denominator)) for e, q in f.items()}

    _, n, d = to_ring(num).cofactors(to_ring(den))
    lc = d.LC
    return from_ring(n.quo_ground(lc)), from_ring(d.quo_ground(lc))


def _reference_text(num: dict) -> str:
    # a polynomial over QQ printed at one common multiple m of its
    # denominators
    m = lcm(*(q.denominator for q in num.values()))
    return poly_to_text(ParamPolynomial({e: q * m for e, q in num.items()}), m)


@settings(max_examples=80, deadline=None)
@given(small_polynomials, small_polynomials, *[small_polynomials | constants] * 2)
def test_canonical_form_over_zz_matches_the_qq_reference(g, n, d, shift):
    # a shared factor g makes the gcd do work; d + shift varies the
    # integer contents of numerator and denominator independently
    num, den = g * n, g * (d + shift)
    if den.is_zero():
        return
    pair = lowest_terms(num, den)
    lc = pair[1].leading_coeff()
    ref_num, ref_den = _canon_reference(num, den)
    assert tuple({e: Fraction(q, lc) for e, q in p.terms.items()} for p in pair) == (
        ref_num, ref_den
    )
    _assert_coprime(*pair)
    if den.is_const():
        # a constant den: the Scalar is the same pair, printed as the QQ form
        x = Scalar(num, den.const_value())
        assert (x.num, ParamPolynomial.const(x.den)) == pair
        assert scalar_to_text(x) == _reference_text(ref_num)


def _assert_coprime(num: ParamPolynomial, den: ParamPolynomial):
    # a lowest_terms pair: int coefficients, no common factor (integer
    # content included), and a positive leading coefficient of den
    assert _is_exact(num) and _is_exact(den)
    assert poly_gcd(num, den) == ONE.num
    assert den.leading_coeff() > 0


def _assert_canonical(num: ParamPolynomial, den: int):
    # a Scalar's pair: int coefficients over a positive int den coprime to
    # their content
    assert _is_exact(num) and type(den) is int and den >= 1
    assert gcd(den, *num.terms.values()) == 1


@settings(max_examples=60, deadline=None)
@given(scalars, scalars, st.integers(min_value=-4, max_value=4))
def test_every_result_is_an_integral_coprime_pair(x, y, k):
    pairs = []
    canon = scalars_module._canon

    def recording(num, den):
        out = canon(num, den)
        pairs.append(out)
        return out

    with recorded_polynomials() as made, pytest.MonkeyPatch.context() as mp:
        mp.setattr(scalars_module, "_canon", recording)
        results = [x + y, x - y, x * y, -x, x + k, k - x, x * k, k * y]
        made += [x.num.scale(k), y.num.scale(k)]
        if k:
            z = x / k
            results += [z, z + k, z * k, z * z]
        if not x.is_zero():
            unit, factors = factor_polynomial(x)
            results += [unit] + [f for f, _ in factors]
        try:
            split = factor_linear_in_iota(x)
        except ValueError:  # an iota coefficient that is not constant
            split = None
        if split is not None:
            results += [split[0]] + [zeta for zeta, _ in split[1]]
        coprime = [lowest_terms(x.num, y.num)] if not y.is_zero() else []
    assert made and all(_is_exact(p) for p in made)
    for num, den in pairs + [(r.num, r.den) for r in results]:
        _assert_canonical(num, den)
    for num, den in coprime:
        _assert_coprime(num, den)


def test_printer_and_factor_order_on_integer_content():
    # texts and factor orders as printed before the integer content of a
    # Scalar moved into its denominator
    assert scalar_to_text((2 * C + 1) / 3) == "2/3*c + 1/3"
    assert scalar_to_text(Fraction(-5, 7) * L) == "-5/7*l"
    # factors are ordered by their terms' grlex keys and then by their
    # coefficients, never by the peel: c + 1/2 (num 2*c + 1) comes before
    # c - 1/3 (num 3*c - 1)
    unit, got = factor_polynomial((2 * C + 1) * (3 * C - 1))
    assert scalar_to_text(unit) == "6"
    assert [(scalar_to_text(f), m) for f, m in got] == [("c + 1/2", 1), ("c - 1/3", 1)]
    # a product with no linear factor comes back whole, as one factor:
    # the peel does not split (2c^2 + iota)(3c^2 - 1) into its quadratics
    x = (2 * C * C + IOTA) * (3 * C * C - 1)
    unit, got = factor_polynomial(x)
    assert scalar_to_text(unit) == "6"
    assert got == ((x / 6, 1),)
    assert [(scalar_to_text(f), m) for f, m in got] == [
        ("c^4 + 1/2*c^2*iota - 1/3*c^2 - 1/6*iota", 1)
    ]


def _factor_order_reports():
    factored = []
    for x in ((2 * C + 1) * (3 * C - 1), (2 * C * C + IOTA) * (3 * C * C - 1)):
        unit, factors = factor_polynomial(x)
        factored.append((scalar_to_text(unit), [(scalar_to_text(f), m) for f, m in factors]))
    return (
        factored,
        canonical_json(recursion_factorization_oracle([1, 2, 3])),
        canonical_json(gt_obstruction(Params.numeric(), Window.symmetric(4, 2, 2))),
    )


def test_reports_do_not_depend_on_the_peels_factor_order(monkeypatch):
    # the recursion obstruction's two factors share the leading monomial c:
    # their printed order, like every sign, is the grlex key's, not the
    # order in which the peel finds them (sympy factors nothing here)
    before = _factor_order_reports()
    peel = scalars_module._peel

    def reversed_peel(p):
        factors, rest = peel(p)
        return factors[::-1], rest

    monkeypatch.setattr(scalars_module, "_peel", reversed_peel)
    assert _factor_order_reports() == before


def test_gcd_sign_follows_grlex_where_lex_disagrees():
    # grlex leads with +b^2*c^2, lex on either generator order with -b^3
    # or -c^3: the gcd is p itself, never -p
    p = ((C * C - B) * (B * B - C)).num
    assert poly_gcd(p, (L * Scalar(p)).num) == p
    assert poly_to_text(p) == "b^2*c^2 - c^3 - b^3 + b*c"


shift_amounts = st.fixed_dictionaries(
    {"a1": st.integers(-3, 3), "a2": st.integers(-3, 3), "c": st.integers(-3, 3)}
)


@settings(max_examples=60, deadline=None)
@given(scalars, scalars, shift_amounts)
def test_shift_symbols_is_a_ring_map_onto_canonical_pairs(x, y, shifts):
    # s -> s + shifts[s] on the generators, and + - * go through; the
    # images are canonical pairs with no gcd taken
    def shift(z):
        return shift_symbols(z, shifts)

    assert [shift(s) for s in (L, B, C, A1, A2, IOTA)] == [
        L, B, C + shifts["c"], A1 + shifts["a1"], A2 + shifts["a2"], IOTA
    ]
    values = [x, x + y, x * y, x / 6, (x + 1) / 4]
    for z in values:
        w = shift(z)
        _assert_canonical(w.num, w.den)
        assert w.den == z.den
        assert shift_symbols(w, {s: -d for s, d in shifts.items()}) == z
    assert shift(x + y) == shift(x) + shift(y) and shift(x * y) == shift(x) * shift(y)
    assert shift(x / 6) == shift(x) / 6


@settings(max_examples=60, deadline=None)
@given(scalars, rationals)
def test_rational_operands_give_what_their_scalars_give(x, q):
    # an int or Fraction operand gives what the same value as a Scalar
    # gives, over den 1 and over den 6
    qs = Scalar.from_rational(q)
    with_rational = [
        (x + q, x + qs), (q + x, qs + x), (x - q, x - qs), (q - x, qs - x),
        (x * q, x * qs), (q * x, qs * x),
    ]
    z = x / 6
    with_rational += [(z + q, z + qs), (z * q, z * qs), (q - z, qs - z)]
    assert all(fast == ref for fast, ref in with_rational)


@settings(max_examples=40, deadline=None)
@given(scalars)
def test_copies_are_equal_canonical_scalars(x):
    # a Scalar has no pickling hook: its slots are copied as they are
    for z in (x, x / 6):
        copies = [copy.copy(z), copy.deepcopy(z), pickle.loads(pickle.dumps(z))]
        assert copies == [z, z, z]
        for w in copies:
            _assert_canonical(w.num, w.den)


def test_constant_scalars_hash_as_their_value():
    # a constant Scalar equals its int or Fraction value, so sets and dicts
    # keyed by either find the other
    two, half = Scalar.from_rational(2), Scalar.from_rational(Fraction(1, 2))
    assert len({two, 2}) == 1 and len({half, Fraction(1, 2)}) == 1
    assert {2: "int"}[two] == "int" and {two: "scalar"}[2] == "scalar"
    assert {Fraction(1, 2): "fraction"}[half] == "fraction"
    assert len({two, 2, Fraction(2), half, Fraction(1, 2), C, C + 0}) == 3


@settings(max_examples=60, deadline=None)
@given(rationals)
def test_constant_scalar_hash_matches_the_rational(q):
    assert hash(Scalar.from_rational(q)) == hash(q)
    assert hash(Scalar(ParamPolynomial.const(q.numerator), q.denominator)) == hash(q)


def test_symbolic_brackets_build_no_scalar_from_a_rational(monkeypatch):
    # the int shifts of act_gen's coefficients go to the constant term
    from wittmod.sl3 import Params, verify_sl3_brackets

    params = Params.symbolic()
    calls = []
    original = Scalar.from_rational.__func__

    def counted(cls, q):
        calls.append(q)
        return original(cls, q)

    monkeypatch.setattr(Scalar, "from_rational", classmethod(counted))
    report = verify_sl3_brackets(params, [(0, 0)], [0])
    assert report["ok"] and report["checked"] == 81
    assert calls == []
    assert Scalar._coerce(3) == Scalar.from_rational(3) and calls == [3, 3]


def test_symbolic_sweeps_pass_no_fraction_to_a_scalar(monkeypatch):
    # the traffic behind Scalar's + - * having no Fraction fast path:
    # symbolic sweeps hand a Scalar operation Scalars and ints only
    from wittmod.engine import Window, bracket_report, proof_report
    from wittmod.sl3 import Params

    seen = []
    original = Scalar._coerce

    def spy(x):
        seen.append(type(x))
        return original(x)

    monkeypatch.setattr(Scalar, "_coerce", staticmethod(spy))
    window = Window(0, 0, ((0, 0), (0, 0)))
    assert bracket_report(Params.symbolic(), window)["verdict"] == "pass"
    assert proof_report([1])["verdict"] == "pass"
    assert recursion_factorization_oracle([1])["verdict"] == "pass"
    assert Scalar in seen and Fraction not in seen


# -- printer and ring round trip -------------------------------------------

exponents = st.tuples(*[st.integers(min_value=0, max_value=3)] * 6)
polynomials = st.dictionaries(
    exponents, st.integers(min_value=-20, max_value=20), max_size=6
).map(ParamPolynomial)


@settings(max_examples=80, deadline=None)
@given(polynomials)
def test_ring_round_trip_keeps_polynomial_and_text(p):
    back = scalars_module._from_ring(scalars_module._to_ring(p))
    assert back == p and _is_exact(back)
    assert poly_to_text(back) == poly_to_text(p)


# -- the peel and the shifts against sympy's ring ---------------------------


def _factor_list_reference(x: Scalar):
    """factor_polynomial's output as sympy's complete factorization over
    ZZ gives it: each irreducible factor over its grlex leading
    coefficient, sorted on its terms, and the unit that multiplies back."""
    const, ring_factors = scalars_module._to_ring(x.num).factor_list()
    factors = []
    for f, mult in ring_factors:
        f = scalars_module._from_ring(f)
        lc = f.leading_coeff()
        const *= lc**mult
        factors.append((Scalar(f, lc), mult))
    factors.sort(key=scalars_module._pair_key)
    return Scalar.from_rational(Fraction(int(const), x.den)), tuple(factors)


symbol_scalars = st.sampled_from([L, B, C, A1, A2, IOTA])
unit_and_nonunit = st.sampled_from([-3, -2, -1, 1, 2, 3])
linear_forms = st.tuples(
    st.lists(st.tuples(symbol_scalars, unit_and_nonunit), min_size=1, max_size=3),
    st.integers(-3, 3),
).map(lambda t: sum((k * v for v, k in t[0]), Scalar.from_rational(t[1]))).filter(
    lambda f: not f.is_const()
)
# a*u^2 + k*w + m with u != w, k != 0 and gcd(a, k, m) = 1: of degree 1 in
# w and primitive there, so irreducible
quadratics = st.tuples(
    st.lists(symbol_scalars, min_size=2, max_size=2, unique=True),
    st.integers(1, 3),
    unit_and_nonunit,
    st.integers(-3, 3),
).filter(lambda t: gcd(*t[1:]) == 1).map(lambda t: t[1] * t[0][0] ** 2 + t[2] * t[0][1] + t[3])


@settings(max_examples=80, deadline=None)
@given(
    rationals.filter(bool),
    st.lists(st.tuples(linear_forms, st.integers(1, 3)), min_size=1, max_size=4),
    st.none() | quadratics,
)
def test_the_peel_matches_sympys_factorization(unit, forms, quadratic):
    # products of linear forms with non-unit coefficients and
    # multiplicities, times at most one irreducible quadratic: every
    # factor is linear but the quadratic, so the peel is complete
    x = Scalar.from_rational(unit)
    for f, mult in forms:
        x = x * f**mult
    if quadratic is not None:
        x = x * quadratic
    assert factor_polynomial(x) == _factor_list_reference(x)


all_shifts = st.fixed_dictionaries({name: st.integers(-3, 3) for name in SYMBOLS})


@settings(max_examples=80, deadline=None)
@given(polynomials, st.integers(1, 6), all_shifts)
def test_shift_symbols_matches_sympys_compose(p, den, shifts):
    x = Scalar(p, den)
    gens = dict(zip(SYMBOLS, scalars_module._ring().gens))
    composed = scalars_module._to_ring(x.num).compose(
        [(gens[s], gens[s] + d) for s, d in shifts.items()]
    )
    got = shift_symbols(x, shifts)
    assert (got.num, got.den) == (scalars_module._from_ring(composed), x.den)


linear_or_constant = linear_forms | rationals.filter(bool).map(Scalar.from_rational)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(linear_or_constant, min_size=1, max_size=5),
    st.lists(
        st.tuples(st.lists(st.integers(0, 4), max_size=3), linear_or_constant),
        min_size=1,
        max_size=2,
    ),
    st.booleans(),
)
def test_linear_quotient_matches_lowest_terms(dens, picks, zero):
    # each numerator factor is a product of some of the denominator
    # factors (repeats included) and one more form, so that forms cancel
    # once, twice or not at all; the pair is the one sympy's cofactors give
    nums = []
    for chosen, extra in picks:
        x = extra
        for i in chosen:
            x = x * dens[i % len(dens)]
        nums.append(x)
    if zero:
        nums.append(ZERO)
    named = [(f"f{i}", f) for i, f in enumerate(dens)]
    num, den = ONE, ONE
    for x in nums:
        num = num * x
    for f in dens:
        den = den * f
    assert scalars_module.linear_quotient(nums, named) == lowest_terms(
        num.num.scale(den.den), den.num.scale(num.den)
    )
