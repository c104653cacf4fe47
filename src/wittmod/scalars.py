"""Exact coefficient arithmetic.

Three layers:

* ``Rational`` - arbitrary-precision rationals (an alias of
  ``fractions.Fraction``, which already enforces the reduced-form and
  positive-denominator invariants).
* ``ParamPolynomial`` - sparse multivariate polynomials over Rational in
  the six parameter symbols ``l, b, c, a1, a2, iota``, with a fixed
  graded-lexicographic monomial order (symbol order l < b < c < a1 < a2
  < iota; iota is the largest symbol).  Exact division and gcd are done
  in sympy's sparse polynomial ring over QQ, built with the same order on
  first use; sympy also supplies factorization.
* ``Scalar`` - the fraction field in canonically normalized form:
  numerator and denominator coprime, denominator with leading
  coefficient 1.  Equality of Scalars is plain structural equality.

Numeric computations bypass this module entirely and use ``Fraction``
values directly; both types support the same arithmetic operators, so
the action and closure code is written once against either coefficient
type.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional, Union

Rational = Fraction

SYMBOLS = ("l", "b", "c", "a1", "a2", "iota")
_SYM_INDEX = {s: k for k, s in enumerate(SYMBOLS)}
_NSYM = len(SYMBOLS)
_ZERO_EXP = (0,) * _NSYM


def _grlex_key(exp: tuple) -> tuple:
    # graded lex; ties broken on the largest symbol first (iota, a2, ..., l)
    return (sum(exp), tuple(reversed(exp)))


class ParamPolynomial:
    """Sparse polynomial in the six parameter symbols over Rational."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[tuple, Fraction]] = None):
        clean = {}
        if terms:
            for exp, coeff in terms.items():
                if coeff:
                    clean[exp] = Fraction(coeff)
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "ParamPolynomial":
        return cls()

    @classmethod
    def const(cls, q) -> "ParamPolynomial":
        q = Fraction(q)
        return cls({_ZERO_EXP: q}) if q else cls()

    @classmethod
    def symbol(cls, name: str) -> "ParamPolynomial":
        if name not in _SYM_INDEX:
            raise ValueError(f"unknown symbol {name!r}")
        exp = [0] * _NSYM
        exp[_SYM_INDEX[name]] = 1
        return cls({tuple(exp): Fraction(1)})

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _ZERO_EXP in self.terms)

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError("polynomial is not constant")
        return self.terms.get(_ZERO_EXP, Fraction(0))

    def degree_in(self, name: str) -> int:
        k = _SYM_INDEX[name]
        return max((exp[k] for exp in self.terms), default=0)

    def symbols_used(self) -> set:
        used = set()
        for exp in self.terms:
            for k, e in enumerate(exp):
                if e:
                    used.add(SYMBOLS[k])
        return used

    # -- leading data under the fixed order ---------------------------

    def leading_monomial(self) -> tuple:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=_grlex_key)

    def leading_coeff(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    def sorted_terms(self):
        """Terms in descending monomial order (canonical iteration)."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "ParamPolynomial") -> "ParamPolynomial":
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            s = out.get(exp, 0) + coeff
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        res = ParamPolynomial.__new__(ParamPolynomial)
        res.terms = out
        return res

    def __sub__(self, other: "ParamPolynomial") -> "ParamPolynomial":
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            s = out.get(exp, 0) - coeff
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        res = ParamPolynomial.__new__(ParamPolynomial)
        res.terms = out
        return res

    def __neg__(self) -> "ParamPolynomial":
        res = ParamPolynomial.__new__(ParamPolynomial)
        res.terms = {exp: -c for exp, c in self.terms.items()}
        return res

    def __mul__(self, other: "ParamPolynomial") -> "ParamPolynomial":
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(exp, 0) + c1 * c2
                if s:
                    out[exp] = s
                else:
                    out.pop(exp, None)
        res = ParamPolynomial.__new__(ParamPolynomial)
        res.terms = out
        return res

    def scale(self, q: Fraction) -> "ParamPolynomial":
        if not q:
            return ParamPolynomial()
        res = ParamPolynomial.__new__(ParamPolynomial)
        res.terms = {exp: c * q for exp, c in self.terms.items()}
        return res

    def __pow__(self, n: int) -> "ParamPolynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = ParamPolynomial.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, ParamPolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"ParamPolynomial({poly_to_text(self)!r})"

    # -- evaluation ----------------------------------------------------

    def evaluate(self, assignment: Mapping[str, Fraction]) -> Fraction:
        """Evaluate at rational values; every occurring symbol must be given."""
        missing = self.symbols_used() - set(assignment)
        if missing:
            raise KeyError(f"missing symbols in assignment: {sorted(missing)}")
        vals = [Fraction(assignment.get(s, 0)) for s in SYMBOLS]
        total = Fraction(0)
        for exp, coeff in self.terms.items():
            v = coeff
            for k, e in enumerate(exp):
                if e:
                    v *= vals[k] ** e
            total += v
        return total


_POLY_ZERO = ParamPolynomial()
_POLY_ONE = ParamPolynomial.const(1)


# -- exact division and gcd -------------------------------------------


@lru_cache(maxsize=None)
def _ring():
    # built on first use so that importing the package does not load sympy;
    # generators run from the largest symbol down, so grlex on the ring is
    # the order above and leading terms agree
    from sympy import QQ
    from sympy.polys.orderings import grlex
    from sympy.polys.rings import ring

    return ring(",".join(reversed(SYMBOLS)), QQ, grlex)[0]


def _to_ring(p: ParamPolynomial):
    # terms are nonzero already, so the ring's dtype takes them unchecked
    R = _ring()
    mpq = R.domain.dtype
    return R.dtype({e[::-1]: mpq(q.numerator, q.denominator) for e, q in p.terms.items()})


def _from_ring(f) -> ParamPolynomial:
    res = ParamPolynomial.__new__(ParamPolynomial)
    res.terms = {
        m[::-1]: Fraction(int(q.numerator), int(q.denominator)) for m, q in f.items()
    }
    return res


def poly_exact_div(a: ParamPolynomial, b: ParamPolynomial) -> ParamPolynomial:
    """Exact multivariate division; raises ValueError if b does not divide a."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q, r = _to_ring(a).div(_to_ring(b))
    if r:
        raise ValueError("inexact polynomial division")
    return _from_ring(q)


def poly_gcd(a: ParamPolynomial, b: ParamPolynomial) -> ParamPolynomial:
    """Monic gcd; zero only when both arguments are zero."""
    return _from_ring(_to_ring(a).gcd(_to_ring(b)).monic())


# -- the fraction field ------------------------------------------------


def _canon(num: ParamPolynomial, den: ParamPolynomial):
    if den.is_zero():
        raise ZeroDivisionError("scalar with zero denominator")
    if num.is_zero():
        return _POLY_ZERO, _POLY_ONE
    if not den.is_const():
        g, n, d = _to_ring(num).cofactors(_to_ring(den))
        if not g.is_one:
            num, den = _from_ring(n), _from_ring(d)
    lc = den.leading_coeff()
    if lc != 1:
        num = num.scale(1 / lc)
        den = den.scale(1 / lc)
    return num, den


class Scalar:
    """Canonically normalized element of the parameter fraction field."""

    __slots__ = ("num", "den")

    def __init__(self, num: ParamPolynomial, den: ParamPolynomial = _POLY_ONE):
        self.num, self.den = _canon(num, den)

    # -- constructors --------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "Scalar":
        s = cls.__new__(cls)
        s.num = ParamPolynomial.const(q)
        s.den = _POLY_ONE
        return s

    @classmethod
    def sym(cls, name: str) -> "Scalar":
        s = cls.__new__(cls)
        s.num = ParamPolynomial.symbol(name)
        s.den = _POLY_ONE
        return s

    @classmethod
    def zero(cls) -> "Scalar":
        return cls.from_rational(0)

    @classmethod
    def one(cls) -> "Scalar":
        return cls.from_rational(1)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den == _POLY_ONE

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def const_value(self) -> Fraction:
        return self.num.const_value() / self.den.const_value()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    # -- coercion ------------------------------------------------------

    @staticmethod
    def _coerce(x) -> Optional["Scalar"]:
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return Scalar.from_rational(x)
        return None

    # -- field operations ----------------------------------------------

    def __add__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == _POLY_ONE and other.den == _POLY_ONE:
            s = Scalar.__new__(Scalar)
            s.num = self.num + other.num
            s.den = _POLY_ONE
            if s.num.is_zero():
                s.num = _POLY_ZERO
            return s
        return Scalar(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == _POLY_ONE and other.den == _POLY_ONE:
            s = Scalar.__new__(Scalar)
            s.num = self.num - other.num
            s.den = _POLY_ONE
            return s
        return Scalar(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        s = Scalar.__new__(Scalar)
        s.num = -self.num
        s.den = self.den
        return s

    def __mul__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == _POLY_ONE and other.den == _POLY_ONE:
            s = Scalar.__new__(Scalar)
            s.num = self.num * other.num
            s.den = _POLY_ONE
            return s
        return Scalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def inv(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        return Scalar(self.den, self.num)

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.inv() ** (-n)
        return Scalar(self.num ** n, self.den ** n)

    def __eq__(self, other) -> bool:
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"Scalar({scalar_to_text(self)!r})"

    # -- evaluation ----------------------------------------------------

    def evaluate(self, assignment: Mapping[str, Fraction]) -> Fraction:
        """Specialize every symbol to a rational; ring homomorphism.

        Raises KeyError for a missing symbol and ZeroDivisionError when
        the denominator vanishes at the assignment.
        """
        d = self.den.evaluate(assignment)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at the assignment")
        return self.num.evaluate(assignment) / d


# convenience handles for the six symbols
L = Scalar.sym("l")
B = Scalar.sym("b")
C = Scalar.sym("c")
A1 = Scalar.sym("a1")
A2 = Scalar.sym("a2")
IOTA = Scalar.sym("iota")

ZERO = Scalar.zero()
ONE = Scalar.one()


# -- iota-linear factorization -----------------------------------------


class IotaFactorization:
    """Result of splitting a polynomial scalar into iota-linear factors.

    ``x == unit * prod(zeta_k + sign_k * iota)`` with every zeta and the
    unit free of iota.  The multiply-back identity holds by construction.
    """

    __slots__ = ("unit", "factors")

    def __init__(self, unit: Scalar, factors: tuple):
        self.unit = unit
        self.factors = factors

    def product(self) -> Scalar:
        p = self.unit
        for zeta, sign in self.factors:
            p = p * (zeta + IOTA if sign > 0 else zeta - IOTA)
        return p


def factor_linear_in_iota(x: Scalar) -> Optional[IotaFactorization]:
    """Split a polynomial scalar into iota-linear factors, or None.

    Returns factors (zeta, sign) with sign in {+1, -1} and zeta free of
    iota, plus an iota-free unit, such that x equals the unit times the
    product of (zeta + sign*iota).  Returns None when x is not a product
    of iota-linear factors over the parameter field.
    """
    import sympy

    if not x.is_polynomial():
        raise ValueError("factor_linear_in_iota expects a polynomial scalar")
    if x.is_zero():
        return IotaFactorization(ZERO, ())
    if x.num.degree_in("iota") == 0:
        return IotaFactorization(x, ())

    R = _ring()
    iota = R.gens[0]
    _, factor_list = sympy.factor_list(_to_ring(x.num).as_expr())
    factors = []
    for fexpr, mult in factor_list:
        f = R.from_expr(fexpr)
        d = f.degree(iota)
        if d == 0:
            continue
        if d > 1:
            return None
        a_part = _from_ring(f.coeff_wrt(iota, 1))
        b_part = _from_ring(f.coeff_wrt(iota, 0))
        # root of the factor in iota is -b_part/a_part; present (zeta, sign)
        # so that zeta has a positive leading coefficient
        rho = Scalar(b_part, a_part) * Scalar.from_rational(-1)
        for _ in range(mult):
            if rho.is_zero():
                factors.append((ZERO, 1))
            elif rho.num.leading_coeff() > 0:
                factors.append((rho, -1))
            else:
                factors.append((-rho, 1))
    prod = ONE
    for zeta, sign in factors:
        prod = prod * (zeta + IOTA if sign > 0 else zeta - IOTA)
    unit = x / prod
    if unit.num.degree_in("iota") or unit.den.degree_in("iota"):
        return None
    return IotaFactorization(unit, tuple(factors))


def factor_polynomial(x: Scalar):
    """Irreducible factorization of a polynomial scalar over the rationals.

    Returns (unit, factors) where unit is a constant Scalar and factors is
    a tuple of (Scalar, multiplicity) pairs, each factor monic under the
    ambient monomial order.  The multiply-back product is certified, so
    the factorization engine never has to be trusted blindly.
    """
    import sympy

    if not x.is_polynomial():
        raise ValueError("factor_polynomial expects a polynomial scalar")
    if x.is_zero():
        return ZERO, ()
    if x.num.is_const():
        return x, ()
    const, factor_list_ = sympy.factor_list(_to_ring(x.num).as_expr())
    q = sympy.Rational(const)
    unit_val = Fraction(int(q.p), int(q.q))
    factors = []
    for fexpr, mult in factor_list_:
        fpoly = _from_ring(_ring().from_expr(fexpr))
        if fpoly.is_const():
            unit_val *= fpoly.const_value() ** mult
            continue
        lead = fpoly.leading_coeff()
        if lead != 1:
            fpoly = fpoly.scale(Fraction(1) / lead)
            unit_val *= lead**mult
        factors.append((Scalar(fpoly), int(mult)))
    factors.sort(key=lambda fm: fm[0].num.sorted_terms()[0])
    unit = Scalar.from_rational(unit_val)
    prod = unit
    for f, mult in factors:
        prod = prod * f**mult
    if prod != x:
        raise ValueError("factorization certification failed")
    return unit, tuple(factors)


# -- text grammar -------------------------------------------------------


def poly_to_text(p: ParamPolynomial) -> str:
    if p.is_zero():
        return "0"
    chunks = []
    for exp, coeff in p.sorted_terms():
        mono = "*".join(
            SYMBOLS[k] if e == 1 else f"{SYMBOLS[k]}^{e}"
            for k, e in enumerate(exp)
            if e
        )
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(chunks)


def scalar_to_text(x: Scalar) -> str:
    if x.den == _POLY_ONE:
        return poly_to_text(x.num)
    return f"({poly_to_text(x.num)})/({poly_to_text(x.den)})"


class ScalarParseError(ValueError):
    """Malformed scalar text; carries the character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ScalarParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def parse(self) -> Scalar:
        v = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise ScalarParseError("trailing input", self.pos)
        return v

    def expr(self) -> Scalar:
        v = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                v = v + self.term()
            elif ch == "-":
                self.pos += 1
                v = v - self.term()
            else:
                return v

    def term(self) -> Scalar:
        v = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                v = v * self.factor()
            elif ch == "/":
                self.pos += 1
                d = self.factor()
                if d.is_zero():
                    raise ScalarParseError("division by zero", self.pos)
                v = v / d
            else:
                return v

    def factor(self) -> Scalar:
        if self.peek() == "-":
            self.pos += 1
            return -self.factor()
        return self.power()

    def power(self) -> Scalar:
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            start = self.pos
            neg = False
            if self.peek() == "-":
                neg = True
                self.pos += 1
            n = self.integer()
            if neg:
                if base.is_zero():
                    raise ScalarParseError("zero to a negative power", start)
                return base ** (-n)
            return base ** n
        return base

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ScalarParseError("expected an integer", start)
        return int(self.text[start:self.pos])

    def atom(self) -> Scalar:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            v = self.expr()
            self.expect(")")
            return v
        if ch.isdigit():
            return Scalar.from_rational(self.integer())
        if ch.isalpha():
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            name = self.text[start:self.pos]
            if name not in _SYM_INDEX:
                raise ScalarParseError(f"unknown symbol {name!r}", start)
            return Scalar.sym(name)
        raise ScalarParseError("expected a value", self.pos)


def parse_scalar(text: str) -> Scalar:
    """Parse the scalar text grammar; inverse of scalar_to_text."""
    return _Parser(text).parse()


def parse_rational(text: str) -> Fraction:
    """Parse a plain `p/q` or integer string to an exact rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {text!r}: {exc}") from None


Coeff = Union[Scalar, Fraction]


def coeff_to_text(x) -> str:
    if isinstance(x, Scalar):
        return scalar_to_text(x)
    return str(Fraction(x))


def coeff_is_zero(x) -> bool:
    if isinstance(x, Scalar):
        return x.is_zero()
    return x == 0
