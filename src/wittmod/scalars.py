"""Exact coefficient arithmetic.

Two layers of exact arithmetic:

* ``ParamPolynomial`` - sparse multivariate polynomials over the
  integers in the six parameter symbols ``l, b, c, a1, a2, iota``, with
  a fixed graded-lexicographic monomial order (symbol order l < b < c <
  a1 < a2 < iota; iota is the largest symbol).  Every coefficient is an
  ``int``.  Gcds, factorizations and symbol shifts are computed in one
  lex-ordered sparse polynomial ring of sympy's over ZZ, built on first
  use.  Its order decides nothing that leaves this module: every sign,
  every monic factor and every factor or pair order is taken from the
  grlex order, so no printed byte depends on sympy's choices.
* ``Scalar`` - a polynomial over a positive integer: a pair (num, den)
  of an integer polynomial and a positive constant with no common
  integer factor, so c/2 is stored as (c, 2), and equality is plain
  structural equality.  A non-constant denominator is refused, so the
  arithmetic takes no polynomial gcd.  The denominator 1 is the one
  shared polynomial ``_POLY_ONE``, so an integer polynomial is
  recognised by identity, and its ``+``, ``-`` and ``*`` (with another
  one or an ``int``) run on the numerators alone.  ``lowest_terms``
  reduces a quotient that a caller forms as one polynomial pair.

Numeric computations use ``Fraction`` values with this module's
``scaled_int``, ``common_denominator``, ``add_term`` and
``coeff_is_zero``, and the closure runs on ints.  ``Fraction`` and
``Scalar`` support the same arithmetic operators, so the action code is
written once against either coefficient type.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Mapping, Optional

SYMBOLS = ("l", "b", "c", "a1", "a2", "iota")
_SYM_INDEX = {s: k for k, s in enumerate(SYMBOLS)}
_NSYM = len(SYMBOLS)
_ZERO_EXP = (0,) * _NSYM


def _grlex_key(exp: tuple) -> tuple:
    # graded lex; ties broken on the largest symbol first (iota, a2, ..., l)
    return (sum(exp), tuple(reversed(exp)))


def exact(q):
    """A rational as an int when integral, else as a Fraction; never a float."""
    if type(q) is int:
        return q
    if isinstance(q, float):
        raise TypeError(f"inexact coefficient {q!r}")
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


def scaled_int(v, scale: int = 1) -> int:
    """scale * v as an int, in integer arithmetic.  A product that keeps a
    denominator, or a v that is not an int or a Fraction, is refused with
    ``ValueError``, never rounded."""
    if isinstance(v, int):
        return scale * v
    if not isinstance(v, Fraction):
        raise ValueError(f"{type(v).__name__} value {v} cannot be scaled to an integer")
    q, rem = divmod(scale * v.numerator, v.denominator)
    if rem:
        raise ValueError(f"scaled entry {scale * v} is not an integer")
    return q


class ParamPolynomial:
    """Sparse polynomial in the six parameter symbols over the integers.

    A coefficient is admitted as an ``int``: a float is refused with
    ``TypeError``, a rational that is not integral with ``ValueError``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[tuple, int]] = None):
        self.terms = {e: scaled_int(exact(q)) for e, q in terms.items() if q} if terms else {}

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, q: int) -> "ParamPolynomial":
        return cls({_ZERO_EXP: q})

    @classmethod
    def symbol(cls, name: str) -> "ParamPolynomial":
        if name not in _SYM_INDEX:
            raise ValueError(f"unknown symbol {name!r}")
        exp = [0] * _NSYM
        exp[_SYM_INDEX[name]] = 1
        return cls({tuple(exp): 1})

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _ZERO_EXP in self.terms)

    def const_value(self) -> int:
        if not self.is_const():
            raise ValueError("polynomial is not constant")
        return self.terms.get(_ZERO_EXP, 0)

    def degree_in(self, name: str) -> int:
        k = _SYM_INDEX[name]
        return max((exp[k] for exp in self.terms), default=0)

    # -- leading data under the fixed order ---------------------------

    def leading_coeff(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.terms[max(self.terms, key=_grlex_key)]

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
        return _poly(out)

    def __sub__(self, other: "ParamPolynomial") -> "ParamPolynomial":
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            s = out.get(exp, 0) - coeff
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return _poly(out)

    def __neg__(self) -> "ParamPolynomial":
        return _poly({exp: -c for exp, c in self.terms.items()})

    def __mul__(self, other: "ParamPolynomial") -> "ParamPolynomial":
        out = {}
        get = out.get
        # the hot loop of symbolic sweeps: exponents unpacked by hand (six
        # symbols), zero sums dropped once at the end
        for (a0, a1, a2, a3, a4, a5), c1 in self.terms.items():
            for (b0, b1, b2, b3, b4, b5), c2 in other.terms.items():
                exp = (a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5)
                out[exp] = get(exp, 0) + c1 * c2
        return _poly({exp: c for exp, c in out.items() if c})

    def scale(self, q: int) -> "ParamPolynomial":
        q = scaled_int(exact(q))
        if not q:
            return ParamPolynomial()
        return _poly({exp: c * q for exp, c in self.terms.items()})

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


def _poly(terms: dict) -> ParamPolynomial:
    # wraps nonzero int coefficients
    res = ParamPolynomial.__new__(ParamPolynomial)
    res.terms = terms
    return res


_POLY_ZERO = ParamPolynomial()
_POLY_ONE = ParamPolynomial.const(1)


# -- gcd in sympy's sparse ring ----------------------------------------


@lru_cache(maxsize=None)
def _ring():
    # built on first use so that importing the package does not load sympy;
    # its lex order decides no sign and no order that leaves this module
    from sympy import ZZ
    from sympy.polys.rings import ring

    return ring(",".join(SYMBOLS), ZZ, "lex")[0]


def _to_ring(p: ParamPolynomial):
    # terms are nonzero ints already, so the ring's dtype takes them unchecked
    return _ring().dtype(p.terms)


def _from_ring(f) -> ParamPolynomial:
    return _poly({e: int(q) for e, q in f.items()})


def shift_symbols(x: "Scalar", shifts: Mapping[str, int]) -> "Scalar":
    """x with each symbol s in ``shifts`` replaced by s + shifts[s]: a ring
    automorphism of Z[symbols], so the numerator keeps its integer content
    and the pair stays canonical."""
    if x.num.is_const():
        return x
    gens = dict(zip(SYMBOLS, _ring().gens))
    subs = [(gens[s], gens[s] + d) for s, d in shifts.items()]
    return _raw(_from_ring(_to_ring(x.num).compose(subs)), x.den)


def poly_gcd(a: ParamPolynomial, b: ParamPolynomial) -> ParamPolynomial:
    """The gcd in Z[symbols], integer content included, with a positive
    grlex leading coefficient; zero only when both arguments are zero."""
    g = _from_ring(_to_ring(a).gcd(_to_ring(b)))
    return -g if g.terms and g.leading_coeff() < 0 else g


def lowest_terms(num: ParamPolynomial, den: ParamPolynomial) -> tuple:
    """num/den as a coprime pair over Z: the integer content stays in the
    pair (c/(2b) is (c, 2b)), and den's grlex leading coefficient is
    positive."""
    if den.is_zero():
        raise ZeroDivisionError("quotient with zero denominator")
    # the cofactors are fixed up to one common sign: the grlex rule decides it
    _, n, d = _to_ring(num).cofactors(_to_ring(den))
    num, den = _from_ring(n), _from_ring(d)
    if den.leading_coeff() < 0:
        num, den = -num, -den
    return num, den


# -- polynomials over a positive integer -------------------------------


def _canon(num: ParamPolynomial, den: ParamPolynomial):
    if den.is_zero():
        raise ZeroDivisionError("scalar with zero denominator")
    if not den.is_const():
        raise ValueError(f"Scalar denominator {poly_to_text(den)} is not constant")
    if num.is_zero():
        return _POLY_ZERO, _POLY_ONE
    # the gcd is an integer: that of den and num's content, with den's sign
    d = den.terms[_ZERO_EXP]
    g = gcd(d, *num.terms.values()) * (-1 if d < 0 else 1)
    if g != 1:
        num, den = (_poly({e: c // g for e, c in p.terms.items()}) for p in (num, den))
    return num, (_POLY_ONE if den == _POLY_ONE else den)


def _raw(num: ParamPolynomial, den: ParamPolynomial = _POLY_ONE) -> "Scalar":
    # wraps a pair that is canonical already
    s = Scalar.__new__(Scalar)
    s.num, s.den = num, den
    return s


class Scalar:
    """A polynomial in the parameters over a positive integer."""

    __slots__ = ("num", "den")

    def __init__(self, num: ParamPolynomial, den: ParamPolynomial = _POLY_ONE):
        self.num, self.den = _canon(num, den)

    # -- constructors --------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "Scalar":
        q = exact(q)
        if type(q) is int:
            return _raw(ParamPolynomial.const(q))
        return _raw(ParamPolynomial.const(q.numerator), ParamPolynomial.const(q.denominator))

    @classmethod
    def sym(cls, name: str) -> "Scalar":
        return _raw(ParamPolynomial.symbol(name))

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_const(self) -> bool:
        return self.num.is_const()

    def const_value(self) -> Fraction:
        return Fraction(self.num.const_value(), self.den.const_value())

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

    # -- ring operations -----------------------------------------------
    # An int k never becomes a Scalar in + and -: num/den + k is
    # (num + k*den)/den, still reduced.  k*num/den is reduced when den is 1.

    def __add__(self, other):
        if isinstance(other, int):
            return _raw(self.num + self.den.scale(other), self.den)
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        if self.den is _POLY_ONE and other.den is _POLY_ONE:
            return _raw(self.num + other.num)
        return Scalar(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return _raw(self.num - self.den.scale(other), self.den)
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        if self.den is _POLY_ONE and other.den is _POLY_ONE:
            return _raw(self.num - other.num)
        return Scalar(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return -self + other
        return NotImplemented

    def __neg__(self):
        return _raw(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, int):
            if self.den is _POLY_ONE:
                return _raw(self.num.scale(other))
            return Scalar(self.num.scale(other), self.den)
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        if self.den is _POLY_ONE and other.den is _POLY_ONE:
            return _raw(self.num * other.num)
        return Scalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        # a zero or non-constant divisor is refused by the constructor
        return Scalar(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int) -> "Scalar":
        return Scalar(self.num ** n, self.den ** n)

    def __eq__(self, other) -> bool:
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __reduce__(self):
        # a copy or an unpickled Scalar shares _POLY_ONE again
        return Scalar, (self.num, self.den)

    def __repr__(self):
        return f"Scalar({scalar_to_text(self)!r})"


# convenience handles for the six symbols
L = Scalar.sym("l")
B = Scalar.sym("b")
C = Scalar.sym("c")
A1 = Scalar.sym("a1")
A2 = Scalar.sym("a2")
IOTA = Scalar.sym("iota")

ZERO = Scalar.from_rational(0)
ONE = Scalar.from_rational(1)


# -- factorization -----------------------------------------------------


def factor_polynomial(x: Scalar):
    """Irreducible factorization of a Scalar over the rationals.

    Returns (unit, factors) where unit is a constant Scalar and factors is
    a tuple of (Scalar, multiplicity) pairs, each factor an irreducible
    integer polynomial over its grlex leading coefficient, sorted on its
    terms, never in sympy's order.  The multiply-back product is
    certified, so the factorization engine never has to be trusted blindly.
    """
    if x.is_zero():
        return ZERO, ()
    if x.num.is_const():
        return x, ()
    const, ring_factors = _to_ring(x.num).factor_list()
    factors = []
    for f, mult in ring_factors:
        f = _from_ring(f)
        lc = f.leading_coeff()
        const *= lc**mult
        factors.append((Scalar(f, ParamPolynomial.const(lc)), mult))
    factors.sort(key=_pair_key)
    # the ring factored x's numerator
    unit = Scalar.from_rational(Fraction(int(const), x.den.const_value()))
    prod = unit
    for f, mult in factors:
        prod = prod * f**mult
    if prod != x:
        raise ValueError("factorization certification failed")
    return unit, tuple(factors)


def factor_linear_in_iota(x: Scalar) -> Optional[tuple]:
    """The ``iota_split`` of the certified ``factor_polynomial`` of x;
    None when a factor has degree above 1 in iota."""
    unit, factors = factor_polynomial(x)
    if any(f.num.degree_in("iota") > 1 for f, _ in factors):
        return None
    return iota_split(factors, unit)


def iota_split(factors, unit: Scalar = ONE) -> tuple:
    """unit times the product of ``factors``, (Scalar, multiplicity) pairs
    of degree at most 1 in iota, as (unit', ((zeta, sign), ...)): unit' and
    every zeta free of iota, sign +1 or -1, each zeta zero or with a
    positive leading coefficient, the pairs sorted on zeta's terms, then
    the sign, and the product of unit' and every zeta + sign*iota unchanged.
    A factor whose iota coefficient is not a constant is refused."""
    pairs = []
    for f, mult in factors:
        if not f.num.degree_in("iota"):
            unit = unit * f**mult
            continue
        # f = a*(iota - rho)/den
        terms = f.num.terms.items()
        a = ParamPolynomial({e[:-1] + (0,): q for e, q in terms if e[-1]})
        b = ParamPolynomial({e: q for e, q in terms if not e[-1]})
        if not a.is_const():
            raise ValueError(f"iota_split: {scalar_to_text(f)} has a non-constant iota coefficient")
        rho = -Scalar(b, a)
        sign = -1 if not rho.is_zero() and rho.num.leading_coeff() > 0 else 1
        pairs += [(-sign * rho, sign)] * mult
        unit = unit * Scalar(a.scale(sign), f.den) ** mult
    pairs.sort(key=_pair_key)
    return unit, tuple(pairs)


def _pair_key(pair) -> tuple:
    # a total order on (Scalar, int) pairs: for num and then den, the grlex
    # keys of all monomials first, then the coefficients; then the int
    x, k = pair
    parts = (x.num.sorted_terms(), x.den.sorted_terms())
    return [([_grlex_key(e) for e, _ in t], [q for _, q in t]) for t in parts], k


# -- text printer -------------------------------------------------------


def poly_to_text(p: ParamPolynomial, lc: int = 1) -> str:
    """p with every coefficient divided by lc."""
    if p.is_zero():
        return "0"
    chunks = []
    for exp, coeff in p.sorted_terms():
        if lc != 1:
            coeff = Fraction(coeff, lc)
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
    return poly_to_text(x.num, x.den.const_value())


def parse_rational(text: str) -> Fraction:
    """Parse a plain `p/q` or integer string to an exact rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {text!r}: {exc}") from None


def coeff_to_text(x) -> str:
    if isinstance(x, Scalar):
        return scalar_to_text(x)
    return str(Fraction(x))


def common_denominator(values) -> int:
    """The lcm of the denominators of ``values``: scaling by it clears
    each of them.  It is 1 when any value is not an int or Fraction, so
    symbolic values are never scaled."""
    den = 1
    for v in values:
        if not isinstance(v, (int, Fraction)):
            return 1
        den = lcm(den, v.denominator)
    return den


def coeff_is_zero(x) -> bool:
    # truth is the zero test of int, Fraction and Scalar alike
    return not x


def add_term(out: dict, key, val) -> None:
    """out[key] += val in a sparse formal sum; a zero sum drops the key."""
    s = out[key] + val if key in out else val
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def form_value(form, values):
    """The integer linear form ``form``, with no constant term, at
    ``values``, entry by entry: a sum over the nonzero coefficients,
    where 1 and -1 add or subtract the value without a product.  The
    zero form is 0."""
    total = None
    for k, v in zip(form, values):
        if k and total is None:
            total = v if k == 1 else -v if k == -1 else k * v
        elif k:
            total = total + v if k == 1 else total - v if k == -1 else total + k * v
    return 0 if total is None else total
