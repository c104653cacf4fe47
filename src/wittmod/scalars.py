"""Exact coefficient arithmetic.

Two layers of exact arithmetic:

* ``ParamPolynomial`` - sparse multivariate polynomials over the
  integers in the six parameter symbols ``l, b, c, a1, a2, iota``, with
  a fixed graded-lexicographic monomial order (symbol order l < b < c <
  a1 < a2 < iota; iota is the largest symbol).  Every coefficient is an
  ``int``.  Linear forms are the only divisors the package needs:
  ``divide_linear`` divides by one exactly or says it does not divide,
  ``factor_polynomial`` peels every linear factor and certifies the
  result by multiplying back, ``linear_quotient`` reduces a product over
  linear forms to lowest terms, and ``shift_symbols`` expands each
  monomial binomially.  None of them loads sympy.  Every sign, monic
  factor and factor order is taken from the grlex order.
* ``Scalar`` - a polynomial over a positive integer: a pair (num, den)
  of an integer polynomial and a positive ``int`` with no common
  integer factor, so c/2 is stored as (c, 2), and equality is plain
  structural equality.  A divisor that is not a constant is refused, so
  the arithmetic takes no polynomial gcd, and with den 1 on both sides
  ``+``, ``-`` and ``*`` run on the numerators alone.

``poly_gcd`` computes in a sparse polynomial ring of sympy's over ZZ,
built on first use (``_ring``, the one place the package imports sympy).
No producer calls it; it stays because the benchmark's tracer hooks it
by name.  sympy is a test dependency only: the package runs on the
standard library.

Numeric computations use ``Fraction`` values with this module's
``scaled_int``, ``common_denominator``, ``add_term`` and
``coeff_is_zero``, and the closure runs on ints.  ``Fraction`` and
``Scalar`` support the same arithmetic operators, so the action code is
written once against either coefficient type.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm
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


# -- gcd in sympy's sparse ring ----------------------------------------
# No producer reaches it; the tests use the ring as their reference.


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


def poly_gcd(a: ParamPolynomial, b: ParamPolynomial) -> ParamPolynomial:
    """The gcd in Z[symbols], integer content included, with a positive
    grlex leading coefficient; zero only when both arguments are zero.
    The benchmark's tracer hooks it by name, so it stays in the package."""
    g = _from_ring(_to_ring(a).gcd(_to_ring(b)))
    return -g if g.terms and g.leading_coeff() < 0 else g


# -- linear forms: exact division, peeling, shifts -----------------------


def _content(p: ParamPolynomial) -> int:
    # the gcd of the coefficients; 0 for the zero polynomial
    return gcd(*p.terms.values())


def _top_symbol(p: ParamPolynomial) -> int:
    # the index of the largest symbol in p; -1 for a constant
    return max((k for e in p.terms for k in range(_NSYM) if e[k]), default=-1)


def _is_linear(p: ParamPolynomial) -> bool:
    return all(sum(e) <= 1 for e in p.terms)


def divide_linear(p: ParamPolynomial, f: ParamPolynomial) -> Optional[ParamPolynomial]:
    """p/f for a linear form f = c*v + r, v its largest symbol, or None
    when the division is not exact over Z.  Synthetic division in v on
    the slices p_n, ..., p_0 of p by degree in v: q_{k-1} is
    (p_k - r*q_k)/c, which is exact integer division, and p_0 must equal
    r*q_0.  Only a c other than 1 or -1 takes an integer division."""
    k = _top_symbol(f)
    if k < 0 or not _is_linear(f):
        raise ValueError(f"divide_linear: {poly_to_text(f)} is not a linear form")
    if not p.terms:
        return p
    c = sum(q for e, q in f.terms.items() if e[k])
    r = _poly({e: q for e, q in f.terms.items() if not e[k]})
    slices = {}
    for e, q in p.terms.items():
        slices.setdefault(e[k], {})[e[:k] + (0,) + e[k + 1 :]] = q
    out = {}
    quot = _POLY_ZERO
    for d in range(max(slices), 0, -1):
        rest = _poly(slices.get(d, {})) - r * quot
        if c == 1:
            quot = rest
        elif c == -1:
            quot = -rest
        else:
            quotients = {}
            for e, q in rest.terms.items():
                quotients[e], rem = divmod(q, c)
                if rem:
                    return None
            quot = _poly(quotients)
        for e, q in quot.terms.items():
            out[e[:k] + (d - 1,) + e[k + 1 :]] = q
    if _poly(slices.get(0, {})) != r * quot:
        return None
    return _poly(out)


def _divisors(n: int) -> list:
    # the positive divisors of n != 0
    n, small, large = abs(n), [], []
    d = 1
    while d * d <= n:
        if not n % d:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _peel(p: ParamPolynomial) -> tuple:
    """(factors, rest) with p = rest times the product of f**m over the
    (f, m) in ``factors``: every primitive linear factor of the nonzero p,
    each with its full multiplicity, and a rest with no linear factor.

    Let v be p's largest symbol.  A linear factor without v divides the
    v^0 slice p_0, so it is one of p_0's, found by recursion.  A linear
    factor with v is c*v + k or c*v + m*g, where c > 0 divides the content
    of p's top slice in v, k and m divide the content of p_0, and g is one
    of p_0's linear factors.  Each candidate is confirmed by exact
    division."""
    k = _top_symbol(p)
    if k < 0:
        return [], p
    factors = []
    low = min(e[k] for e in p.terms)
    if low:
        p = _poly({e[:k] + (e[k] - low,) + e[k + 1 :]: q for e, q in p.terms.items()})
        factors.append((ParamPolynomial.symbol(SYMBOLS[k]), low))
    p0 = _poly({e: q for e, q in p.terms.items() if not e[k]})
    below, rest = _peel(p0)
    if len(p0.terms) == len(p.terms):  # p is free of v
        return factors + below, rest
    v = ParamPolynomial.symbol(SYMBOLS[k])
    n = max(e[k] for e in p.terms)
    top = _content(_poly({e: q for e, q in p.terms.items() if e[k] == n}))
    ms = [m for d in _divisors(_content(p0)) for m in (d, -d)]
    tails = [ParamPolynomial.const(m) for m in ms]
    tails += [g.scale(m) for g, _ in below for m in ms]
    candidates = [g for g, _ in below]
    candidates += [
        v.scale(c) + r for c in _divisors(top) for r in tails if gcd(c, _content(r)) == 1
    ]
    for f in candidates:
        mult = 0
        while (q := divide_linear(p, f)) is not None:
            p, mult = q, mult + 1
        if mult:
            factors.append((f, mult))
            if p.is_const():
                break
    return factors, p


def shift_symbols(x: "Scalar", shifts: Mapping[str, int]) -> "Scalar":
    """x with each symbol s in ``shifts`` replaced by s + shifts[s]: a ring
    automorphism of Z[symbols], so the numerator keeps its integer content
    and the pair stays canonical.  Each monomial is expanded binomially."""
    if x.num.is_const():
        return x
    moves = [(_SYM_INDEX[s], d) for s, d in shifts.items() if d]
    out = {}
    for exp, q in x.num.terms.items():
        terms = {exp: q}
        for k, d in moves:
            n = exp[k]
            if not n:
                continue
            # x_k^n -> sum_i C(n, i) d^(n-i) x_k^i
            terms = {
                e[:k] + (i,) + e[k + 1 :]: q * comb(n, i) * d ** (n - i)
                for e, q in terms.items()
                for i in range(n + 1)
            }
        for e, q in terms.items():
            out[e] = out.get(e, 0) + q
    return _raw(_poly({e: q for e, q in out.items() if q}), x.den)


def linear_quotient(nums, dens) -> tuple:
    """The product of the Scalars ``nums`` over the product of ``dens``,
    (name, Scalar) pairs of linear Scalars, as a coprime pair over Z
    whose integer content stays in the pair.  Each denominator factor, its
    integer content set aside, is divided out of the first numerator
    factor it divides exactly, and otherwise stays in den; a linear form
    is prime, so what is left is coprime once the gcd of the two integer
    contents is cancelled.  den's grlex leading coefficient is positive.
    A factor that is zero or not linear is refused by name."""
    polys = [x.num for x in nums]
    num_int, den_int, kept = 1, 1, []
    for x in nums:
        den_int *= x.den
    for name, f in dens:
        p = f.num
        if p.is_zero():
            raise ZeroDivisionError(f"denominator factor {name} is 0")
        if not _is_linear(p):
            raise ValueError(f"denominator factor {name} = {scalar_to_text(f)} is not linear")
        num_int *= f.den
        if p.is_const():
            den_int *= p.const_value()
            continue
        content = _content(p)
        den_int *= content
        p = _poly({e: q // content for e, q in p.terms.items()})
        for i, a in enumerate(polys):
            if (q := divide_linear(a, p)) is not None:
                polys[i] = q
                break
        else:
            kept.append(p)
    num, den = ParamPolynomial.const(num_int), ParamPolynomial.const(den_int)
    for a in polys:
        num = num * a
    for p in kept:
        den = den * p
    g = gcd(_content(num), _content(den)) * (-1 if den.leading_coeff() < 0 else 1)
    if g != 1:
        num = _poly({e: q // g for e, q in num.terms.items()})
        den = _poly({e: q // g for e, q in den.terms.items()})
    return num, den


# -- polynomials over a positive integer -------------------------------


def _canon(num: ParamPolynomial, den: int):
    if type(den) is not int:
        raise ValueError(f"Scalar denominator {den!r} is not an int")
    if not den:
        raise ZeroDivisionError("scalar with zero denominator")
    if num.is_zero():
        return _POLY_ZERO, 1
    # the gcd of den and num's content, with den's sign
    g = gcd(den, *num.terms.values()) * (-1 if den < 0 else 1)
    if g != 1:
        num, den = _poly({e: c // g for e, c in num.terms.items()}), den // g
    return num, den


def _raw(num: ParamPolynomial, den: int = 1) -> "Scalar":
    # wraps a pair that is canonical already
    s = Scalar.__new__(Scalar)
    s.num, s.den = num, den
    return s


class Scalar:
    """A polynomial in the parameters over a positive integer."""

    __slots__ = ("num", "den")

    def __init__(self, num: ParamPolynomial, den: int = 1):
        self.num, self.den = _canon(num, den)

    # -- constructors --------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "Scalar":
        q = exact(q)
        return _raw(ParamPolynomial.const(q.numerator), q.denominator)

    @classmethod
    def sym(cls, name: str) -> "Scalar":
        return _raw(ParamPolynomial.symbol(name))

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_const(self) -> bool:
        return self.num.is_const()

    def const_value(self) -> Fraction:
        return Fraction(self.num.const_value(), self.den)

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
    # (num + k*den)/den, still reduced; k*den is added as a bare constant
    # term, which may be 0, as polynomial + and - drop a zero sum.
    # k*num/den is reduced when den is 1.

    def __add__(self, other):
        if isinstance(other, int):
            return _raw(self.num + _poly({_ZERO_EXP: self.den * other}), self.den)
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == 1 == other.den:
            return _raw(self.num + other.num)
        return Scalar(self.num.scale(other.den) + other.num.scale(self.den), self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return _raw(self.num - _poly({_ZERO_EXP: self.den * other}), self.den)
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == 1 == other.den:
            return _raw(self.num - other.num)
        return Scalar(self.num.scale(other.den) - other.num.scale(self.den), self.den * other.den)

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return -self + other
        return NotImplemented

    def __neg__(self):
        return _raw(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, int):
            if self.den == 1:
                return _raw(self.num.scale(other))
            return Scalar(self.num.scale(other), self.den)
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == 1 == other.den:
            return _raw(self.num * other.num)
        return Scalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num.is_const():
            raise ValueError(f"Scalar denominator {poly_to_text(other.num)} is not constant")
        # a zero divisor is refused by the constructor
        return Scalar(self.num.scale(other.den), self.den * other.num.const_value())

    def __pow__(self, n: int) -> "Scalar":
        return Scalar(self.num ** n, self.den ** n)

    def __eq__(self, other) -> bool:
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a constant equals its int or Fraction value, so it hashes as one
        if self.num.is_const():
            return hash(self.const_value())
        return hash((self.num, self.den))

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
    """Factorization of a Scalar over the rationals by peeling linear
    factors.

    Returns (unit, factors) where unit is a constant Scalar and factors is
    a tuple of (Scalar, multiplicity) pairs, each factor an integer
    polynomial over its grlex leading coefficient, sorted on its terms.
    Every linear factor is found, with its multiplicity.  What is left
    once they are divided out, when it is not a constant, is returned
    whole as one factor with multiplicity 1 and is never split further:
    it has no linear factor, but it need not be irreducible.  The
    multiply-back product is certified, so the peel never has to be
    trusted blindly.
    """
    if x.is_zero():
        return ZERO, ()
    if x.num.is_const():
        return x, ()
    peeled, rest = _peel(x.num)
    if not rest.is_const():
        peeled.append((rest, 1))
    factors = sorted(((Scalar(f, f.leading_coeff()), m) for f, m in peeled), key=_pair_key)
    # every factor has grlex leading coefficient 1, and so has their product
    unit = Scalar.from_rational(Fraction(x.num.leading_coeff(), x.den))
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
        terms, k = f.num.terms.items(), _SYM_INDEX["iota"]
        a = ParamPolynomial({e[:k] + (0,) + e[k + 1 :]: q for e, q in terms if e[k]})
        b = ParamPolynomial({e: q for e, q in terms if not e[k]})
        if not a.is_const():
            raise ValueError(f"iota_split: {scalar_to_text(f)} has a non-constant iota coefficient")
        rho = -Scalar(b, a.const_value())
        sign = -1 if not rho.is_zero() and rho.num.leading_coeff() > 0 else 1
        pairs += [(-sign * rho, sign)] * mult
        unit = unit * Scalar(a.scale(sign), f.den) ** mult
    pairs.sort(key=_pair_key)
    return unit, tuple(pairs)


def _pair_key(pair) -> tuple:
    # a total order on (Scalar, int) pairs: the grlex keys of all of num's
    # monomials first, then its coefficients; then den, then the int
    x, k = pair
    t = x.num.sorted_terms()
    return ([_grlex_key(e) for e, _ in t], [q for _, q in t]), x.den, k


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
    return poly_to_text(x.num, x.den)


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
