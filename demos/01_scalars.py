"""A tour of the exact scalar layer.

Every coefficient in this package is either a plain Fraction or a
polynomial in the six symbols l, b, c, a1, a2, iota over a positive
integer.  Nothing is ever floated; equality of scalars is equality of
canonical forms, so a zero residual really is zero.
"""

from wittmod.scalars import (
    A1, B, C, IOTA, L,
    factor_linear_in_iota,
    factor_polynomial,
    lowest_terms,
    poly_to_text,
    scalar_to_text,
)

# a quotient by a constant keeps integer coefficients over a positive
# integer, coprime to their content
x = (2 * C + 4 * L) / 6
print("over an integer:", scalar_to_text(x), " stored as", (x.num, x.den))
print("times 3:", scalar_to_text(3 * x))
try:
    (C + L) / (A1 - B - L)
except ValueError as exc:
    print("a non-constant divisor is refused:", exc)

# a rational function is formed as one (num, den) pair and reduced once:
# coprime, integer content kept, den with a positive leading coefficient
num, den = lowest_terms(((C + L) * (C - L)).num, (2 * C + 2 * L).num)
print("in lowest terms:", f"({poly_to_text(num)})/({poly_to_text(den)})")

# the printer lists terms in descending graded order, largest symbol first
z = C * C - 9 * B * B - C + 15 * B - 6
text = scalar_to_text(z)
assert text == "c^2 - 9*b^2 - c + 15*b - 6"
unit, factors = factor_polynomial(z)
print(f"{text}  =  {scalar_to_text(unit)} *",
      " * ".join(f"({scalar_to_text(f)})^{m}" for f, m in factors))

# iota tracks a symbolic basis index; products of index-linear forms
# split into (zeta, sign) pairs used by the obstruction analysis
w = (C + IOTA) * (A1 - B - IOTA)
unit, pairs = factor_linear_in_iota(w)
print("iota-linear factors:", scalar_to_text(unit), "*",
      [(scalar_to_text(zeta), sign) for zeta, sign in pairs])
