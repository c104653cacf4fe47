"""A tour of the exact scalar layer.

Every coefficient in this package is either a plain Fraction or a ratio
of multivariate polynomials in the six symbols l, b, c, a1, a2, iota.
Nothing is ever floated; equality of scalars is equality of canonical
forms, so a zero residual really is zero.
"""

from wittmod.scalars import (
    A1, B, C, IOTA, L,
    factor_linear_in_iota,
    factor_polynomial,
    scalar_to_text,
)

x = (C + L) / (A1 - B - L)
print("a quotient:", scalar_to_text(x))
print("times its inverse:", scalar_to_text(x * x.inv()))

# numerator and denominator are kept coprime, integer content included,
# and printed with a monic denominator
y = (C + L) * (C - L) / ((2 * C + 2 * L))
print("after cancellation:", scalar_to_text(y))

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
