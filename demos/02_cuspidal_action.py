"""The rank-two cuspidal input module and its bracket law.

The infinite-dimensional input V has basis v_i (i in Z) with the four
gl2 generators acting through shift operators.  All weight spaces are
one-dimensional and E12, E21 act injectively as long as c+l and c-l
stay away from the integers; the constructor enforces that at numeric
parameters.  The generators act on V tensor C[t^{+-1}] fibrewise: the
lattice point of v_i(m) never moves.
"""

from fractions import Fraction

from wittmod.glmod import CuspidalGl2, verify_gl_brackets
from wittmod.scalars import A1, A2, B, C, L, scalar_to_text
from wittmod.tensor import ModuleElement

sym = CuspidalGl2(L, B, C)
x = ModuleElement.basis((A1, A2), 0, (1, -1))
for name, (i, j) in (("E11", (1, 1)), ("E12", (1, 2)), ("E21", (2, 1)), ("E22", (2, 2))):
    out = sym.act(i, j, x)
    body = " + ".join(f"({scalar_to_text(cf)})*v_{k}{m}" for (k, m), cf in out.sorted_terms())
    print(f"{name} v_0(1, -1) = {body}")

rep = verify_gl_brackets(sym)
print("symbolic bracket law over |i| <= 4:", "ok" if rep["ok"] else rep["failures"][:1])

num = CuspidalGl2(Fraction(1, 7), Fraction(1, 11), Fraction(1, 13))
y = ModuleElement.basis((Fraction(1, 17), Fraction(1, 19)), 0, (0, 0))
print("numeric E12 v_0(0, 0):", num.act(1, 2, y).sorted_terms())

try:
    CuspidalGl2(Fraction(1, 2), Fraction(1, 11), Fraction(1, 2))
except ValueError as exc:
    print("rejected degenerate input:", exc)
