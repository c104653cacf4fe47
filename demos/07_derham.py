"""The twisted de Rham complex of tensor-field modules.

Wedge powers of the natural representation assemble into a complex
whose differential d raises form degree, squares to zero, and commutes
with every Witt generator.  The image of d is then an invariant
subspace, so these particular tensor-field modules are reducible, in
contrast to the cuspidal-input family checked elsewhere.
"""

from fractions import Fraction
from itertools import product

from wittmod.engine import derham_report
from wittmod.glmod import exterior_power
from wittmod.scalars import coeff_to_text
from wittmod.tensor import ModuleElement, de_rham_differential

ALPHA = (Fraction(1, 17), Fraction(1, 19))
wedges = tuple(exterior_power(2, k) for k in range(3))

x = ModuleElement.basis(ALPHA, 0, (2, -1))
dx = de_rham_differential(x, wedges, 0)
print("d(1 tensor t^(2,-1)) =")
for (idx, pt), cf in dx.sorted_terms():
    print(f"   ({coeff_to_text(cf)}) * e_{wedges[1].label(idx)} t^{pt}")

ddx = de_rham_differential(dx, wedges, 1)
print("d(d(x)) is zero:", ddx.is_zero())

doc = derham_report(n=2, box_bound=2, uv_bound=2)
print("\nfull report:", doc["verdict"])
print(f"   d^2 = 0 at {doc['dd_checked']} points, {doc['dd_failures']} failures")
print(f"   {doc['intertwining_pairs']} generator pairs,"
      f" {doc['intertwining_checked']} intertwining residuals,"
      f" {doc['intertwining_failures']} failures")
print(f"   image invariance: {doc['image_checked']} checks,"
      f" {doc['image_failures']} failures")

# three variables work the same way
doc3 = derham_report(n=3, box_bound=1, uv_bound=1)
print("n = 3 variant:", doc3["verdict"])
