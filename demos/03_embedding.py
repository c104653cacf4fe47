"""Two routes to the same sl3 action.

The module carries nine closed-form generator formulas on basis vectors
v_i(r1, r2).  Each generator is also the image of an explicit Witt-algebra
vector field applied through the general tensor-field action.  Running
both routes symbolically and comparing term by term checks the formulas
against the construction they came from.
"""

from wittmod.sl3 import (
    GEN_NAMES,
    Params,
    act_embedded,
    act_gen,
    basis_element,
    verify_embedding,
    verify_sl3_brackets,
    word_shift,
)
from wittmod.scalars import scalar_to_text

sym = Params.symbolic()
x = basis_element(sym, 0, (0, 0))

print("E12 v_0(0,0) by the closed formula:")
for (idx, pt), cf in act_gen(sym, 1, 2, x).sorted_terms():
    print(f"   ({scalar_to_text(cf)}) * v_{idx}{pt}")
print("and by the vector-field route:")
for (idx, pt), cf in act_embedded(sym, 1, 2, x).sorted_terms():
    print(f"   ({scalar_to_text(cf)}) * v_{idx}{pt}")

points = [(0, 0), (1, -1), (-2, 1)]
rep = verify_embedding(sym, points, range(-2, 3))
print(f"\nnine generators, {rep['checked']} comparisons:", "ok" if rep["ok"] else "MISMATCH")

rep = verify_sl3_brackets(sym, points, range(-2, 3))
print(f"all 81 bracket pairs, {rep['checked']} residuals:", "ok" if rep["ok"] else "MISMATCH")

trace = [act_gen(sym, i, i, x) for i in (1, 2, 3)]
print("trace acts as:", (trace[0] + trace[1] + trace[2]).sorted_terms() or "zero")
print("lattice shifts:", {name: word_shift((GEN_NAMES[name],)) for name in ("E12", "E31")})
