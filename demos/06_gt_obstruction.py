"""Why the natural commutative subalgebra fails to separate this module.

Degree-two words built from opposite root vectors shift the basis index
by at most one; the coefficient of the extreme shift factors into
index-linear forms, and every factor is controlled by one of the ten
named non-integrality conditions, so it cannot vanish at generic
parameters.  The central word sums of length one and two, by contrast,
behave: the trace word acts as zero and the quadratic central word
commutes with all nine generators on the inner window, while the E13
control, outside the rank-two words' range, must stay nonzero.
"""

from wittmod.engine import Window, gt_central_check, gt_obstruction
from wittmod.sl3 import Params

num = Params.numeric()
doc = gt_obstruction(num, Window.symmetric(4, 2, 2))
print("obstruction scan:", doc["verdict"])
for op in doc["operators"]:
    print(f"\n{op['word']}: extreme shift {op['extreme_offset']:+d},",
          f"triangular over {op['checked']} checks:", op["triangular_ok"])
    sample = op["factor_analysis"][0]
    print(f"   factors at r = {tuple(sample['r'])}:")
    for fac in sample["factors"]:
        cov = fac["covered_by"]
        print(f"      {fac['zeta']} ({fac['iota_sign']:+d}*iota)"
              f"  <-  condition {cov['condition']} shifted by {cov['shift']}")

sym = Params.symbolic()
central = Window.symmetric(4, 3, 3, margin=2)
c31 = gt_central_check(sym, central, 3, 1)
print("\ndegree-one central word: verdict", c31["verdict"],
      "| trace acts as zero:", c31["trace_zero"])
c32 = gt_central_check(sym, central, 3, 2)
print("degree-two central word: verdict", c32["verdict"],
      f"| {c32['commutator_checks']} commutators, {c32['failure_count']} failures")

control = gt_central_check(sym, central, 2, 2, controls=((1, 3),))
print("negative control (rank-two word vs E13):",
      [c["nonzero"] for c in control["controls"]], "nonzero as it should be")
