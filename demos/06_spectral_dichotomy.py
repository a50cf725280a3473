"""Two generating pictures of the same groups, measured side by side.

The paired projective images of the undecorated left generators produce
Cayley graphs whose spectral gap holds up as p grows (measured on the
irreducible representation pairs of PSL2(F_p) x PSL2(F_r), never on the
flat graph); the decorated right generator barely moves the
positive-density slab, and that boundary ratio shrinks like 1/sqrt(p).
The same family expands or refuses to expand depending only on which
generators you hand it.
"""

import math
from fractions import Fraction

from soficlab.f3vectors import sp_count_exact, sp_shift_diff_exact, v_vector
from soficlab.groups import build_hom_specs
from soficlab.smallgroups import cyclic_table, symmetric_table
from soficlab.spectral import (
    cycle_graph,
    kazhdan_bounds,
    lambda2_estimate,
    tau_family_lambda2,
)

est = lambda2_estimate(cycle_graph(100), iterations=100_000, tolerance=1e-10, seed=0)
print(f"calibration: cycle of length 100 gives lambda2 = {est.lambda2:.9f}, "
      f"closed form cos(2 pi/100) = {math.cos(2 * math.pi / 100):.9f}")

print("\nexpander side, degree-4 graphs on PSL2(F_p) x PSL2(F_r), solved as "
      "irreducible representation pairs:")
print("p      vertices       pairs  largest  gap      residual  attained by")
for p in (7, 13, 19):
    est = tau_family_lambda2(build_hom_specs(p, 5, 3), seed=2)
    print(f"{p:<6} {est.size:<14,} {est.pairs:<6} {est.largest_pair:<8} {est.gap:.4f}   "
          f"{est.residual:.1e}   {est.pair}")

print("\nnon-expander side, exact boundary ratios of the slab witness:")
print("p      |Tg sym T|/|G|   |Tg sym T|/|T|")
for p in (7, 13, 19, 31, 37):
    diff = sp_shift_diff_exact(v_vector(p))
    ratio_g = Fraction(diff, 3**p)
    ratio_t = Fraction(diff, sp_count_exact(p))
    print(f"{p:<6} {float(ratio_g):<16.5f} {float(ratio_t):.5f}")

print("\nKazhdan bounds on small oracles:")
kb = kazhdan_bounds(cyclic_table(2), [1], seed=0)
print(f"  two-point group: lower {kb['lower']:.4f} <= direct {kb['direct']:.4f} "
      f"<= upper {kb['upper']:.4f}")
s3 = symmetric_table(3)
kb3 = kazhdan_bounds(s3, [1, 3], seed=0)
print(f"  six-element group: lower {kb3['lower']:.4f} <= direct {kb3['direct']:.4f} "
      f"<= upper {kb3['upper']:.4f}")
print("  (the direct value sqrt(12/7) beats sqrt(2 gap): the naive upper "
      "bound is genuinely false, hence the |T| factor)")
