"""The zero-sum vector layer: exact counts that stay exact at any p.

The skewed subset S(p) (vectors whose 1-count beats both other counts by
more than 2) fills between 1/243 and 1/3 of A(p), while the symmetric
difference with its shift by (1,-1,0,...,0) shrinks like 1/sqrt(p): a
positive-density set with vanishing boundary, which is the whole point.
"""

import math
from fractions import Fraction

from soficlab.f3vectors import (
    a_shift_vector,
    ap_unindex,
    disjointness_check_ap_shift,
    invariant_closure_dim,
    sp_count_exact,
    sp_shift_diff_exact,
    v_vector,
)

print("p      |S|/3^p      |S sym (v+S)|/3^p   scaled by sqrt(p)")
for p in (7, 13, 19, 31, 37):
    density = Fraction(sp_count_exact(p), 3**p)
    shift = Fraction(sp_shift_diff_exact(v_vector(p)), 3**p)
    print(f"{p:<6} {float(density):<12.5f} {float(shift):<19.5f} "
          f"{float(shift) * math.sqrt(p):.4f}")

print("\ndisjointness of the slab shift (0,0,1,...,1):")
for p in (7, 13):
    print(f"  p={p}: (a + S) meets S?", not disjointness_check_ap_shift(p))

print("\ninvariant closure: any nonzero vector generates everything")
import random

rng = random.Random(0)
for _ in range(5):
    x = ap_unindex(rng.randrange(1, 3**7), 7)
    print(f"  dim closure {x.coords} = {invariant_closure_dim(x)} (full rank is 7)")
print("  dim closure of the zero vector =",
      invariant_closure_dim(ap_unindex(0, 7)))
print("  a(7) itself:", invariant_closure_dim(a_shift_vector(7)))
