"""Tour of the exact projective-group layer.

Enumerates PSL2(F_q) for small odd primes, acts on the projective line,
and measures centralizer sizes, which control how many points a
nontrivial translation can fix.  The q + 1 points of P^1(F_q) are the
positions 0..q, with position q the point at infinity.
"""

from fractions import Fraction

from soficlab.algebra import (
    PSL2Element,
    centralizer_fraction,
    centralizer_fraction_max,
    psl2_order,
    psl2_table,
)
from soficlab.f3vectors import h_position_perm

for q in (5, 7, 11, 13):
    elems = list(psl2_table(q))
    print(f"q = {q}: enumerated {len(elems)} elements, "
          f"formula gives q(q^2-1)/2 = {psl2_order(q)}")


def point(x, q):
    return "inf" if x == q else x


q = 7
shear = PSL2Element(1, 1, 0, 1, q)
flip = PSL2Element(0, -1, 1, 0, q)
# h_position_perm(g) reads position i from g^-1 . i, so that of g^-1 maps x to g . x
shear_image = h_position_perm(shear.inverse())
print("\nshear orbit of 0:", end=" ")
x = 0
for _ in range(q + 1):
    print(point(x, q), end=" ")
    x = shear_image[x]
print("\nflip sends infinity to", point(h_position_perm(flip.inverse())[q], q))

print("\ncentralizer fractions at q = 7:")
print("  identity:", centralizer_fraction(PSL2Element.identity(q)))
print("  shear:   ", centralizer_fraction(shear))
for q in (5, 7, 11, 13):
    worst = centralizer_fraction_max(q)
    bound = Fraction(1, 2 * (q - 1))
    print(f"  q={q}: worst nontrivial fraction {worst} <= 1/(2(q-1)) = {bound}: "
          f"{worst <= bound}")
