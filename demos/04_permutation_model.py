"""The permutation model on G(7): exact defect accounting.

Pairs of words that avoid the letter t act as an exact homomorphism
(left translation times inverse right translation).  The letter t acts by
the slab involution, and its refusal to commute with the decorated right
generator is measurable: the commutator defect stays above 1/243 however
the model is probed.
"""

import random
from fractions import Fraction

from soficlab.groups import build_hom_specs
from soficlab.sofic import build_sigma, hom_defect, four_condition_report
from soficlab.words import ProductWord, ReducedWord, random_reduced_word

sigma = build_sigma(build_hom_specs(7, 5, 3))
print(f"domain size {sigma.domain.size}, mode {sigma.mode}")

# the report counts on the implicit maps block by block; its condition 2
# is the fixed fraction of the t image
report = four_condition_report(sigma)
t_fixed = report["cond2_fixed_fraction"]
print(f"fixed fraction of the t image: {t_fixed} "
      f"(= {float(t_fixed):.4f}, at least 1/3)")

rng = random.Random(1)
left = [n for n in sigma.left_names if n != "t"]
worst = Fraction(0)
for _ in range(20):
    u = ProductWord(random_reduced_word(rng, left, 3),
                    random_reduced_word(rng, list(sigma.right_names), 3))
    v = ProductWord(random_reduced_word(rng, left, 3),
                    random_reduced_word(rng, list(sigma.right_names), 3))
    worst = max(worst, hom_defect(sigma, u, v).value)
print(f"worst defect over 20 t-free word pairs: {worst}")

print("\ncommutators of t with the right generators:")
for name in sigma.right_names:
    d = hom_defect(sigma, ProductWord(ReducedWord(), ReducedWord.gen(name)),
                   ProductWord(ReducedWord.gen("t"), ReducedWord()))
    print(f"  against {name}: defect {d.value} = {float(d.value):.4f}")

print("\nfour-condition report:")
print("  (1) max t-free defect:", report["cond1_defect_max"])
print("  (2) t fixed fraction: ", report["cond2_fixed_fraction"])
print("  (3) witness word:", report["cond3_witness"]["word"],
      "with defect", report["cond3_witness"]["defect"])
print("  (4) min slice displacement:", report["cond4_min_displacement"],
      ">= 1/243:", report["cond4_min_displacement"] >= Fraction(1, 243))
