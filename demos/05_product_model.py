"""The product-domain model: same defects, almost no fixed points.

Decorating every generator with an exact action on a second projective
factor leaves all defect in the first coordinate while pushing the fixed
point fraction of any pair with a surviving left word below 1/(2(r-1)).
The product domain has 242 million points; nothing here materializes it.
"""

import random

from soficlab.groups import build_hom_specs, hom_eval
from soficlab.perms import d_hamming
from soficlab.sofic import build_sigma, build_tilde_sigma, hom_defect
from soficlab.words import ProductWord, ReducedWord, random_reduced_word

family = build_hom_specs(7, 5, 3)
tilde = build_tilde_sigma(build_sigma(family))
print(f"product domain size: {tilde.domain.size:,}")
print(f"fixed-point budget 1/(2(r-1)) = 1/{2 * (family.r_p - 1)}")

rng = random.Random(2)
psi = family["psi"]
print("\nfixed fractions of sampled evaluations (left word nontrivial):")
shown = 0
while shown < 6:
    g = random_reduced_word(rng, list(tilde.left_names), rng.randint(1, 5))
    h = random_reduced_word(rng, list(tilde.right_names), rng.randint(0, 3))
    if hom_eval(psi, g).is_identity():
        continue
    shown += 1
    ff = tilde.eval(ProductWord(g, h)).fixed_fraction()
    print(f"  ({g!r}, {h!r}): {ff} = {float(ff):.2e}")

print("\nright translations displace every point:")
rho = family["rho"]
for name in tilde.right_names:
    if hom_eval(rho, ReducedWord.gen(name)).is_identity():
        continue
    d = d_hamming(tilde.eval(ProductWord(ReducedWord(), ReducedWord.gen(name))),
                  tilde.domain.identity_perm())
    print(f"  (e, {name}): distance from identity = {d.value}")

u = ProductWord(ReducedWord(), ReducedWord.gen("b3"))
v = ProductWord(ReducedWord.gen("t"), ReducedWord())
print("\ncommutator defect of (t, e) against (e, b3):",
      hom_defect(tilde, u, v).value,
      "(the second factor contributes none of it)")
