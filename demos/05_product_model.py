"""The product model: same defects, almost no fixed points.

Decorating every generator with an exact action on a second projective
factor K leaves all defect in the first coordinate while pushing the fixed
point fraction of any pair with a surviving left word below 1/(2(r-1)).
The product acts coordinatewise, so each of its values is read from the
G(p) model and the K model: a fixed fraction is f_G * f_K and a distance
is 1 - (1 - d_G)(1 - d_K).  The product domain has 242 million points;
nothing here materializes it.
"""

import random
from fractions import Fraction

from soficlab.groups import build_hom_specs, hom_eval
from soficlab.perms import d_hamming
from soficlab.sofic import build_sigma, build_tilde_sigma, fixed_count, hom_defect
from soficlab.words import ProductWord, ReducedWord, random_reduced_word

family = build_hom_specs(7, 5, 3)
sigma = build_sigma(family)
k_model = build_tilde_sigma(family)
print(f"product domain size: {sigma.domain.size * k_model.domain.size:,}")
print(f"fixed-point budget 1/(2(r-1)) = 1/{2 * (family.r_p - 1)}")

rng = random.Random(2)
psi = family["psi"]
print("\nfixed fractions of sampled evaluations (left word nontrivial):")
shown = 0
while shown < 6:
    g = random_reduced_word(rng, list(k_model.left_names), rng.randint(1, 5))
    h = random_reduced_word(rng, list(k_model.right_names), rng.randint(0, 3))
    if hom_eval(psi, g).is_identity():
        continue
    shown += 1
    pw = ProductWord(g, h)
    f_g = Fraction(fixed_count(family, pw), sigma.domain.size)
    ff = f_g * k_model.eval(pw).fixed_fraction()
    print(f"  ({g!r}, {h!r}): {ff} = {float(ff):.2e}")

print("\nright translations displace every point:")
rho = family["rho"]
for name in k_model.right_names:
    if hom_eval(rho, ReducedWord.gen(name)).is_identity():
        continue
    pw = ProductWord(ReducedWord(), ReducedWord.gen(name))
    d_g, d_k = (d_hamming(model.eval(pw), model.domain.identity_perm()).value
                for model in (sigma, k_model))
    print(f"  (e, {name}): distance from identity = {1 - (1 - d_g) * (1 - d_k)}")

u = ProductWord(ReducedWord(), ReducedWord.gen("b3"))
v = ProductWord(ReducedWord.gen("t"), ReducedWord())
d_g, d_k = (hom_defect(model, u, v).value for model in (sigma, k_model))
print("\ncommutator defect of (t, e) against (e, b3):", 1 - (1 - d_g) * (1 - d_k),
      "(the second factor contributes none of it)")
