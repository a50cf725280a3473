"""Transporting permutation models: covers downward, induction upward.

A fiber map between domains lets a model upstairs be repaired to commute
exactly with a model downstairs at a cost no larger than the measured
mismatch; once it commutes, it decomposes into the base action plus a
fiber cocycle.  In the other direction, a model of a finite-index
subgroup induces one of the whole group through a coset section.
"""

import numpy as np

from soficlab.perms import ExactPerm, d_hamming
from soficlab.sofic import (
    SchreierSystem,
    extract_almost_cocycle,
    induce_approximation,
    lift_branched_cover,
    random_cover,
)
from soficlab.words import random_reduced_word

rng = np.random.default_rng(0)

cover = random_cover(rng, 100, 8)
sigma = ExactPerm(rng.permutation(800).astype(np.int64))
tau = ExactPerm(rng.permutation(100).astype(np.int64))
mismatch = (cover.theta[sigma.images] != tau.images[cover.theta]).mean()
lifted = lift_branched_cover(sigma, tau, cover)
print(f"random 8-to-1 cover of 100 points: raw mismatch {mismatch:.3f}")
print(f"lift moved d_H(sigma', sigma) = {float(d_hamming(lifted, sigma).value):.3f}"
      f" (never more than the mismatch)")
print("lift commutes exactly:",
      bool(np.array_equal(cover.theta[lifted.images], tau.images[cover.theta])))

out = extract_almost_cocycle({"g": lifted}, {"g": tau}, cover)
print("extracted fiber cocycle table shape:", out["c"]["g"].shape)

print("\ninduction through the index-4 coset action x -> 4-cycle, y -> double flip:")
action = {"x": [1, 2, 3, 0], "y": [1, 0, 3, 2]}
schreier = SchreierSystem(action)
print("  subgroup rank:", len(schreier.schreier_generators()),
      "| section words:", [repr(w) for w in schreier.section])
images = {g: ExactPerm(rng.permutation(30).astype(np.int64))
          for g in schreier.schreier_generators()}
induced = induce_approximation(action, images)

import random
pyrng = random.Random(0)
u = random_reduced_word(pyrng, ("x", "y"), 4)
v = random_reduced_word(pyrng, ("x", "y"), 4)
d = d_hamming(induced.eval(u).compose(induced.eval(v)), induced.eval(u * v))
print(f"  defect of the induced model on ({u!r}, {v!r}): {d.value} "
      "(zero: the subgroup model is a homomorphism)")
w = schreier.cocycle_in_ambient(random_reduced_word(pyrng, ("x", "y"), 5), 0)
print(f"  a subgroup word: {w!r}")
print("  its rewriting over the subgroup's free letters:",
      repr(schreier.cocycle(w, 0)))
