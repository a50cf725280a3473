"""Almost-invariant partitions are almost coset partitions.

Planting the left cosets of a subgroup, perturbing a few labels, and
asking which subgroup fits best recovers the plant; on the big product
domain the same question about the six candidate normal subgroups is
answered exactly in closed form, without touching the 242 million points.
"""

import numpy as np

from soficlab.algebra import psl2_order
from soficlab.groups import build_hom_specs
from soficlab.partitions import (
    CANDIDATE_KEY_DIMS,
    CylinderPartition,
    LabeledPartition,
    classify_candidates,
    coset_fit,
    eta_overlap,
    invariance_defect,
    relabel_noise,
)
from soficlab.perms import ExactPerm
from soficlab.smallgroups import all_subgroups, cyclic_table, left_coset_ids

table = cyclic_table(12)
sub = frozenset({0, 3, 6, 9})
ids = left_coset_ids(table, sub)
part = LabeledPartition(ids)
shift = ExactPerm((np.arange(12) + 1) % 12)
print("cosets of the order-4 subgroup of the 12-cycle, shifted by +1:")
print("  invariance defect:", invariance_defect(part, shift)["defect"])
print("  overlap functional:", eta_overlap(part, shift))

print("\nfits against every subgroup (residual 0 only at the plant):")
for cand in all_subgroups(table):
    fit = coset_fit(part, left_coset_ids(table, cand), subgroup=str(sorted(cand)),
                    subgroup_order=len(cand))
    print(f"  order {len(cand):>2}: residual {fit.residual}")

rng = np.random.default_rng(0)
noisy = relabel_noise(part, 0.08, rng)
fit = coset_fit(noisy, ids, subgroup_order=4)
print(f"\nwith 8% of labels corrupted the residual is {fit.residual} (<= 0.16)")

family = build_hom_specs(7, 5, 3)
sizes = (3**7, psl2_order(7), psl2_order(family.r_p))
print(f"\nsix-candidate classification on the product domain {sizes}:")
for name, dims in CANDIDATE_KEY_DIMS.items():
    ranked = classify_candidates(CylinderPartition(sizes, dims))
    ladder = ", ".join(f"{h.subgroup}={h.residual}" for h in ranked[:3])
    print(f"  planted {name:<10} -> {ladder}, ...")
