"""soficlab: exact constructions and desk-scale verification of
almost-multiplicative permutation models of F_m x F_k.

The package builds a family of finite groups G(p) = A(p) x| PSL2(F_p)
(zero-sum F_3 vectors under the projective coordinate action), maps free
groups onto them, turns the maps into permutation models whose only
defect is carried by one distinguished letter, and measures everything
that makes the construction work: exact subset counts, Hamming defects,
fixed-point fractions, spectral gaps, coset-partition recovery, and the
branched-cover and induction operations that transport models between
groups.
"""

from .algebra import (
    PSL2Element,
    centralizer_fraction,
    next_prime,
    psl2_order,
    psl2_table,
)
from .f3vectors import (
    ApVector,
    TypeCount,
    ap_unindex,
    disjointness_check_ap_shift,
    h_act,
    invariant_closure_dim,
    sp_count_exact,
    sp_shift_diff_exact,
)
from .groups import (
    GpElement,
    HomFamily,
    HomSpec,
    PairElement,
    bfs_closure_order,
    build_hom_specs,
    hom_eval,
    verify_surjectivity,
)
from .perms import DHEstimate, ExactPerm, ImplicitPerm, d_hamming
from .sofic import (
    AsymptoticHom,
    BranchedCover,
    build_sigma,
    build_tilde_sigma,
    extract_almost_cocycle,
    hom_defect,
    induce_approximation,
    four_condition_report,
    lift_branched_cover,
)
from .spectral import (
    CayleyGraph,
    SpectrumEstimate,
    boundary_ratio_slab,
    kazhdan_bounds,
    lambda2_estimate,
    verify_amplification,
)
from .partitions import (
    CylinderPartition,
    LabeledPartition,
    classify_candidates,
    coset_fit,
    eta_overlap,
    invariance_defect,
)
from .words import ProductWord, ReducedWord

__version__ = "0.1.0"
