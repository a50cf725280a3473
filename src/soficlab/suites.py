"""Named verification suites and measurement tables.

Each suite builds the objects it checks, runs every check at its stated
bound, and returns a RunReport; the command-line driver and the test
suite both call these, so a green report here and a green test run mean
the same thing.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from .algebra import centralizer_fraction_max, next_prime, psl2_order
from .f3vectors import sp_count_exact
from .groups import ResourceBudgetError, build_hom_specs, hom_eval
from .partitions import (
    CANDIDATE_KEY_DIMS,
    CylinderPartition,
    LabeledPartition,
    classify_candidates,
    coset_fit,
    coset_fits,
    eta_overlap,
    invariance_defect,
    relabel_noise,
)
from .perms import ExactPerm, d_hamming
from .report import RunReport
from .smallgroups import (
    all_subgroups,
    cyclic_table,
    left_coset_ids,
    subgroup_closure,
    symmetric_table,
)
from .sofic import (
    DEFECT_THRESHOLD,
    build_sigma,
    build_tilde_sigma,
    cocycle_reconstruct,
    extract_almost_cocycle,
    fixed_count,
    induce_approximation,
    four_condition_report,
    gp_mode,
    lift_branched_cover,
    random_cover,
    SchreierSystem,
    t_commutator_defect,
)
from .spectral import (
    boundary_ratio_slab,
    check_pair_budget,
    cycle_graph,
    kazhdan_bounds,
    lambda2_estimate,
    tau_family_lambda2,
    verify_amplification,
)
from .words import ProductWord, ReducedWord, random_reduced_word

DEFAULT_PRIMES = (7, 13, 19, 31, 37)
# the free ranks of F_m x F_k that every suite and table builds
M, K = 5, 3


# -- suite: the four conditions at p = 7 ------------------------------------

def suite_four_conditions(p=7) -> RunReport:
    rep = RunReport("verify four-conditions", {"p": p, "m": M, "k": K})
    if gp_mode(p) != "exact":
        raise ResourceBudgetError("the four-condition report counts on an enumerable G(p)")
    sigma = build_sigma(build_hom_specs(p, M, K))
    out = four_condition_report(sigma)
    # t o t = id on every point: the t image is a bijection
    rep.add_check("t-image-bijection", out["t_involution"], True, out["t_involution"],
                  domain=sigma.domain.size)
    rep.add_check("no-t-word-pairs-defect", out["cond1_defect_max"], 0,
                  out["cond1_defect_max"] == 0, pairs=out["cond1_pairs"])
    rep.add_check("t-fixed-fraction", out["cond2_fixed_fraction"], Fraction(1, 3),
                  out["cond2_fixed_fraction"] >= Fraction(1, 3))
    witness = out["cond3_witness"]
    rep.add_check(
        "commutator-witness-found", witness["defect"] if witness else 0,
        DEFECT_THRESHOLD, witness is not None,
        word=witness["word"] if witness else None,
        searched=out["cond3_words_searched"],
        word_cap=out["cond3_word_cap"],
        cap_reached=out["cond3_cap_reached"],
    )
    all_respect = all(t["respects_bound"] for t in out["cond3_tested"])
    rep.add_check("commutator-defect-vs-displacement-bound", all_respect, True,
                  all_respect, tested=len(out["cond3_tested"]))
    rep.add_check("slice-displacement-min", out["cond4_min_displacement"],
                  DEFECT_THRESHOLD,
                  out["cond4_min_displacement"] >= DEFECT_THRESHOLD)
    return rep.finish()


# -- suite: the product model moves almost everything ------------------------

def _random_nontrivial_word(rng, names, max_len, reject):
    for _ in range(200):
        w = random_reduced_word(rng, names, rng.randint(1, max_len))
        if not reject(w):
            return w
    raise RuntimeError("could not sample a word outside the rejected set")


def suite_soficity(p=7, seed=1) -> RunReport:
    n_pairs, n_right = 50, 20
    rep = RunReport("verify soficity", {"p": p, "m": M, "k": K, "seed": seed})
    if gp_mode(p) != "exact":
        raise ResourceBudgetError("the soficity suite counts f_G on an enumerable G(p)")
    family = build_hom_specs(p, M, K)
    g_size = 3**p * psl2_order(p)
    k_model = build_tilde_sigma(family)
    r_p = family.r_p
    bound = Fraction(1, 2 * (r_p - 1))
    rng = random.Random(seed)
    psi, rho = family["psi"], family["rho"]
    left = list(k_model.left_names)
    right = list(k_model.right_names)

    # centralizer bound on several moduli
    for q in (5, 7, 11, 13):
        worst = centralizer_fraction_max(q)
        rep.add_check(f"centralizer-fraction-max-q{q}", worst,
                      Fraction(1, 2 * (q - 1)), worst <= Fraction(1, 2 * (q - 1)))

    # A product word fixes (x, y) exactly when its G(p) factor fixes x and
    # its K factor fixes y, so its fixed fraction is f_K * f_G.  The K word
    # (660 points at p = 7) is evaluated first: when it fixes no point the
    # product fixes none, whatever the G(p) factor does, so f_G is counted
    # only when f_K > 0, on the implicit G(p) maps block by block
    # (sofic.fixed_count), with no G(p) image array built.
    def fixed_fraction(pw):
        f_k = k_model.eval(pw).fixed_fraction()
        return f_k * Fraction(fixed_count(family, pw), g_size) if f_k else f_k

    # fixed fractions of the evaluated model; the left word must survive in
    # the second factor, which is how "large enough p" reads at fixed p
    worst = Fraction(0)
    for _ in range(n_pairs):
        g = _random_nontrivial_word(
            rng, left, 6, reject=lambda w: hom_eval(psi, w).is_identity()
        )
        h = random_reduced_word(rng, right, rng.randint(0, 4))
        worst = max(worst, fixed_fraction(ProductWord(g, h)))
    rep.add_check("fixed-fraction-nontrivial-left", worst, bound, worst <= bound,
                  pairs=n_pairs, seed=seed)

    # purely right translations displace every point
    ok = True
    for _ in range(n_right):
        h = _random_nontrivial_word(
            rng, right, 5, reject=lambda w: hom_eval(rho, w).is_identity()
        )
        ok = ok and fixed_fraction(ProductWord(ReducedWord(), h)) == 0
    rep.add_check("right-translation-displacement", 1 if ok else 0, 1, ok,
                  words=n_right, seed=seed)
    return rep.finish()


# -- suite: branched covers --------------------------------------------------

def suite_covers(seed=42) -> RunReport:
    n_instances, max_points = 100, 10_000
    rep = RunReport("verify covers", {"seed": seed, "instances": n_instances})
    rng = np.random.default_rng(seed)

    intertwine_ok = True
    distance_ok = True
    monotone_ok = True
    for _ in range(n_instances):
        n_base = int(rng.integers(10, 200))
        d = int(rng.integers(1, 11))
        while n_base * d > max_points:
            n_base //= 2
        cover = random_cover(rng, n_base, d)
        n = n_base * d
        sigma = ExactPerm(rng.permutation(n).astype(np.int64))
        tau = ExactPerm(rng.permutation(n_base).astype(np.int64))
        lifted = lift_branched_cover(sigma, tau, cover)
        intertwine_ok &= bool(
            np.array_equal(cover.theta[lifted.images], tau.images[cover.theta])
        )
        moved = d_hamming(lifted, sigma).value
        budget = Fraction(
            int(np.count_nonzero(cover.theta[sigma.images] != tau.images[cover.theta])), n
        )
        distance_ok &= moved <= budget
        monotone_ok &= (1 - lifted.fixed_fraction()) >= (1 - tau.fixed_fraction())
    rep.add_check("lift-intertwines-exactly", intertwine_ok, True, intertwine_ok)
    rep.add_check("lift-distance-within-budget", distance_ok, True, distance_ok)
    rep.add_check("displacement-monotone-under-cover", monotone_ok, True, monotone_ok)

    # fixed point: an already-commuting permutation lifts to itself
    cover = random_cover(rng, 60, 5)
    tau = ExactPerm(rng.permutation(60).astype(np.int64))
    c_rows = np.stack([_random_perm_rows(rng, 5) for _ in range(60)])
    sigma = cocycle_reconstruct(c_rows, tau, cover)
    rep.add_check(
        "lift-fixes-exact-cover", True, True,
        np.array_equal(lift_branched_cover(sigma, tau, cover).images, sigma.images),
    )

    # degenerate fiber: theta a bijection forces conjugation
    cover1 = random_cover(rng, 100, 1)
    tau1 = ExactPerm(rng.permutation(100).astype(np.int64))
    sigma1 = ExactPerm(rng.permutation(100).astype(np.int64))
    lifted1 = lift_branched_cover(sigma1, tau1, cover1)
    theta_inv = np.argsort(cover1.theta)
    expected = theta_inv[tau1.images[cover1.theta]]
    rep.add_check("bijective-cover-forces-conjugate", True, True,
                  np.array_equal(lifted1.images, expected))

    # cocycle extraction: a reconstruction from genuine cocycle data has
    # zero defect and reproduces the permutations pointwise
    cover = random_cover(rng, 80, 6)
    tau_g = ExactPerm(rng.permutation(80).astype(np.int64))
    tau_h = ExactPerm(rng.permutation(80).astype(np.int64))
    c_g = np.stack([_random_perm_rows(rng, 6) for _ in range(80)])
    c_h = np.stack([_random_perm_rows(rng, 6) for _ in range(80)])
    c_gh = c_g[tau_h.images][np.arange(80)[:, None], c_h]
    sig = {
        "g": cocycle_reconstruct(c_g, tau_g, cover),
        "h": cocycle_reconstruct(c_h, tau_h, cover),
        "gh": cocycle_reconstruct(c_gh, tau_g.compose(tau_h), cover),
    }
    tau = {"g": tau_g, "h": tau_h, "gh": tau_g.compose(tau_h)}
    out = extract_almost_cocycle(sig, tau, cover, pairs=[("g", "h", "gh")])
    rep.add_check("cocycle-roundtrip-defect", out["cocycle_defect"][("g", "h", "gh")],
                  0, out["cocycle_defect"][("g", "h", "gh")] == 0)
    recovered = all(np.array_equal(out["c"][name], c)
                    for name, c in (("g", c_g), ("h", c_h), ("gh", c_gh)))
    rep.add_check("cocycle-tables-recovered", recovered, True, recovered)

    # identity cocycle from a product permutation
    prod = cocycle_reconstruct(
        np.tile(np.arange(6), (80, 1)), tau_g, cover
    )
    out2 = extract_almost_cocycle({"g": prod}, {"g": tau_g}, cover)
    ident_c = bool(np.all(out2["c"]["g"] == np.arange(6)))
    rep.add_check("product-permutation-has-identity-cocycle", ident_c, True, ident_c)
    return rep.finish()


def _random_perm_rows(rng, d):
    return rng.permutation(d).astype(np.int64)


# -- suite: induction through a coset system ---------------------------------

def _is_hom_eval(perm: ExactPerm, spec, word: ReducedWord) -> bool:
    """perm == hom_eval(spec, word); the empty word's image, the identity,
    is checked without being composed."""
    if not len(word):
        return perm.is_identity()
    return bool(np.array_equal(perm.images, hom_eval(spec, word).images))


def suite_induction(seed=5) -> RunReport:
    n_triples, fiber = 1000, 60
    rep = RunReport("verify induction", {"seed": seed, "triples": n_triples})
    rng = random.Random(seed)
    np_rng = np.random.default_rng(seed)

    # index-4 transitive action of two free letters
    action = {"x": [1, 2, 3, 0], "y": [1, 0, 3, 2]}
    schreier = SchreierSystem(action)
    gens = schreier.schreier_generators()
    rep.add_check("schreier-rank", len(gens), 1 + 4 * (2 - 1),
                  len(gens) == 1 + 4 * (2 - 1))

    ok_section = all(schreier.act(schreier.section[i], 0) == i for i in range(4))
    rep.add_check("section-lands-in-cosets", ok_section, True,
                  ok_section and schreier.section[0].is_identity())

    # exact cocycle identity on random triples
    names = list(action)
    ok = True
    for _ in range(n_triples):
        u = random_reduced_word(rng, names, rng.randint(0, 6))
        v = random_reduced_word(rng, names, rng.randint(0, 6))
        i = rng.randrange(4)
        lhs = schreier.cocycle(u * v, i)
        rhs = schreier.cocycle(u, schreier.act(v, i)) * schreier.cocycle(v, i)
        ok &= lhs == rhs
    rep.add_check("cocycle-identity-exact", ok, True, ok, triples=n_triples)

    # a homomorphism induces with zero defect
    images = {g: ExactPerm(np_rng.permutation(fiber).astype(np.int64)) for g in gens}
    induced = induce_approximation(action, images)
    defect_ok = True
    for _ in range(25):
        u = random_reduced_word(rng, names, rng.randint(0, 5))
        v = random_reduced_word(rng, names, rng.randint(0, 5))
        d = d_hamming(induced.eval(u).compose(induced.eval(v)), induced.eval(u * v))
        defect_ok &= d.value == 0
    rep.add_check("induced-homomorphism-defect", 0 if defect_ok else 1, 0, defect_ok)

    # restriction of subgroup words to the trivial-coset block
    restr_ok = True
    for _ in range(25):
        w = random_reduced_word(rng, names, rng.randint(0, 6))
        w_sub = schreier.cocycle_in_ambient(w, 0)  # always a subgroup word
        block = induced.restriction_to_trivial_coset(w_sub)
        restr_ok &= _is_hom_eval(block, induced.sigma0, schreier.cocycle(w_sub, 0))
    rep.add_check("restriction-matches-subgroup-model", restr_ok, True, restr_ok)

    # index 1: inducing changes nothing
    triv = SchreierSystem({"x": [0], "y": [0]})
    g1 = triv.schreier_generators()
    images1 = {g: ExactPerm(np_rng.permutation(40).astype(np.int64)) for g in g1}
    ind1 = induce_approximation({"x": [0], "y": [0]}, images1)
    same = True
    for _ in range(10):
        w = random_reduced_word(rng, names, rng.randint(0, 6))
        renamed = ReducedWord(tuple((f"{g}|0", s) for g, s in w.letters))
        same &= _is_hom_eval(ind1.eval(w), ind1.sigma0, renamed)
    rep.add_check("index-one-identity", same, True, same)
    return rep.finish()


# -- suite: partitions --------------------------------------------------------

def suite_partition(seed=3, p=7) -> RunReport:
    rep = RunReport("verify partition", {"seed": seed, "p": p})
    np_rng = np.random.default_rng(seed)

    # planted cosets recover exactly on two small groups, against the
    # brute-force subgroup inventory
    for label, table in (("cyclic12", cyclic_table(12)), ("sym4", symmetric_table(4))):
        subgroups = all_subgroups(table)
        # every planted subgroup is fitted against all candidates in one pass
        coset_ids = np.stack([left_coset_ids(table, sub) for sub in subgroups])
        names = [str(sorted(cand)) for cand in subgroups]
        orders = [len(cand) for cand in subgroups]
        exact_ok = True
        strict_ok = True
        for i, planted in enumerate(coset_ids):
            fits = coset_fits(LabeledPartition(planted), coset_ids, names, orders)
            exact_ok &= fits[i].residual == 0
            strict_ok &= all(f.residual > 0 for j, f in enumerate(fits) if j != i)
        rep.add_check(f"planted-coset-recovery-{label}", exact_ok, True, exact_ok,
                      subgroups=len(subgroups))
        rep.add_check(f"planted-recovery-strict-minimum-{label}", strict_ok, True,
                      strict_ok)

    # noise tolerance on a synthetic coset structure
    n, blocks = 10_000, 20
    ids = np.arange(n) // (n // blocks)
    for eps in (0.01, 0.05):
        bound = 2 * Fraction(eps).limit_denominator(10**6)
        noisy = relabel_noise(LabeledPartition(ids), eps, np_rng)
        fit = coset_fit(noisy, ids, subgroup_order=n // blocks)
        rep.add_check(f"noise-residual-eps-{eps}", fit.residual, bound,
                      fit.residual <= bound)

    # overlap functional sanity
    part12 = LabeledPartition(left_coset_ids(cyclic_table(12), range(0, 12, 3)))
    shift = ExactPerm((np.arange(12) + 1) % 12)
    ov = eta_overlap(part12, shift)
    rep.add_check("overlap-of-block-permuting-map", ov, 1.0, ov == 1.0)
    dv = invariance_defect(part12, shift)["defect"]
    rep.add_check("defect-of-block-permuting-map", dv, 0, dv == 0)

    # the six product candidates, each planted as a fiber partition
    sizes = (3**p, psl2_order(p), psl2_order(next_prime(p)))
    six_ok = True
    strict6 = True
    for name, dims in CANDIDATE_KEY_DIMS.items():
        ranked = classify_candidates(CylinderPartition(sizes, dims))
        six_ok &= ranked[0].subgroup == name and ranked[0].residual == 0
        strict6 &= all(h.residual > 0 for h in ranked[1:])
    rep.add_check("six-candidate-recovery", six_ok, True, six_ok, domain=str(sizes))
    rep.add_check("six-candidate-strict-separation", strict6, True, strict6)
    return rep.finish()


# -- suite: small spectral oracles --------------------------------------------

def suite_spectral_small(seed=2) -> RunReport:
    rep = RunReport("verify spectral-small", {"seed": seed})

    est = lambda2_estimate(cycle_graph(100), iterations=100_000, tolerance=1e-10,
                           seed=seed)
    truth = math.cos(2 * math.pi / 100)
    rep.add_check("circulant-lambda2", est.lambda2, truth,
                  abs(est.lambda2 - truth) <= 1e-6, residual=est.residual,
                  iterations=est.iterations, seed=seed)
    rep.add_check("circulant-residual-decreased", est.residual,
                  est.first_residual, est.residual < est.first_residual)

    two = lambda2_estimate(cycle_graph(2), iterations=50, tolerance=1e-12, seed=seed)
    rep.add_check("two-point-lambda2", two.lambda2, -1.0, two.lambda2 == -1.0)

    z2 = cyclic_table(2)
    kb = kazhdan_bounds(z2, [1], seed=seed)
    rep.add_check("two-point-kazhdan-direct", kb["direct"], 2.0,
                  abs(kb["direct"] - 2.0) <= 1e-9)
    rep.add_check(
        "two-point-kazhdan-sandwich", (kb["lower"], kb["direct"], kb["upper"]), None,
        kb["lower"] - 1e-9 <= kb["direct"] <= kb["upper"] + 1e-9,
    )
    ok2, _ = verify_amplification(z2, [1], trials=1000, seed=seed, kappa=kb["direct"])
    rep.add_check("two-point-amplification", ok2, True, ok2, trials=1000, seed=seed)

    s3 = symmetric_table(3)
    gens3 = _generating_pair(s3)
    kb3 = kazhdan_bounds(s3, gens3, seed=seed)
    rep.add_check(
        "sym3-kazhdan-sandwich", (kb3["lower"], kb3["direct"], kb3["upper"]), None,
        kb3["lower"] - 1e-6 <= kb3["direct"] <= kb3["upper"] + 1e-3,
    )
    ok3, _ = verify_amplification(s3, gens3, trials=1000, seed=seed,
                                  kappa=kb3["lower"])
    rep.add_check("sym3-amplification", ok3, True, ok3, trials=1000, seed=seed)
    return rep.finish()


def _generating_pair(table) -> list:
    n = len(table)
    for g in range(1, n):
        for h in range(g + 1, n):
            if len(subgroup_closure(table, {g, h})) == n:
                return [g, h]
    raise ValueError("no generating pair")


SUITES = {
    "four-conditions": suite_four_conditions,
    "soficity": suite_soficity,
    "covers": suite_covers,
    "induction": suite_induction,
    "partition": suite_partition,
    "spectral-small": suite_spectral_small,
}


# -- measurement tables -------------------------------------------------------

def measure_boundary(primes=DEFAULT_PRIMES) -> list:
    """Exact slab boundary ratios per right generator and prime."""
    rows = []
    for p in primes:
        family = build_hom_specs(p, M, K)
        rho = family["rho"]
        ratios = boundary_ratio_slab(
            {name: rho.image(name) for name in rho.gen_names}
        )["per_generator"]
        slab = sp_count_exact(p)
        for name in rho.gen_names:
            ratio = ratios[name]
            rows.append(
                {
                    "p": p,
                    "generator": name,
                    "family": "decorated" if ratio > 0 else "undecorated",
                    "ratio_domain": ratio,
                    "ratio_witness": Fraction(ratio.numerator * 3**p,
                                              ratio.denominator * slab),
                    "sqrt_p_scaled": float(ratio) * math.sqrt(p),
                    "mode": "exact",
                }
            )
    return rows


def measure_defect(primes=DEFAULT_PRIMES, samples=50_000, seed=17) -> list:
    """Commutator defect of the t image against the decorated right
    generator, read as the fraction of points whose slab region the
    generator changes (sofic.t_commutator_defect): exact on enumerable
    domains, sampled elsewhere.  Each estimate's temporaries die inside
    its call, so one prime's sample never outlives its row."""
    rows = []
    word = ReducedWord.gen(f"b{K}")
    for p in primes:
        family = build_hom_specs(p, M, K)
        if gp_mode(p) == "exact":
            est = t_commutator_defect(family, word)
            rows.append({"p": p, "mode": "exact", "value": est.value,
                         "radius": 0.0, "samples": None, "seed": None})
        est = t_commutator_defect(family, word, samples=samples, seed=seed + p)
        rows.append({"p": p, "mode": "sampled", "value": est.value,
                     "radius": est.radius, "samples": samples, "seed": seed + p})
    return rows


def measure_spectra(primes=DEFAULT_PRIMES, seed=2) -> list:
    """Gap of the paired-projective Cayley graphs on the undecorated left
    generators, from the irreducible representation pairs of
    PSL2(F_p) x PSL2(F_r); columns follow the documented CSV layout, N is
    the vertex count of the flat graph and pair the pair that attains
    lambda2.  Every prime's pair size is checked before the first table is
    built."""
    for p in primes:
        check_pair_budget(p, next_prime(p))
    rows = []
    for p in primes:
        est = tau_family_lambda2(build_hom_specs(p, M, K), seed=seed)
        rows.append(
            {
                "p": p,
                "family": "paired-projective",
                "N": est.size,
                "degree": est.degree,
                "lambda2": est.lambda2,
                "gap": est.gap,
                "residual": est.residual,
                "iterations": est.iterations,
                "converged": est.converged,
                "seed": seed,
                "pair": est.pair,
            }
        )
    return rows
