import math
from fractions import Fraction

import numpy as np
import pytest

from soficlab.f3vectors import sp_count_exact, sp_shift_diff_exact, v_vector
from soficlab.perms import ExactPerm
from soficlab.smallgroups import (
    cyclic_table,
    left_regular_perms,
    subgroup_closure,
    symmetric_table,
)
from soficlab.spectral import (
    boundary_ratio_explicit,
    boundary_ratio_slab,
    cycle_graph,
    kazhdan_bounds,
    lambda2_estimate,
    tau_family_graph,
    verify_amplification,
)


def test_cycle_ground_truth():
    est = lambda2_estimate(cycle_graph(100), iterations=100_000, tolerance=1e-10, seed=0)
    assert est.converged
    assert abs(est.lambda2 - math.cos(2 * math.pi / 100)) <= 1e-6


def test_cycle_residual_decreases():
    est = lambda2_estimate(cycle_graph(60), iterations=100_000, tolerance=1e-10, seed=1)
    assert est.residual < est.first_residual


def test_two_point_graph_is_bipartite():
    est = lambda2_estimate(cycle_graph(2), iterations=100, tolerance=1e-12, seed=0)
    assert est.lambda2 == -1.0 and est.converged


def test_lambda2_within_unit_interval():
    for n in (3, 5, 12):
        est = lambda2_estimate(cycle_graph(n), iterations=50_000, tolerance=1e-9, seed=2)
        assert -1.0 <= est.lambda2 <= 1.0


def test_unconverged_estimate_is_flagged():
    est = lambda2_estimate(cycle_graph(400), iterations=3, tolerance=1e-12, seed=3)
    assert not est.converged


def test_dense_adjacency_is_symmetric_stochastic():
    graph = cycle_graph(8)
    dense = graph.dense_adjacency()
    assert np.allclose(dense, dense.T)
    assert np.allclose(dense.sum(axis=1), 1.0)


def test_tau_family_gap_positive(family7):
    est = lambda2_estimate(tau_family_graph(family7), iterations=2000,
                           tolerance=1e-8, seed=2)
    assert est.converged
    assert est.gap > 0.05  # frozen regression floor: measured 0.0955


def test_boundary_ratio_singleton():
    n = 12
    table = cyclic_table(n)
    mask = np.zeros(n, dtype=bool)
    mask[0] = True
    translations = {
        "g1": ExactPerm(table[:, 1].copy())  # x -> x + 1
    }
    out = boundary_ratio_explicit(mask, translations)
    assert out["max"] == Fraction(2, n)


def test_boundary_ratio_rejects_large_sets():
    mask = np.ones(10, dtype=bool)
    with pytest.raises(ValueError):
        boundary_ratio_explicit(mask, {})


def test_boundary_symdiff_equals_complement_symdiff():
    # |Tg symdiff T| = |T^c g symdiff T^c| pointwise, for any translation
    rng = np.random.default_rng(9)
    n = 240
    table = cyclic_table(n)
    mask = rng.random(n) < 0.3
    for g in (1, 7, 100):
        rt_inv = ExactPerm(table[:, (n - g) % n].copy())  # x -> x - g
        mask_tg = mask[rt_inv.images]
        comp_tg = (~mask)[rt_inv.images]
        assert int((mask ^ mask_tg).sum()) == int(((~mask) ^ comp_tg).sum())


def test_slab_boundary_undecorated_is_zero(family7):
    rho = family7["rho"]
    out = boundary_ratio_slab(7, {"b1": rho.image("b1"), "b2": rho.image("b2")})
    assert out["max"] == 0


def test_slab_boundary_decorated_matches_shift_count(family7):
    rho = family7["rho"]
    out = boundary_ratio_slab(7, {"b3": rho.image("b3")})
    assert out["max"] == Fraction(sp_shift_diff_exact(7, v_vector(7)), 3**7)


def test_slab_boundary_matches_brute_force(sigma7, family7):
    # |Tg symdiff T| / |G| against a full-domain count at p = 7
    from soficlab.sofic import ExactGpContext

    ctx: ExactGpContext = sigma7.meta["context"]
    g = family7["rho"].image("b3")
    mask_t = ctx.slab_mask()
    right = ctx.right_mult_inv(g)
    mask_tg = mask_t[right.images]
    brute = Fraction(int(np.count_nonzero(mask_t ^ mask_tg)), len(mask_t))
    assert boundary_ratio_slab(7, {"b3": g})["max"] == brute


def test_witness_ratio_bounded_by_density(family7):
    # |Tg symdiff T|/|T| <= 243 * (|S symdiff (S+v)| / 3^p) since the slab
    # fills at least 1/243 of the domain
    for p in (7, 13):
        diff = sp_shift_diff_exact(p, v_vector(p))
        witness_ratio = Fraction(diff, sp_count_exact(p))
        assert witness_ratio <= 243 * Fraction(diff, 3**p)


def test_kazhdan_two_point():
    kb = kazhdan_bounds(cyclic_table(2), [1], seed=0)
    assert abs(kb["direct"] - 2.0) <= 1e-9
    assert kb["lower"] - 1e-9 <= kb["direct"] <= kb["upper"] + 1e-9


def test_kazhdan_sandwich_sym3_all_generating_pairs():
    _, table = symmetric_table(3)
    tested = 0
    for g in range(1, 6):
        for h in range(g + 1, 6):
            if len(subgroup_closure(table, {g, h})) != 6:
                continue
            tested += 1
            kb = kazhdan_bounds(table, [g, h], seed=0)
            assert kb["lower"] - 1e-6 <= kb["direct"] <= kb["upper"] + 1e-3, (g, h, kb)
    assert tested >= 3


def test_kazhdan_twisted_pair_exceeds_naive_upper():
    # the squared constant for a transposition and a 3-cycle is 12/7, which
    # sits strictly above 2*gap = 3/2: the sum bound is the right ceiling
    _, table = symmetric_table(3)
    from math import sqrt

    for g in range(1, 6):
        for h in range(g + 1, 6):
            if len(subgroup_closure(table, {g, h})) != 6:
                continue
            kb = kazhdan_bounds(table, [g, h], seed=0)
            if abs(kb["gap"] - 0.75) < 1e-12:
                assert abs(kb["direct"] - sqrt(12 / 7)) <= 1e-6
                assert kb["direct"] > sqrt(2 * kb["gap"])
                return
    pytest.skip("no transposition-plus-3-cycle pair found in the element order")


def test_kazhdan_monotone_in_generating_set():
    _, table = symmetric_table(3)
    all_elements = list(range(1, 6))
    kb_all = kazhdan_bounds(table, all_elements, seed=0)
    kb_pair = kazhdan_bounds(table, [1, 3], seed=0)
    assert kb_all["direct"] >= kb_pair["direct"] - 1e-6


def test_amplification_z2_and_sym3():
    ok, witness = verify_amplification(cyclic_table(2), [1], trials=1000, seed=0,
                                       kappa=2.0)
    assert ok, witness
    _, table = symmetric_table(3)
    kb = kazhdan_bounds(table, [1, 3], seed=0)
    ok, witness = verify_amplification(table, [1, 3], trials=1000, seed=0,
                                       kappa=kb["lower"])
    assert ok, witness


def test_amplification_constant_vector_trivial():
    table = cyclic_table(4)
    perms = left_regular_perms(table, [1])
    xi = np.ones(4)
    assert np.linalg.norm(xi[perms[1]] - xi) == 0
