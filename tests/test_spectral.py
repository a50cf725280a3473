import math
import random
from fractions import Fraction

import numpy as np
import pytest

from soficlab.algebra import psl2_table
from soficlab.f3vectors import sp_count_exact, sp_shift_diff_exact, v_vector
from soficlab.groups import PairElement
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
    character_orbit_representatives,
    check_character_block_budget,
    cycle_graph,
    kazhdan_bounds,
    lambda2_estimate,
    pair_character_blocks,
    pair_product_cayley,
    tau_family_graph,
    tau_family_lambda2,
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
    # three restarts are too few: the estimate is still a finite number
    est = lambda2_estimate(cycle_graph(400), iterations=3, tolerance=1e-12, seed=3)
    assert not est.converged
    assert -1.0 <= est.lambda2 <= 1.0 and math.isfinite(est.residual)


def test_dense_adjacency_is_symmetric_stochastic():
    graph = cycle_graph(8)
    dense = graph.dense_adjacency()
    assert np.allclose(dense, dense.T)
    assert np.allclose(dense.sum(axis=1), 1.0)


def _random_pair_elements(p, r, seed):
    th, tk = psl2_table(p), psl2_table(r)
    rng = random.Random(seed)
    return [PairElement(th[rng.randrange(1, len(th))], tk[rng.randrange(1, len(tk))])
            for _ in range(2)]


def _pair_graph_3x5():
    # PSL2(3) x PSL2(5): 12 * 60 = 720 vertices, two random pair generators
    th, tk = psl2_table(3), psl2_table(5)
    elements = _random_pair_elements(3, 5, seed=4)
    return th, tk, elements, pair_product_cayley(th, tk, elements)


def test_pair_product_steps_match_object_products():
    th, tk, elements, graph = _pair_graph_3x5()
    assert (graph.size, graph.degree) == (720, 4)
    for i, el in enumerate(elements):
        # each generator is followed by its inverse
        for g, step in ((el, graph._steps[2 * i]), (el.inverse(), graph._steps[2 * i + 1])):
            expected = [th.index(g.left * th[x]) * len(tk) + tk.index(g.right * tk[y])
                        for x in range(len(th)) for y in range(len(tk))]
            assert step.images.tolist() == expected


def test_pair_product_matvec_matches_dense_adjacency():
    *_, graph = _pair_graph_3x5()
    dense = graph.dense_adjacency()
    assert np.allclose(dense, dense.T)
    v = np.random.default_rng(0).standard_normal(graph.size)
    assert np.allclose(graph.matvec(v), dense @ v)


@pytest.mark.parametrize("graph", [cycle_graph(n) for n in (3, 4, 5, 12, 100)]
                         + [_pair_graph_3x5()[3]],
                         ids=["cycle3", "cycle4", "cycle5", "cycle12", "cycle100",
                              "psl2_3x5"])
def test_lambda2_matches_dense_second_eigenvalue(graph):
    truth = np.linalg.eigvalsh(graph.dense_adjacency())[-2]
    est = lambda2_estimate(graph, tolerance=1e-10, seed=5)
    assert est.converged and est.residual <= 1e-10
    assert abs(est.lambda2 - truth) <= 1e-9


def test_pair_product_cayley_refuses_past_exact_budget():
    # p = 19: |PSL2(19)| * |PSL2(23)| = 3,420 * 6,072 = 20.8M vertices
    from soficlab.groups import ResourceBudgetError

    th, tk = psl2_table(19), psl2_table(23)
    with pytest.raises(ResourceBudgetError):
        pair_product_cayley(th, tk, [PairElement(th[1], tk[1])])


def test_tau_family_gap_positive(family7):
    est = lambda2_estimate(tau_family_graph(family7), iterations=2000,
                           tolerance=1e-8, seed=2)
    assert est.converged
    assert est.gap > 0.05  # frozen regression floor: measured 0.0955


def _dense_block(block):
    # column j is the block applied to the j-th unit vector
    return np.column_stack([block.matvec(e) for e in np.eye(block.size, dtype=block.dtype)])


def test_character_blocks_carry_the_whole_spectrum():
    # over all 3 * 5 characters of U_H x U_K the block spectra, with their
    # multiplicities, are the spectrum of the flat 720-vertex graph
    _, _, elements, graph = _pair_graph_3x5()
    characters = [(k, k2) for k in range(3) for k2 in range(5)]
    blocks = list(pair_character_blocks(3, 5, elements, characters))
    assert [b.size for b in blocks] == [4 * 12] * 15
    spectra = []
    for block in blocks:
        dense = _dense_block(block)
        assert np.allclose(dense, dense.conj().T)
        spectra.append(np.linalg.eigvalsh(dense))
    flat = np.linalg.eigvalsh(graph.dense_adjacency())
    assert np.abs(np.sort(np.concatenate(spectra)) - flat).max() <= 1e-10


def test_torus_orbits_and_conjugates_give_equal_blocks():
    # PSL2(5) x PSL2(7), 288-point blocks: the torus scales k by the squares
    # and conjugation negates (k, k'), so a block's spectrum is that of the
    # one representative of its class
    p, r = 5, 7
    elements = _random_pair_elements(p, r, seed=11)
    characters = [(k, k2) for k in range(p) for k2 in range(r)]
    spectra = {b.character: np.linalg.eigvalsh(_dense_block(b))
               for b in pair_character_blocks(p, r, elements, characters)}
    assert all(len(s) == 12 * 24 for s in spectra.values())

    def orbit(k, q):
        return {k * x * x % q for x in range(1, q)}

    reps = character_orbit_representatives(p, r)
    assert reps == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
    for k, k2 in characters:
        (rep,) = {c for c in reps for kk, kk2 in ((k, k2), (-k % p, -k2 % r))
                  if c[0] in orbit(kk, p) and c[1] in orbit(kk2, r)}
        assert np.abs(spectra[k, k2] - spectra[rep]).max() <= 1e-10


def test_trivial_character_block_alone_holds_the_constants():
    elements = _random_pair_elements(5, 7, seed=11)
    for block in pair_character_blocks(5, 7, elements):
        top = np.linalg.eigvalsh(_dense_block(block))[-1]
        assert block.deflate == (block.character == (0, 0))
        assert block.dtype == (np.float64 if block.deflate else np.complex128)
        assert (abs(top - 1.0) <= 1e-12) == block.deflate


def test_character_blocks_refuse_past_the_measured_budget():
    # p = 43 blocks (1,020,096 coset pairs) were measured; p = 61 blocks
    # (4,173,840) were not, and are refused before any table is built
    from soficlab.groups import ResourceBudgetError

    check_character_block_budget(43, 47)
    with pytest.raises(ResourceBudgetError):
        next(pair_character_blocks(61, 67, []))


def test_block_lambda2_matches_flat_graph_at_p7(family7):
    # the flat tau_family_graph value, converged on 110,880 vertices
    est = tau_family_lambda2(family7, seed=2)
    assert est.converged and est.residual <= 1e-8
    assert abs(est.lambda2 - 0.9044822283320535) <= 1e-12
    assert (est.size, est.degree) == (110_880, 4)


def test_block_lambda2_is_the_largest_block_estimate(family7, monkeypatch):
    import soficlab.spectral as spectral

    solve = spectral.lambda2_estimate
    seen = {}

    def recording(block, *args, **kwargs):
        seen[block.character] = solve(block, *args, **kwargs)
        return seen[block.character]

    monkeypatch.setattr(spectral, "lambda2_estimate", recording)
    est = tau_family_lambda2(family7, seed=2)
    # nine torus orbits; p = 7 and r = 11 are 3 mod 4, so conjugation pairs four
    assert list(seen) == [(0, 0), (0, 1), (1, 0), (1, 1), (1, 10)]
    blocks = seen.values()
    assert est.lambda2 == max(b.lambda2 for b in blocks)
    assert est.iterations == sum(b.iterations for b in blocks)
    assert est.residual == max(b.residual for b in blocks)


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
    from soficlab.perms import materialize
    from soficlab.sofic import ExactGpContext

    ctx: ExactGpContext = sigma7.meta["context"]
    g = family7["rho"].image("b3")
    mask_t = ctx.slab_mask()
    right = materialize(ctx.right_mult_inv(g))
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
