import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from soficlab.algebra import _entry_mul, psl2_order, psl2_table
from soficlab.f3vectors import sp_count_exact, sp_shift_diff_exact, v_vector
from soficlab.groups import PairElement
from soficlab.perms import ExactPerm
from soficlab import spectral
from soficlab.smallgroups import (
    cyclic_table,
    inverse_index,
    subgroup_closure,
    symmetric_table,
)
from soficlab.spectral import (
    DENSE_PAIR_LIMIT,
    _kazhdan_constraints,
    PairOperator,
    boundary_ratio_slab,
    check_pair_budget,
    cycle_graph,
    irreducible_representations,
    kazhdan_bounds,
    lambda2_estimate,
    pair_product_cayley,
    tau_family_graph,
    tau_family_lambda2,
    verify_amplification,
)

from conftest import slab_mask


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


QS = (3, 5, 7, 11, 13)


def _halves(q):
    # the operator that carries the two half-size representations
    return f"principal:j={(q - 1) // 2}" if q % 4 == 1 else f"cuspidal:n={(q + 1) // 2}"


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from(QS), data=st.data())
def test_representations_are_unitary_homomorphisms(q, data):
    table = psl2_table(q)
    g, h = (table[data.draw(st.integers(0, len(table) - 1))] for _ in range(2))
    sign = data.draw(st.sampled_from((1, -1)))
    # g with either sign, h, the unreduced product g h, and -I
    rows = [[sign * x for x in g.entries()], h.entries(),
            _entry_mul(g.entries(), h.entries()), (-1, 0, 0, -1)]
    for rep in irreducible_representations(q, rows):
        pg, ph, pgh, minus = rep.matrices
        eye = np.eye(rep.dim)
        assert np.abs(pg @ ph - pgh).max() <= 1e-12, rep.label
        assert np.abs(pg @ pg.conj().T - eye).max() <= 1e-12, rep.label
        assert np.abs(minus - eye).max() <= 1e-12, rep.label


@pytest.mark.parametrize("q", QS)
def test_representations_fill_the_group(q):
    # j = 0 is 1 + Steinberg and the halves count as two representations,
    # so the squared dimensions sum to |PSL2(F_q)| over (q + 5)/2 of them
    reps = irreducible_representations(q, [(1, 0, 0, 1)])
    labels = [rep.label for rep in reps]
    assert labels[0] == "principal:j=0" and _halves(q) in labels
    squares = [1 + q * q if rep.constants else 2 * (rep.dim // 2) ** 2
               if rep.label == _halves(q) else rep.dim ** 2 for rep in reps]
    assert sum(squares) == psl2_order(q)
    assert len(reps) + 2 == (q + 5) // 2
    # over the whole group the characters are orthogonal, and each has
    # norm 2 exactly where it holds two irreducibles
    chars = np.array([np.trace(rep.matrices, axis1=1, axis2=2)
                      for rep in irreducible_representations(q, psl2_table(q).entries.T)])
    gram = chars.conj() @ chars.T / psl2_order(q)
    expected = np.diag([2.0 if rep.constants or rep.label == _halves(q) else 1.0
                        for rep in reps])
    assert np.abs(gram - expected).max() <= 1e-10


def _pair_operators(p, r, elements):
    steps = [s for el in elements for s in (el, el.inverse())]
    lefts = irreducible_representations(p, [s.left.entries() for s in steps])
    rights = irreducible_representations(r, [s.right.entries() for s in steps])
    return [PairOperator(a, b) for a in lefts for b in rights]


def test_pair_spectra_are_the_flat_spectrum():
    # PSL2(3) x PSL2(5): the pair spectra together are the distinct
    # eigenvalues of the 720-vertex graph
    _, _, elements, graph = _pair_graph_3x5()
    flat = np.linalg.eigvalsh(graph.dense_adjacency())
    ops = _pair_operators(3, 5, elements)
    assert len(ops) == 2 * 3
    spectra = []
    for op in ops:
        dense = op.dense()
        assert np.allclose(dense, dense.conj().T)
        v = np.random.default_rng(1).standard_normal(op.size) + 0j
        assert np.allclose(op.matvec(v), dense @ v)
        spectra.append(np.linalg.eigvalsh(dense))
        # only the pair of the two trivial-character principal series holds
        # the constants
        assert op.deflate == (abs(spectra[-1][-1] - 1.0) <= 1e-12)
    pairs = np.concatenate(spectra)
    assert np.abs(pairs[:, None] - flat[None, :]).min(axis=0).max() <= 1e-10
    assert np.abs(pairs[:, None] - flat[None, :]).min(axis=1).max() <= 1e-10
    assert [op.deflate for op in ops] == [True] + [False] * 5


def test_pair_label_names_the_trivial_or_steinberg_part():
    _, _, elements, _ = _pair_graph_3x5()
    op = _pair_operators(3, 5, elements)[0]
    # constants on one factor, mean zero on the other
    top = np.outer(np.ones(4), [1, -1, 0, 0, 0, 0])
    assert op.label(top.ravel()) == "principal:j=0(trivial) x principal:j=0(steinberg)"
    top = np.outer([1, -1, 0, 0], np.ones(6))
    assert op.label(top.ravel()) == "principal:j=0(steinberg) x principal:j=0(trivial)"


def test_block_lambda2_matches_flat_graph_at_p7(family7):
    # each representation pair is one block of the adjacency operator; the
    # flat tau_family_graph value, converged on 110,880 vertices, is their
    # maximum, and every p = 7 pair is solved densely with one application
    est = tau_family_lambda2(family7, seed=2)
    assert est.converged and est.residual <= 1e-8
    assert abs(est.lambda2 - 0.9044822283320535) <= 1e-12
    assert (est.size, est.degree) == (110_880, 4)
    assert (est.pairs, est.largest_pair, est.iterations) == (24, 96, 24)
    assert est.largest_pair <= DENSE_PAIR_LIMIT
    assert est.pair == "cuspidal:n=2 x cuspidal:n=2"


def test_block_lambda2_is_the_largest_block_estimate(family7, monkeypatch):
    import soficlab.spectral as spectral

    solve = spectral._solve_pair
    seen = []

    def recording(op, seed):
        seen.append(solve(op, seed)[0])
        return seen[-1], op.last_input

    monkeypatch.setattr(spectral, "_solve_pair", recording)
    est = tau_family_lambda2(family7, seed=2)
    assert len(seen) == 24
    assert est.lambda2 == max(e.lambda2 for e in seen)
    assert est.iterations == sum(e.iterations for e in seen)
    assert est.residual == max(e.residual for e in seen)


def test_pair_budget_refuses_past_the_largest_measured_prime():
    # p = 61 (pairs up to 62 x 68 = 4,216 dimensions) ran end to end;
    # p = 67 (68 x 72) is refused before any representation is built
    from types import SimpleNamespace

    from soficlab.groups import ResourceBudgetError

    check_pair_budget(61, 67)
    with pytest.raises(ResourceBudgetError):
        tau_family_lambda2(SimpleNamespace(p=67, r_p=71), seed=2)


def boundary_ratio_explicit(mask: np.ndarray, right_translations: dict) -> dict:
    """max over generators of |Tg symdiff T| / |domain| for an explicit
    subset mask; right_translations maps names to the permutations
    x -> x g."""
    n = len(mask)
    if int(mask.sum()) * 2 > n:
        raise ValueError("the witness set must fill at most half the domain")
    per = {}
    for name, rt in right_translations.items():
        mask_tg = mask[rt.inverse().images]
        per[name] = Fraction(int(np.count_nonzero(mask ^ mask_tg)), n)
    return {"per_generator": per, "max": max(per.values())}


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
    out = boundary_ratio_slab({"b1": rho.image("b1"), "b2": rho.image("b2")})
    assert out["max"] == 0


def test_slab_boundary_decorated_matches_shift_count(family7):
    rho = family7["rho"]
    out = boundary_ratio_slab({"b3": rho.image("b3")})
    assert out["max"] == Fraction(sp_shift_diff_exact(v_vector(7)), 3**7)


def test_slab_boundary_matches_brute_force(family7):
    # |Tg symdiff T| / |G| against a full-domain count at p = 7
    from soficlab.perms import materialize
    from soficlab.sofic import GpContext

    ctx = GpContext(7)
    g = family7["rho"].image("b3")
    mask_t = slab_mask(7)
    right = materialize(ctx.right_mult_inv(g))
    mask_tg = mask_t[right.images]
    brute = Fraction(int(np.count_nonzero(mask_t ^ mask_tg)), len(mask_t))
    assert boundary_ratio_slab({"b3": g})["max"] == brute


def test_witness_ratio_bounded_by_density(family7):
    # |Tg symdiff T|/|T| <= 243 * (|S symdiff (S+v)| / 3^p) since the slab
    # fills at least 1/243 of the domain
    for p in (7, 13):
        diff = sp_shift_diff_exact(v_vector(p))
        witness_ratio = Fraction(diff, sp_count_exact(p))
        assert witness_ratio <= 243 * Fraction(diff, 3**p)


def test_kazhdan_two_point():
    kb = kazhdan_bounds(cyclic_table(2), [1], seed=0)
    assert abs(kb["direct"] - 2.0) <= 1e-9
    assert kb["lower"] - 1e-9 <= kb["direct"] <= kb["upper"] + 1e-9


def test_kazhdan_sandwich_sym3_all_generating_pairs():
    table = symmetric_table(3)
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
    table = symmetric_table(3)
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
    table = symmetric_table(3)
    all_elements = list(range(1, 6))
    kb_all = kazhdan_bounds(table, all_elements, seed=0)
    kb_pair = kazhdan_bounds(table, [1, 3], seed=0)
    assert kb_all["direct"] >= kb_pair["direct"] - 1e-6


def test_amplification_z2_and_sym3():
    ok, witness = verify_amplification(cyclic_table(2), [1], trials=1000, seed=0,
                                       kappa=2.0)
    assert ok, witness
    table = symmetric_table(3)
    kb = kazhdan_bounds(table, [1, 3], seed=0)
    ok, witness = verify_amplification(table, [1, 3], trials=1000, seed=0,
                                       kappa=kb["lower"])
    assert ok, witness


def _amplification_per_trial(table, gens, trials, seed, kappa):
    """Oracle: the amplification check one trial at a time, each random
    vector drawn in turn."""
    rep_gens = table[[inverse_index(table, g) for g in gens]]
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        xi = rng.standard_normal(len(table))
        lhs = 0.5 * kappa * float(np.linalg.norm(xi[table] - xi, axis=1).max())
        rhs = float(np.linalg.norm(xi[rep_gens] - xi, axis=1).max())
        if lhs > rhs + spectral.AMPLIFICATION_SLACK:
            return False, {"xi": xi, "lhs": lhs, "rhs": rhs}
    return True, None


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("table,gens", [(cyclic_table(2), [1]), (symmetric_table(3), [1, 3])])
def test_amplification_matches_per_trial_oracle(table, gens, seed):
    # the direct constant passes; three times it fails, on the same first
    # trial and with the same witness as the per-trial loop
    kappa = kazhdan_bounds(table, gens, seed=seed)["direct"]
    for k, verdict in ((kappa, True), (3 * kappa, False)):
        ok, witness = verify_amplification(table, gens, trials=1000, seed=seed, kappa=k)
        want_ok, want = _amplification_per_trial(table, gens, 1000, seed, k)
        assert ok == want_ok == verdict
        if not ok:
            assert (witness["lhs"], witness["rhs"]) == (want["lhs"], want["rhs"])
            assert np.array_equal(witness["xi"], want["xi"])


def test_amplification_without_kappa_runs_restarts_at_its_seed(monkeypatch):
    seen = []
    direct = spectral._kazhdan_direct

    def spy(table, gens, seed=0):
        seen.append(seed)
        return direct(table, gens, seed=seed)

    monkeypatch.setattr(spectral, "_kazhdan_direct", spy)
    table = symmetric_table(3)
    for seed in (3, 11):
        ok, witness = verify_amplification(table, [1, 3], trials=200, seed=seed)
        assert ok, witness
    assert seen == [3, 11]


@pytest.mark.parametrize("table,gens", [
    (cyclic_table(2), [1]),
    (symmetric_table(3), [1, 3]),
    (symmetric_table(4), list(range(1, 24))),
])
def test_kazhdan_constraint_gradients_match_finite_differences(table, gens):
    from scipy.optimize import approx_fprime

    rep = table[[inverse_index(table, g) for g in gens]]
    rng = np.random.default_rng(len(table))
    cons = _kazhdan_constraints(rep)
    assert len(cons) == len(gens) + 3
    for _ in range(5):
        z = rng.standard_normal(len(table) + 1)
        for con in cons:
            exact = con["jac"](z)
            approx = approx_fprime(z, con["fun"])
            assert np.linalg.norm(exact - approx) <= 1e-6 * np.linalg.norm(exact), con


def test_amplification_constant_vector_trivial():
    table = cyclic_table(4)
    xi = np.ones(4)
    assert np.linalg.norm(xi[table[1]] - xi) == 0
