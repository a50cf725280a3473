import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficlab.partitions import (
    CANDIDATE_KEY_DIMS,
    FACTOR_ORDER,
    CylinderPartition,
    LabeledPartition,
    candidate_subgroup_order,
    classify_candidates,
    coset_fit,
    eta_overlap,
    invariance_defect,
    planted_coset_partition,
    relabel_noise,
)
from soficlab.perms import ExactPerm
from soficlab.smallgroups import (
    all_subgroups,
    cyclic_table,
    left_coset_ids,
    subgroup_closure,
    symmetric_table,
)

from conftest import pairwise_subgroup_closure


def shift_perm(n, k=1):
    return ExactPerm((np.arange(n) + k) % n)


def test_partition_rejects_empty_blocks():
    with pytest.raises(ValueError):
        LabeledPartition([0, 2, 2])


def test_block_preserving_map_has_zero_defect():
    part = LabeledPartition([0, 0, 1, 1, 2, 2])
    sigma = ExactPerm([1, 0, 3, 2, 5, 4])
    assert invariance_defect(part, sigma)["defect"] == 0


def test_coset_translation_permutes_blocks():
    ids = left_coset_ids(cyclic_table(12), range(0, 12, 3))
    part = planted_coset_partition(ids)
    out = invariance_defect(part, shift_perm(12))
    assert out["defect"] == 0


def test_perturbed_partition_defect_bounded():
    rng = np.random.default_rng(0)
    ids = np.arange(1200) // 100
    part = planted_coset_partition(ids)
    noisy = relabel_noise(part, 0.05, rng)
    out = invariance_defect(noisy, shift_perm(1200, 100))
    assert 0 < out["defect"] <= Fraction(2, 10)


def test_invariance_defect_refuses_past_a_thousand_blocks():
    assert invariance_defect(LabeledPartition(np.arange(1000)), shift_perm(1000))["defect"] == 0
    with pytest.raises(ValueError, match="10\\^3 blocks"):
        invariance_defect(LabeledPartition(np.arange(1001)), shift_perm(1001))


def test_overlap_identity_is_one_exactly():
    rng = np.random.default_rng(2)
    ids = rng.integers(0, 7, size=200)
    ids[:7] = np.arange(7)
    part = LabeledPartition(ids)
    n = part.size
    assert eta_overlap(part, ExactPerm(np.arange(n))) == 1.0


def test_overlap_single_block_is_one():
    part = LabeledPartition(np.zeros(50, dtype=np.int64))
    rng = np.random.default_rng(3)
    sigma = ExactPerm(rng.permutation(50).astype(np.int64))
    assert eta_overlap(part, sigma) == 1.0


def test_overlap_one_iff_defect_zero():
    rng = np.random.default_rng(4)
    for _ in range(20):
        ids = rng.integers(0, 5, size=40)
        ids[:5] = np.arange(5)
        part = LabeledPartition(ids)
        sigma = ExactPerm(rng.permutation(40).astype(np.int64))
        ov = eta_overlap(part, sigma)
        defect = invariance_defect(part, sigma)["defect"]
        assert (abs(ov - 1.0) < 1e-12) == (defect == 0)


def _relabel_noise_reference(partition, epsilon, rng):
    # the quadratic loop: recount a block's size before every move
    n, b = partition.size, partition.n_blocks
    ids = partition.block_ids.copy()
    n_move = int(epsilon * n)
    moved = 0
    for x in rng.permutation(n)[: n_move + b]:
        if moved >= n_move:
            break
        k = ids[x]
        if np.count_nonzero(ids == k) == 1:
            continue
        new = int(rng.integers(0, b - 1))
        if new >= k:
            new += 1
        ids[x] = new
        moved += 1
    return ids


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_relabel_noise_matches_reference_loop(seed):
    # blocks of one to three points and a large epsilon drain blocks, so
    # the skip branch runs on counts that earlier moves changed
    planted = np.repeat(np.arange(12), [1, 2, 3] * 4)
    for ids, eps in ((np.arange(1200) // 100, 0.05), (planted, 0.5)):
        part = planted_coset_partition(ids)
        fast = relabel_noise(part, eps, np.random.default_rng(seed))
        ref = _relabel_noise_reference(part, eps, np.random.default_rng(seed))
        assert np.array_equal(fast.block_ids, ref)


def test_noisy_coset_overlap_lower_bound():
    rng = np.random.default_rng(5)
    ids = np.arange(1200) // 100
    noisy = relabel_noise(planted_coset_partition(ids), 0.05, rng)
    ov = eta_overlap(noisy, shift_perm(1200, 100))
    assert ov >= 1 - 4 * 0.05


_SMALL_TABLES = {f"C{n}": cyclic_table(n) for n in range(1, 31)}
_SMALL_TABLES.update(S3=symmetric_table(3)[1], S4=symmetric_table(4)[1])


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(_SMALL_TABLES)), data=st.data())
def test_subgroup_closure_matches_pairwise_oracle(name, data):
    # closing by the seed alone gives the same set as closing under all
    # pairwise products of what has been found
    table = _SMALL_TABLES[name]
    seed = data.draw(st.sets(st.integers(0, len(table) - 1), max_size=4))
    assert subgroup_closure(table, seed) == pairwise_subgroup_closure(table, seed)


def test_coset_fit_exact_cosets():
    table = cyclic_table(12)
    for sub in all_subgroups(table):
        ids = left_coset_ids(table, sub)
        fit = coset_fit(planted_coset_partition(ids), ids, subgroup_order=len(sub))
        assert fit.residual == 0
        assert len(fit.assignment) == 12 // len(sub)
        assert fit.coverage == 1


def test_coset_fit_singletons_against_trivial():
    n = 30
    fit = coset_fit(planted_coset_partition(np.arange(n)), np.arange(n),
                    subgroup_order=1)
    assert fit.residual == 0


def test_coset_fit_noise_residual():
    rng = np.random.default_rng(6)
    n, blocks = 10_000, 20
    ids = np.arange(n) // (n // blocks)
    for eps in (0.01, 0.05):
        noisy = relabel_noise(planted_coset_partition(ids), eps, rng)
        fit = coset_fit(noisy, ids, subgroup_order=n // blocks)
        assert 0 < fit.residual <= 2 * Fraction(eps).limit_denominator(100)


def test_coset_fit_selects_planted_subgroup_s4():
    _, table = symmetric_table(4)
    subgroups = all_subgroups(table)
    assert len(subgroups) == 30
    rng = random.Random(7)
    for sub in rng.sample(subgroups, 8):
        part = planted_coset_partition(left_coset_ids(table, sub))
        fits = []
        for cand in subgroups:
            fit = coset_fit(part, left_coset_ids(table, cand),
                            subgroup=str(sorted(cand)[:3]), subgroup_order=len(cand))
            fits.append((fit.residual, cand))
        best_residual, best = min(fits, key=lambda t: t[0])
        assert best_residual == 0 and best == sub


# -- the closed form's oracle: cylinders materialized on the flat product ----

def product_point_factors(sizes):
    """(a, h, y) index arrays for the flat product domain."""
    na, nh, ny = sizes
    idx = np.arange(na * nh * ny, dtype=np.int64)
    y = idx % ny
    gh = idx // ny
    return gh // nh, gh % nh, y


def coset_ids_by_dims(dims, sizes) -> np.ndarray:
    a, h, y = product_point_factors(sizes)
    parts = {"a": a, "h": h, "y": y}
    ids = np.zeros(len(a), dtype=np.int64)
    for d in FACTOR_ORDER:
        if d in dims:
            ids = ids * sizes[FACTOR_ORDER.index(d)] + parts[d]
    return ids


def candidate_coset_ids(name: str, sizes) -> np.ndarray:
    return coset_ids_by_dims(CANDIDATE_KEY_DIMS[name], sizes)


def classify_explicit(partition: LabeledPartition, sizes) -> dict:
    """Each candidate's coset_fit against its materialized coset ids."""
    return {name: coset_fit(partition, candidate_coset_ids(name, sizes), subgroup=name,
                            subgroup_order=candidate_subgroup_order(name, sizes))
            for name in CANDIDATE_KEY_DIMS}


def test_six_candidates_closed_form_matches_explicit():
    sizes = (9, 4, 5)
    for name, dims in CANDIDATE_KEY_DIMS.items():
        part = CylinderPartition(sizes, dims)
        explicit = LabeledPartition(coset_ids_by_dims(dims, sizes))
        closed = {h.subgroup: h for h in classify_candidates(part)}
        direct = classify_explicit(explicit, sizes)
        for cand in CANDIDATE_KEY_DIMS:
            assert closed[cand].residual == direct[cand].residual, (name, cand)
            assert closed[cand].coverage == direct[cand].coverage, (name, cand)


def test_six_candidates_on_product_domain(family7):
    from soficlab.algebra import psl2_order

    sizes = (3**7, psl2_order(7), psl2_order(11))
    for name, dims in CANDIDATE_KEY_DIMS.items():
        ranked = classify_candidates(CylinderPartition(sizes, dims))
        assert ranked[0].subgroup == name
        assert ranked[0].residual == 0
        assert all(h.residual >= 1 for h in ranked[1:])


def test_candidate_orders():
    sizes = (2187, 168, 660)
    total = 2187 * 168 * 660
    assert candidate_subgroup_order("trivial", sizes) == 1
    assert candidate_subgroup_order("k-factor", sizes) == 660
    assert candidate_subgroup_order("a-times-k", sizes) == 2187 * 660
    assert candidate_subgroup_order("full", sizes) == total
    assert candidate_subgroup_order("g-factor", sizes) == 2187 * 168
    assert candidate_subgroup_order("a-factor", sizes) == 2187


def test_coset_ids_consistent_with_point_factors():
    sizes = (3, 4, 5)
    ids = candidate_coset_ids("a-times-k", sizes)
    # cosets of the middle-factor projection: id = h part
    expected = (np.arange(60) // 5) % 4
    assert np.array_equal(ids, expected)
