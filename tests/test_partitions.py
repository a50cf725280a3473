import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficlab.partitions import (
    CANDIDATE_KEY_DIMS,
    FACTOR_ORDER,
    CosetHypothesis,
    CylinderPartition,
    LabeledPartition,
    _pair_counts,
    candidate_subgroup_order,
    classify_candidates,
    coset_fit,
    coset_fits,
    eta_overlap,
    invariance_defect,
    relabel_noise,
)
from soficlab.perms import ExactPerm
from soficlab.smallgroups import (
    all_subgroups,
    cyclic_table,
    identity_index,
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
    part = LabeledPartition(ids)
    out = invariance_defect(part, shift_perm(12))
    assert out["defect"] == 0


def test_perturbed_partition_defect_bounded():
    rng = np.random.default_rng(0)
    ids = np.arange(1200) // 100
    part = LabeledPartition(ids)
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
        part = LabeledPartition(ids)
        fast = relabel_noise(part, eps, np.random.default_rng(seed))
        ref = _relabel_noise_reference(part, eps, np.random.default_rng(seed))
        assert np.array_equal(fast.block_ids, ref)


def test_noisy_coset_overlap_lower_bound():
    rng = np.random.default_rng(5)
    ids = np.arange(1200) // 100
    noisy = relabel_noise(LabeledPartition(ids), 0.05, rng)
    ov = eta_overlap(noisy, shift_perm(1200, 100))
    assert ov >= 1 - 4 * 0.05


_SMALL_TABLES = {f"C{n}": cyclic_table(n) for n in range(1, 31)}
_SMALL_TABLES.update(S3=symmetric_table(3), S4=symmetric_table(4))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symmetric_table_composes_lexicographic_permutations(n):
    # oracle: compose tuples pairwise and look the result up in a dict
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    want = [[index[tuple(a[k] for k in b)] for b in perms] for a in perms]
    assert perms[0] == tuple(range(n))
    assert symmetric_table(n).tolist() == want


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(_SMALL_TABLES)), data=st.data())
def test_subgroup_closure_matches_pairwise_oracle(name, data):
    # closing by the seed alone gives the same set as closing under all
    # pairwise products of what has been found
    table = _SMALL_TABLES[name]
    seed = data.draw(st.sets(st.integers(0, len(table) - 1), max_size=4))
    assert subgroup_closure(table, seed) == pairwise_subgroup_closure(table, seed)


def _subgroups_closing_every_element(table):
    """Every subgroup, by closing each known subgroup with each element
    outside it."""
    e = identity_index(table)
    found = {frozenset({e})}
    frontier = [frozenset({e})]
    while frontier:
        new = []
        for h in frontier:
            for g in range(len(table)):
                if g in h:
                    continue
                h2 = subgroup_closure(table, h | {g})
                if h2 not in found:
                    found.add(h2)
                    new.append(h2)
        frontier = new
    return sorted(found, key=lambda s: (len(s), sorted(s)))


@pytest.mark.parametrize("table", [cyclic_table(n) for n in range(1, 31)]
                         + [symmetric_table(3), symmetric_table(4)])
def test_all_subgroups_matches_closing_every_element(table):
    # one closure per coset finds the same subgroups as one per element
    assert all_subgroups(table) == _subgroups_closing_every_element(table)


def test_coset_fit_exact_cosets():
    table = cyclic_table(12)
    for sub in all_subgroups(table):
        ids = left_coset_ids(table, sub)
        fit = coset_fit(LabeledPartition(ids), ids, subgroup_order=len(sub))
        assert fit.residual == 0
        assert len(fit.assignment) == 12 // len(sub)
        assert fit.coverage == 1


def test_coset_fit_singletons_against_trivial():
    n = 30
    fit = coset_fit(LabeledPartition(np.arange(n)), np.arange(n),
                    subgroup_order=1)
    assert fit.residual == 0


def test_coset_fit_noise_residual():
    rng = np.random.default_rng(6)
    n, blocks = 10_000, 20
    ids = np.arange(n) // (n // blocks)
    for eps in (0.01, 0.05):
        noisy = relabel_noise(LabeledPartition(ids), eps, rng)
        fit = coset_fit(noisy, ids, subgroup_order=n // blocks)
        assert 0 < fit.residual <= 2 * Fraction(eps).limit_denominator(100)


def test_coset_fit_selects_planted_subgroup_s4():
    table = symmetric_table(4)
    subgroups = all_subgroups(table)
    assert len(subgroups) == 30
    rng = random.Random(7)
    for sub in rng.sample(subgroups, 8):
        part = LabeledPartition(left_coset_ids(table, sub))
        fits = []
        for cand in subgroups:
            fit = coset_fit(part, left_coset_ids(table, cand),
                            subgroup=str(sorted(cand)[:3]), subgroup_order=len(cand))
            fits.append((fit.residual, cand))
        best_residual, best = min(fits, key=lambda t: t[0])
        assert best_residual == 0 and best == sub


def _greedy_coset_claims(partition, coset_ids):
    """coset_fit's claims as a loop: blocks claim cosets in order of
    decreasing overlap (ties to the lower block, then the lower coset),
    each claim needing a strict majority of the block and an unclaimed
    coset.  Returns the assignment and the gain sum 2 ov - |cN|."""
    coset_sizes = np.bincount(coset_ids)
    overlaps = Counter(zip(partition.block_ids.tolist(), coset_ids.tolist()))
    assignment, claimed, gain = {}, set(), 0
    for (k, c), ov in sorted(overlaps.items(), key=lambda kv: (-kv[1], kv[0])):
        if k in assignment or c in claimed or 2 * ov <= int(partition.sizes[k]):
            continue
        assignment[k] = c
        claimed.add(c)
        gain += 2 * ov - int(coset_sizes[c])
    return assignment, gain


def _dense_labels(values):
    """Labels 0..k-1 of a list, each used at least once."""
    return np.unique(np.asarray(values, dtype=np.int64), return_inverse=True)[1]


_labelings = st.integers(1, 80).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, n), min_size=n, max_size=n),
    st.lists(st.integers(0, 8), min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None)
@given(labels=_labelings)
def test_coset_fit_matches_greedy_claim_loop(labels):
    partition = LabeledPartition(_dense_labels(labels[0]))
    coset_ids = _dense_labels(labels[1])
    fit = coset_fit(partition, coset_ids)
    assignment, gain = _greedy_coset_claims(partition, coset_ids)
    n = partition.size
    assert list(fit.assignment.items()) == list(assignment.items())
    assert fit.residual == Fraction(n - gain, n)
    assert fit.coverage == Fraction(int(np.bincount(coset_ids)[0]) * len(assignment), n)


def _coset_fit_one(partition, coset_ids, subgroup="N", subgroup_order=None):
    """coset_fit of one candidate on its own: its own pair counts and claim
    order, the way coset_fits ranks one row of its batch."""
    coset_ids = np.asarray(coset_ids, dtype=np.int64)
    n = partition.size
    coset_sizes = np.bincount(coset_ids)
    if subgroup_order is None:
        subgroup_order = int(coset_sizes[0])
    rows, cols, counts = _pair_counts(partition.block_ids, coset_ids,
                                      int(coset_ids.max()) + 1)
    major = 2 * counts > partition.sizes[rows]
    rows, cols, counts = rows[major], cols[major], counts[major]
    order = np.lexsort((rows, -counts))
    _, first = np.unique(cols[order], return_index=True)
    claims = order[np.sort(first)]
    assignment = dict(zip(rows[claims].tolist(), cols[claims].tolist()))
    gain = int(np.sum(2 * counts[claims] - coset_sizes[cols[claims]]))
    return CosetHypothesis(subgroup, subgroup_order, assignment, Fraction(n - gain, n),
                           Fraction(subgroup_order * len(assignment), n))


_candidate_rows = st.integers(1, 60).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, n), min_size=n, max_size=n),
    st.lists(st.tuples(st.integers(0, 9), st.lists(st.integers(0, 9), min_size=n,
                                                    max_size=n)),
             min_size=1, max_size=6)))


@settings(max_examples=200, deadline=None)
@given(labels=_candidate_rows, default_orders=st.booleans())
def test_coset_fits_match_one_fit_per_candidate(labels, default_orders):
    # rows of different widths share one pass, yet no claim crosses rows
    partition = LabeledPartition(_dense_labels(labels[0]))
    rows = [_dense_labels(ids) for _, ids in labels[1]]
    names = [f"N{i}" for i in range(len(rows))]
    orders = None if default_orders else [order for order, _ in labels[1]]
    fits = coset_fits(partition, rows, names, orders)
    oracle = [_coset_fit_one(partition, ids, name, order)
              for ids, name, order in zip(rows, names, orders or itertools.repeat(None))]
    assert fits == oracle
    assert [list(f.assignment.items()) for f in fits] == \
        [list(f.assignment.items()) for f in oracle]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 300), blocks=st.sampled_from([1, 3, 40, 1000]),
       width=st.sampled_from([1, 2, 50, 999]), seed=st.integers(0, 2**32 - 1))
def test_pair_counts_match_counter(n, blocks, width, seed):
    # key ranges past 2^16 take the sort, smaller ones the dense bincount
    rng = np.random.default_rng(seed)
    a = rng.integers(0, blocks, size=n)
    b = rng.integers(0, width, size=n)
    rows, cols, counts = _pair_counts(a, b, width)
    expected = sorted(Counter(zip(a.tolist(), b.tolist())).items())
    assert list(zip(zip(rows.tolist(), cols.tolist()), counts.tolist())) == expected


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
