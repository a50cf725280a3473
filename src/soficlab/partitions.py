"""Almost-invariant partition analysis and coset-structure recovery.

A partition of a finite group that is nearly preserved by translations
should be close to the left cosets of a subgroup.  The tools here measure
that directly: the invariance defect of a partition under a permutation
(with matched blocks), the quadratic overlap functional whose value is 1
exactly on block-permuting maps, and a residual-minimizing fit of a
partition to the cosets of a candidate subgroup.

On the large product domain the relevant partitions are cylinders: fibers
of the projection onto a subset of the index factors (vector part, matrix
part, second factor).  Each candidate normal subgroup of the product has
cosets that are themselves cylinders, so every overlap is a product of
factor sizes and residuals come out exactly without materializing the
domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .perms import ExactPerm

FACTOR_ORDER = ("a", "h", "y")


class LabeledPartition:
    """Explicit partition of 0..N-1: a block id per point."""

    def __init__(self, block_ids):
        self.block_ids = np.asarray(block_ids, dtype=np.int64)
        self.n_blocks = int(self.block_ids.max()) + 1 if len(self.block_ids) else 0
        self.sizes = np.bincount(self.block_ids, minlength=self.n_blocks)
        if np.any(self.sizes == 0):
            raise ValueError("every block id up to the maximum must be nonempty")

    @property
    def size(self):
        return len(self.block_ids)

    def __eq__(self, other):
        return isinstance(other, LabeledPartition) and np.array_equal(
            self.block_ids, other.block_ids
        )


def _pair_counts(a: np.ndarray, b: np.ndarray, width: int):
    """Sparse joint counts of (a[i], b[i]) pairs with b < width, in
    ascending (a, b) order: a dense bincount when the key range is at most
    the number of pairs (or 2^16), a sort otherwise."""
    key = a * width + b
    n_keys = (int(a.max()) + 1) * width if len(key) else 0
    if n_keys <= max(len(key), 1 << 16):
        dense = np.bincount(key, minlength=n_keys)
        uniq = np.flatnonzero(dense)
        counts = dense[uniq]
    else:
        uniq, counts = np.unique(key, return_counts=True)
    return uniq // width, uniq % width, counts


def invariance_defect(partition: LabeledPartition, sigma: ExactPerm) -> dict:
    """(1/N) sum over blocks of |sigma(X_k) symdiff X_m(k)| for the block
    permutation m that solves the assignment problem exactly."""
    ids = partition.block_ids
    n = partition.size
    b = partition.n_blocks
    if b > 1000:
        raise ValueError("optimal matching is quadratic; refused above 10^3 blocks")
    from scipy.optimize import linear_sum_assignment

    rows, cols, counts = _pair_counts(ids, ids[sigma.images], b)
    dense = np.zeros((b, b), dtype=np.int64)
    dense[rows, cols] = counts
    ri, ci = linear_sum_assignment(-dense)
    match = dict(zip(ri.tolist(), ci.tolist()))
    total = int(dense[ri, ci].sum())
    defect = Fraction(2 * n - 2 * total, n)
    return {"defect": defect, "matching": match}


def eta_overlap(partition: LabeledPartition, sigma: ExactPerm) -> float:
    """(1/N) sum over block pairs of |sigma(X_k) meet X_l|^2 /
    sqrt(|X_k| |X_l|); equals 1 exactly when sigma permutes the blocks."""
    ids = partition.block_ids
    rows, cols, counts = _pair_counts(ids, ids[sigma.images], partition.n_blocks)
    s = partition.sizes
    terms = counts.astype(float) ** 2 / np.sqrt(s[rows].astype(float) * s[cols].astype(float))
    return float(terms.sum()) / partition.size


@dataclass
class CosetHypothesis:
    subgroup: str
    subgroup_order: int
    assignment: dict  # block id -> coset id, one-to-one
    residual: Fraction
    coverage: Fraction  # |N| * |claimed| / |domain|


def coset_fit(partition: LabeledPartition, coset_ids, subgroup="N",
              subgroup_order=None) -> CosetHypothesis:
    """Fit the partition to the cosets described by a coset-id array.

    Each block proposes its majority coset; blocks claim cosets in order
    of decreasing overlap (ties to the lower block id), a claim needs
    strictly more than half the block and an unclaimed coset.  The
    residual charges claimed blocks their symmetric difference and
    unclaimed blocks their full size.  Without a subgroup order, the size
    of coset 0 is taken.
    """
    orders = None if subgroup_order is None else [subgroup_order]
    return coset_fits(partition, [coset_ids], [subgroup], orders)[0]


def coset_fits(partition: LabeledPartition, coset_ids, subgroups,
               subgroup_orders=None) -> list:
    """coset_fit against each row of a (candidates, N) coset-id array, in
    one pass: row c's coset ids are offset by c times the widest row's
    coset count, so one _pair_counts and one lexsort rank the claims of
    every candidate, and no claim crosses rows."""
    coset_ids = np.asarray(coset_ids, dtype=np.int64)
    n_rows, n = coset_ids.shape
    width = int(coset_ids.max()) + 1
    keys = (coset_ids + width * np.arange(n_rows)[:, None]).ravel()
    coset_sizes = np.bincount(keys, minlength=n_rows * width)
    if subgroup_orders is None:
        subgroup_orders = coset_sizes[::width].tolist()
    blocks = np.broadcast_to(partition.block_ids, (n_rows, n)).ravel()
    rows, cols, counts = _pair_counts(blocks, keys, n_rows * width)
    # A block has at most one strict-majority coset per row, so claiming in
    # order of decreasing overlap is keeping each coset's first majority
    # pair in (-overlap, block) order; the sort is stable, so each row's
    # pairs keep their order among themselves.
    major = 2 * counts > partition.sizes[rows]
    rows, cols, counts = rows[major], cols[major], counts[major]
    order = np.lexsort((rows, -counts))
    _, first = np.unique(cols[order], return_index=True)
    claims = order[np.sort(first)]
    row_of = cols[claims] // width
    # residual = sum_claimed (|X_k| + |cN| - 2 ov) + sum_unclaimed |X_k|
    #          = N - sum_claimed (2 ov - |cN|)
    gains = np.zeros(n_rows, dtype=np.int64)
    np.add.at(gains, row_of, 2 * counts[claims] - coset_sizes[cols[claims]])
    sort = np.argsort(row_of, kind="stable")
    bounds = np.searchsorted(row_of[sort], np.arange(n_rows + 1)).tolist()
    by_row = claims[sort]
    claimed_blocks = rows[by_row].tolist()
    claimed_cosets = (cols[by_row] % width).tolist()
    fits = []
    for c, (subgroup, order_c, gain) in enumerate(zip(subgroups, subgroup_orders,
                                                      gains.tolist())):
        lo, hi = bounds[c], bounds[c + 1]
        assignment = dict(zip(claimed_blocks[lo:hi], claimed_cosets[lo:hi]))
        fits.append(CosetHypothesis(subgroup, order_c, assignment, Fraction(n - gain, n),
                                    Fraction(order_c * len(assignment), n)))
    return fits


# -- cylinder partitions on the three-factor product domain -----------------

@dataclass(frozen=True)
class CylinderPartition:
    """Fibers of the projection of a product domain onto some factors.

    The domain is indexed by FACTOR_ORDER = (vector part, matrix part,
    second factor) with the flat index ((a * nh) + h) * ny + y.
    """

    sizes: tuple  # (na, nh, ny)
    key_dims: frozenset

    @property
    def size(self):
        na, nh, ny = self.sizes
        return na * nh * ny


def _prod_over(sizes, dims):
    out = 1
    for name, s in zip(FACTOR_ORDER, sizes):
        if name in dims:
            out *= s
    return out


CANDIDATE_KEY_DIMS = {
    "trivial": frozenset({"a", "h", "y"}),
    "k-factor": frozenset({"a", "h"}),
    "a-times-k": frozenset({"h"}),
    "full": frozenset(),
    "g-factor": frozenset({"y"}),
    "a-factor": frozenset({"h", "y"}),
}


def candidate_subgroup_order(name: str, sizes) -> int:
    total = sizes[0] * sizes[1] * sizes[2]
    return total // _prod_over(sizes, CANDIDATE_KEY_DIMS[name])


def cylinder_coset_fit(partition: CylinderPartition, candidate: str) -> CosetHypothesis:
    """Exact coset fit of a cylinder partition against a candidate whose
    cosets are cylinders over CANDIDATE_KEY_DIMS[candidate].

    A block meets every coset compatible with it on the shared factors in
    the same number of points, so a strict majority exists only when the
    coset keys are a subset of the block keys; in that case each coset is
    claimed by exactly one of the r blocks it contains and the residual is
    2(1 - 1/r)."""
    coset_dims = CANDIDATE_KEY_DIMS[candidate]
    order = candidate_subgroup_order(candidate, partition.sizes)
    if coset_dims <= partition.key_dims:
        r = _prod_over(partition.sizes, partition.key_dims - coset_dims)
        residual = Fraction(2 * (r - 1), r)
        claimed = _prod_over(partition.sizes, coset_dims)
        coverage = Fraction(order * claimed, partition.size)
        assignment = {"claimed_blocks": claimed, "blocks_per_coset": r}
    else:
        residual = Fraction(1)
        coverage = Fraction(0)
        assignment = {"claimed_blocks": 0}
    return CosetHypothesis(candidate, order, assignment, residual, coverage)


def classify_candidates(partition: CylinderPartition):
    """Rank the six candidate normal subgroups of the product by their
    coset-fit residual against the given cylinder partition, exactly and in
    closed form.  Returns a residual-sorted list of CosetHypothesis.
    """
    results = [cylinder_coset_fit(partition, name) for name in CANDIDATE_KEY_DIMS]
    results.sort(key=lambda h: (h.residual, h.subgroup))
    return results


# -- relabeling noise --------------------------------------------------------

def relabel_noise(partition: LabeledPartition, epsilon: float, rng) -> LabeledPartition:
    """Move floor(epsilon N) distinct points to uniformly chosen other
    blocks; the relabeled partition keeps every block nonempty."""
    n = partition.size
    b = partition.n_blocks
    ids = partition.block_ids.copy()
    sizes = partition.sizes.copy()
    n_move = int(epsilon * n)
    movable = rng.permutation(n)[: n_move + b]  # spares in case a block empties
    moved = 0
    for x in movable:
        if moved >= n_move:
            break
        k = ids[x]
        if sizes[k] == 1:
            continue
        new = int(rng.integers(0, b - 1))
        if new >= k:
            new += 1
        ids[x] = new
        sizes[k] -= 1
        sizes[new] += 1
        moved += 1
    return LabeledPartition(ids)
