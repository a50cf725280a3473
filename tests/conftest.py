"""Session fixtures for the p = 7 family and models, and the brute-force
oracles that several test modules import."""

import dataclasses
import sys
from fractions import Fraction

import numpy as np
import pytest

from soficlab.algebra import psl2_order, psl2_table
from soficlab.f3vectors import (
    ApVector,
    ap_unindex,
    decode_indices,
    encode_coords,
    f3_add,
    sp_mask,
    vector_points,
)
from soficlab.groups import GpElement, build_hom_specs
from soficlab.perms import DRAW_BLOCK, SAMPLE_BLOCK, ExactPerm, FlatDomain, materialize
from soficlab.smallgroups import identity_index
from soficlab.sofic import build_sigma, build_tilde_sigma


@pytest.fixture(scope="session")
def family7():
    return build_hom_specs(7, 5, 3)


@pytest.fixture(scope="session")
def sigma7(family7):
    return build_sigma(family7)


@pytest.fixture(scope="session")
def dense7(sigma7):
    """The p = 7 model with every image enumerated once on the flat index:
    the dense oracle, and the fast route for tests that compare many words
    exactly."""
    images = {name: materialize(perm) for name, perm in sigma7.images.items()}
    return dataclasses.replace(sigma7, domain=FlatDomain(sigma7.domain.size), images=images)


@pytest.fixture(scope="session")
def tilde7(family7):
    return build_tilde_sigma(family7)


# sample counts around the sampled block size, for the stream identity tests
DRAW_COUNTS = (1, DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1, 3 * DRAW_BLOCK + 5)


def sample_points(domain, rng, n):
    """The points of domain.sample_blocks(rng, n) as one batch: its blocks
    concatenated (each part of a tuple of arrays separately)."""
    blocks = list(domain.sample_blocks(rng, n))
    if isinstance(blocks[0], tuple):
        return tuple(np.concatenate(parts) for parts in zip(*blocks))
    return np.concatenate(blocks)


def refuse_materialize(monkeypatch):
    """Make every soficlab binding of perms.materialize raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("a G(p) image was enumerated")

    for name, module in list(sys.modules.items()):
        if name.startswith("soficlab") and hasattr(module, "materialize"):
            monkeypatch.setattr(module, "materialize", refuse)


# -- brute-force oracles that several test modules share --------------------

def ap_index(x: ApVector) -> int:
    """Index of x in [0, 3^p): base-3 value of the first p coordinates."""
    return sum(3**i * c for i, c in enumerate(x.coords[: x.p]))


class GpIndexer:
    """Bijective index on G(p): index(a, h) = ap_index(a) * |H| + h_index."""

    def __init__(self, p: int):
        self.p = p
        self.table = psl2_table(p)
        self.h_order = len(self.table)
        self.size = 3**p * self.h_order

    def index(self, g: GpElement) -> int:
        return ap_index(g.a) * self.h_order + self.table.index(g.h)

    def unindex(self, i: int) -> GpElement:
        ai, hi = divmod(i, self.h_order)
        return GpElement(ap_unindex(ai, self.p), self.table[hi])


def sp_membership(x: ApVector) -> bool:
    """True iff the 1-count beats both other counts by more than 2."""
    c = x.type_count()
    return c.n1 > c.n0 + 2 and c.n1 > c.n2 + 2


def coords_matrix(p: int) -> np.ndarray:
    """(3^p, 2) point array of all A(p) vectors in index order."""
    n = 3**p
    if n > 5_000_000:
        raise ValueError(f"3^{p} is too large to materialize")
    return decode_indices(np.arange(n, dtype=np.int64), p)


def shifted_index_map(points: np.ndarray, w: ApVector) -> np.ndarray:
    """Index map a -> index(a + w) over all vectors of a point array."""
    return encode_coords(f3_add(points, vector_points(w)), w.p)


def slab_mask(p: int) -> np.ndarray:
    """Indicator of T = S(p) x H(p) on the flat index of G(p)."""
    return np.repeat(sp_mask(coords_matrix(p), p), psl2_order(p))


def pairwise_subgroup_closure(table: np.ndarray, seed) -> frozenset:
    """Subgroup generated by seed, closing under products of every pair of
    elements found so far, one product at a time."""
    e = identity_index(table)
    elems = {e} | set(seed)
    frontier = list(elems)
    while frontier:
        new = []
        for x in frontier:
            for y in list(elems):
                for z in (int(table[x, y]), int(table[y, x])):
                    if z not in elems:
                        elems.add(z)
                        new.append(z)
        frontier = new
    return frozenset(elems)


# -- dense p = 7 routes of the four-condition report, as its oracles ---------

def array_commutator_count(a: ExactPerm, b: ExactPerm) -> int:
    """#{x : a(b(x)) != b(a(x))}, over SAMPLE_BLOCK slices of the two image
    arrays."""
    a_img, b_img = a.images, b.images
    count = 0
    for start in range(0, a.size, SAMPLE_BLOCK):
        rows = slice(start, start + SAMPLE_BLOCK)
        count += int(np.count_nonzero(a_img[b_img[rows]] != b_img[a_img[rows]]))
    return count


def commutator_defects(t: ExactPerm):
    """The function r_at -> d_H(t o r, r o t) for permutations r of t's
    domain, given as r's map on index arrays, which it runs on supp(t)
    and t(supp(t)) only.

    Off supp(t) and r^-1(supp(t)) both sides send x to r(x); every point
    of r^-1(supp(t)) \\ supp(t) disagrees, and there are as many of them
    as points x of supp(t) with r(x) outside supp(t), that is with
    t(r(x)) = r(x).
    """
    support = np.flatnonzero(t.images != np.arange(t.size))
    t_support = t.images[support]

    def defect(r_at) -> Fraction:
        r_x = r_at(support)
        t_r_x = t.images[r_x]
        differ = np.count_nonzero(t_r_x != r_at(t_support))
        leave = np.count_nonzero(t_r_x == r_x)
        return Fraction(int(differ + leave), t.size)

    return defect


def image_overlap_displacement(t: ExactPerm, p: int) -> Fraction:
    """Condition 4 from t's image array: the minimum over slice pairs
    (h, h') of the displaced fraction, 2 - 2 * max overlap / 3^p, with
    overlap[h, h'] = #{x = (a, h) : t(x) = (a', h')}."""
    h_order = psl2_order(p)
    grid = t.images.reshape(3**p, h_order) % h_order
    keys = grid + np.arange(h_order, dtype=np.int64) * h_order
    overlap = np.bincount(keys.ravel(), minlength=h_order * h_order)
    return Fraction(2 * 3**p - 2 * int(overlap.max()), 3**p)
