"""Session fixtures for the p = 7 family and models, and the brute-force
oracles that several test modules import."""

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
from soficlab.smallgroups import identity_index
from soficlab.sofic import build_sigma, build_tilde_sigma


@pytest.fixture(scope="session")
def family7():
    return build_hom_specs(7, 5, 3)


@pytest.fixture(scope="session")
def sigma7(family7):
    return build_sigma(family7)


@pytest.fixture(scope="session")
def tilde7(family7):
    return build_tilde_sigma(family7)


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
