"""The G(p) action kernel against object-level GpElement arithmetic.

Every p = 7 generator image is checked at drawn points against its
definition: a_i acts by x -> phi(a_i) x, b_j by x -> x rho(b_j)^(-1), and
t by the three-piece slab involution.  The implicit map is checked forward
and back on the pair domain, and the exact model, which is the same map
enumerated once, on the flat index.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficlab.algebra import PSL2Element
from soficlab.f3vectors import a_shift_vector, decode_indices
from soficlab import sofic
from soficlab.groups import GpElement, build_hom_specs

from conftest import GpIndexer, sp_membership

GENERATORS = ("a1", "a2", "a3", "a4", "t", "b1", "b2", "b3")
INDEXER = GpIndexer(7)


@pytest.fixture(scope="module")
def models(sigma7, family7):
    # with no exact budget, build_sigma builds the implicit model
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sofic, "EXACT_DOMAIN_BUDGET", 0)
        implicit = sofic.build_sigma(family7)
    return {"exact": sigma7, "implicit": implicit}


def expected_image(family, name, x: GpElement) -> GpElement:
    if name == "t":
        a0 = a_shift_vector(7)
        g0 = GpElement(a0, PSL2Element(1, 1, 0, 1, 7))
        if sp_membership(x.a):
            return g0 * x
        if sp_membership(x.a - a0):
            return g0.inverse() * x
        return x
    if name.startswith("a"):
        return family["phi"].image(name) * x
    return x * family["rho"].image(name).inverse()


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(GENERATORS), i=st.integers(0, INDEXER.size - 1))
def test_generator_images_match_group_arithmetic(models, family7, name, i):
    want = INDEXER.index(expected_image(family7, name, INDEXER.unindex(i)))
    assert models["exact"].images[name].images[i] == want
    implicit = models["implicit"].images[name]
    domain = implicit.domain
    pair = (np.array([i // INDEXER.h_order]), np.array([i % INDEXER.h_order]))
    moved = implicit.apply((decode_indices(pair[0], 7), pair[1]))
    assert int(domain.index(moved)[0]) == want
    assert int(domain.index(implicit.apply_inverse(moved))[0]) == i


@pytest.mark.parametrize("p", [7, 13])
def test_broadcast_block_matches_flat_points(p):
    # a block of vectors against all matrices, as GpContext.blocks yields
    # it: t and the right maps with zero vector part keep the vectors per
    # row, and every map agrees with its image of the flattened grid
    ctx = sofic.GpContext(p)
    family = build_hom_specs(p, 5, 3)
    rho = family["rho"]
    maps = {"t": ctx.t_perm(*sofic.slab_translation(p))}
    for name in ("b1", "b2", "b3"):
        maps[name] = ctx.right_mult_inv(rho.image(name))
    a_idx = np.random.default_rng(p).integers(0, 3**p, size=300)
    vectors = decode_indices(a_idx, p)
    h_idx = np.arange(ctx.h_order)
    flat = (np.repeat(vectors, ctx.h_order, axis=0), np.tile(h_idx, len(a_idx)))
    for name, perm in maps.items():
        block_vectors, block_h = perm.apply((vectors[:, None], h_idx[None, :]))
        if name == "t" or rho.image(name).a.is_zero():
            assert block_vectors.shape[1] == 1
        expected = ctx.index(perm.apply(flat))
        assert np.array_equal(ctx.index((block_vectors, block_h)).ravel(), expected)
