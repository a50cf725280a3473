"""The G(p) action kernel against object-level GpElement arithmetic.

Every generator image is checked at drawn points against its definition:
a_i acts by x -> phi(a_i) x, b_j by x -> x rho(b_j)^(-1), and t by the
three-piece slab involution.  The implicit maps are checked forward and
back on the pair domain at p = 7, 13 and 37 (compared as points: past
p = 13 a flat index passes int64), and at p = 7 the same maps enumerated
once on the flat index.
"""

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficlab.algebra import psl2_table
from soficlab.f3vectors import ap_unindex, decode_indices, vector_points
from soficlab import sofic
from soficlab.groups import GpElement, build_hom_specs

from conftest import GpIndexer, sp_membership

GENERATORS = ("a1", "a2", "a3", "a4", "t", "b1", "b2", "b3")
INDEXER = GpIndexer(7)


@pytest.fixture(scope="module")
def models(sigma7, dense7):
    return {"exact": dense7, "implicit": sigma7}


def expected_image(family, name, x: GpElement) -> GpElement:
    if name == "t":
        a0, h0 = sofic.slab_translation(family.p)
        g0 = GpElement(a0, h0)
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


@cache
def _model(p):
    return sofic.build_sigma(build_hom_specs(p, 5, 3))


def _point(x: GpElement):
    """The one-point batch of a G(p) element."""
    return vector_points(x.a)[None], np.array([psl2_table(x.a.p).index(x.h)])


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from((13, 37)), name=st.sampled_from(GENERATORS),
       data=st.data())
def test_implicit_maps_match_group_arithmetic_past_p7(p, name, data):
    # forward and back, compared with points_equal: 3^37 * 25,308 points
    # have no int64 flat index
    model = _model(p)
    a_idx = data.draw(st.integers(0, 3**p - 1), label="vector index")
    h_idx = data.draw(st.integers(0, len(psl2_table(p)) - 1), label="matrix index")
    x = GpElement(ap_unindex(a_idx, p), psl2_table(p)[h_idx])
    point = (decode_indices(np.array([a_idx]), p), np.array([h_idx]))
    assert model.domain.points_equal(_point(x), point).all()
    image = model.images[name]
    want = _point(expected_image(model.family, name, x))
    moved = image.apply(point)
    assert model.domain.points_equal(moved, want).all()
    assert model.domain.points_equal(image.apply_inverse(moved), point).all()
    assert model.domain.points_equal(image.apply_inverse(want), point).all()


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
