import random

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficlab.groups import HomSpec, hom_eval
from soficlab.perms import ExactPerm, d_hamming
from soficlab.sofic import (
    BranchedCover,
    SchreierSystem,
    cocycle_reconstruct,
    extract_almost_cocycle,
    induce_approximation,
    lift_branched_cover,
    random_cover,
)
from soficlab.words import ReducedWord, random_reduced_word


def test_cover_build_validates_fibers():
    with pytest.raises(ValueError):
        BranchedCover.build([0, 0, 1])  # 2-to-1 and 1-to-1 mixed
    cover = BranchedCover.build([1, 0, 1, 0])
    assert cover.fiber_size == 2
    assert cover.fibers.tolist() == [[1, 3], [0, 2]]


def test_lift_postconditions_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n_base = int(rng.integers(5, 120))
        d = int(rng.integers(1, 12))
        cover = random_cover(rng, n_base, d)
        n = n_base * d
        sigma = ExactPerm(rng.permutation(n).astype(np.int64))
        tau = ExactPerm(rng.permutation(n_base).astype(np.int64))
        lifted = lift_branched_cover(sigma, tau, cover)
        assert np.array_equal(cover.theta[lifted.images], tau.images[cover.theta])
        budget = (cover.theta[sigma.images] != tau.images[cover.theta]).mean()
        assert float(d_hamming(lifted, sigma).value) <= budget + 1e-12
        assert (1 - lifted.fixed_fraction()) >= (1 - tau.fixed_fraction())


@st.composite
def _cover_instances(draw):
    n_base, d = draw(st.integers(1, 30)), draw(st.integers(1, 6))
    theta = draw(st.permutations(np.repeat(np.arange(n_base), d).tolist()))
    sigma = draw(st.permutations(range(n_base * d)))
    tau = draw(st.permutations(range(n_base)))
    return BranchedCover.build(theta), ExactPerm(sigma), ExactPerm(tau)


@settings(max_examples=200, deadline=None)
@given(instance=_cover_instances())
def test_lift_property(instance):
    cover, sigma, tau = instance
    lifted = lift_branched_cover(sigma, tau, cover)
    # theta o lift = tau o theta exactly
    assert np.array_equal(cover.theta[lifted.images], tau.images[cover.theta])
    # d_H(lift, sigma) <= d_H(theta o sigma, tau o theta)
    off = np.count_nonzero(cover.theta[sigma.images] != tau.images[cover.theta])
    assert d_hamming(lifted, sigma).value <= Fraction(int(off), sigma.size)


# -- the per-fiber loops that the one-pass lift and reconstruction replace --

def _lift_oracle(sigma, tau, cover):
    """Fiber by fiber: keep compatible images, then match the remaining
    sources and targets of the fiber pair in increasing index order."""
    theta = cover.theta
    sp = sigma.images
    ok = theta[sp] == tau.images[theta]
    out = np.where(ok, sp, -1)
    for y in range(cover.n_base):
        src = cover.fibers[y]
        good = ok[src]
        if np.all(good):
            continue
        dst = cover.fibers[tau.images[y]]
        used = np.isin(dst, sp[src[good]], assume_unique=True)
        out[src[~good]] = dst[~used]
    return out


def _cocycle_reconstruct_oracle(c_g, tau_g, cover):
    images = np.empty(len(cover.theta), dtype=np.int64)
    dst = cover.fibers[tau_g.images]
    for y in range(cover.n_base):
        images[cover.fibers[y]] = dst[y][c_g[y]]
    return images


@settings(max_examples=200, deadline=None)
@given(instance=_cover_instances(), data=st.data())
def test_lift_and_reconstruct_match_per_fiber_oracles(instance, data):
    cover, sigma, tau = instance
    assert np.array_equal(lift_branched_cover(sigma, tau, cover).images,
                          _lift_oracle(sigma, tau, cover))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = rng.permuted(np.tile(np.arange(cover.fiber_size), (cover.n_base, 1)), axis=1)
    assert np.array_equal(cocycle_reconstruct(rows, tau, cover).images,
                          _cocycle_reconstruct_oracle(rows, tau, cover))


def test_lift_matches_oracle_at_the_extremes():
    rng = np.random.default_rng(9)
    for n_base, d in ((1, 1), (1, 5), (37, 1), (40, 4)):
        cover = random_cover(rng, n_base, d)
        tau = ExactPerm(rng.permutation(n_base).astype(np.int64))
        rows = np.stack([rng.permutation(d) for _ in range(n_base)]).astype(np.int64)
        # every point compatible
        compatible = cocycle_reconstruct(rows, tau, cover)
        # no point compatible: sigma covers tau shifted by a fixed-point-free
        # permutation of the base
        shifted = ExactPerm(tau.images[(np.arange(n_base) + 1) % n_base])
        incompatible = cocycle_reconstruct(rows, shifted, cover)
        bad = cover.theta[incompatible.images] != tau.images[cover.theta]
        assert n_base == 1 or bad.all()
        random_sigma = ExactPerm(rng.permutation(n_base * d).astype(np.int64))
        for sigma in (compatible, incompatible, random_sigma):
            assert np.array_equal(lift_branched_cover(sigma, tau, cover).images,
                                  _lift_oracle(sigma, tau, cover))
        assert np.array_equal(lift_branched_cover(compatible, tau, cover).images,
                              compatible.images)


def test_lift_keeps_commuting_permutation():
    rng = np.random.default_rng(1)
    cover = random_cover(rng, 40, 4)
    tau = ExactPerm(rng.permutation(40).astype(np.int64))
    rows = np.stack([rng.permutation(4) for _ in range(40)]).astype(np.int64)
    sigma = cocycle_reconstruct(rows, tau, cover)
    assert np.array_equal(lift_branched_cover(sigma, tau, cover).images, sigma.images)


def test_extract_requires_exact_commutation():
    rng = np.random.default_rng(2)
    cover = random_cover(rng, 30, 3)
    sigma = ExactPerm(rng.permutation(90).astype(np.int64))
    tau = ExactPerm(rng.permutation(30).astype(np.int64))
    with pytest.raises(ValueError):
        extract_almost_cocycle({"g": sigma}, {"g": tau}, cover)


def test_extract_round_trip():
    rng = np.random.default_rng(3)
    cover = random_cover(rng, 50, 5)
    tau = ExactPerm(rng.permutation(50).astype(np.int64))
    rows = np.stack([rng.permutation(5) for _ in range(50)]).astype(np.int64)
    sigma = cocycle_reconstruct(rows, tau, cover)
    out = extract_almost_cocycle({"g": sigma}, {"g": tau}, cover)
    assert np.array_equal(out["c"]["g"], rows)
    rebuilt = cocycle_reconstruct(out["c"]["g"], tau, cover)
    assert np.array_equal(rebuilt.images, sigma.images)


def test_true_cocycle_has_zero_defect():
    rng = np.random.default_rng(4)
    cover = random_cover(rng, 60, 4)
    tg = ExactPerm(rng.permutation(60).astype(np.int64))
    th = ExactPerm(rng.permutation(60).astype(np.int64))
    cg = np.stack([rng.permutation(4) for _ in range(60)]).astype(np.int64)
    ch = np.stack([rng.permutation(4) for _ in range(60)]).astype(np.int64)
    cgh = cg[th.images][np.arange(60)[:, None], ch]
    sig = {
        "g": cocycle_reconstruct(cg, tg, cover),
        "h": cocycle_reconstruct(ch, th, cover),
        "gh": cocycle_reconstruct(cgh, tg.compose(th), cover),
    }
    tau = {"g": tg, "h": th, "gh": tg.compose(th)}
    out = extract_almost_cocycle(sig, tau, cover, pairs=[("g", "h", "gh")])
    assert out["cocycle_defect"][("g", "h", "gh")] == 0


def test_broken_cocycle_has_positive_defect():
    rng = np.random.default_rng(5)
    cover = random_cover(rng, 60, 4)
    tg = ExactPerm(rng.permutation(60).astype(np.int64))
    th = ExactPerm(rng.permutation(60).astype(np.int64))
    cg = np.stack([rng.permutation(4) for _ in range(60)]).astype(np.int64)
    ch = np.stack([rng.permutation(4) for _ in range(60)]).astype(np.int64)
    broken = np.stack([rng.permutation(4) for _ in range(60)]).astype(np.int64)
    sig = {
        "g": cocycle_reconstruct(cg, tg, cover),
        "h": cocycle_reconstruct(ch, th, cover),
        "gh": cocycle_reconstruct(broken, tg.compose(th), cover),
    }
    tau = {"g": tg, "h": th, "gh": tg.compose(th)}
    out = extract_almost_cocycle(sig, tau, cover, pairs=[("g", "h", "gh")])
    assert out["cocycle_defect"][("g", "h", "gh")] > 0


# -- induction ---------------------------------------------------------------

ACTION4 = {"x": [1, 2, 3, 0], "y": [1, 0, 3, 2]}


def test_schreier_rank_matches_index_formula():
    schreier = SchreierSystem(ACTION4)
    assert len(schreier.schreier_generators()) == 1 + 4 * (2 - 1)


def test_schreier_requires_transitivity():
    with pytest.raises(ValueError):
        SchreierSystem({"x": [0, 1], "y": [0, 1]})  # both letters act trivially


def test_cocycle_identity_random_triples():
    schreier = SchreierSystem(ACTION4)
    rng = random.Random(0)
    for _ in range(1000):
        u = random_reduced_word(rng, ("x", "y"), rng.randint(0, 6))
        v = random_reduced_word(rng, ("x", "y"), rng.randint(0, 6))
        i = rng.randrange(4)
        assert schreier.cocycle(u * v, i) == (
            schreier.cocycle(u, schreier.act(v, i)) * schreier.cocycle(v, i)
        )


_words = st.lists(st.tuples(st.sampled_from(("x", "y")), st.sampled_from((1, -1))),
                  max_size=8).map(ReducedWord)


@st.composite
def _coset_actions(draw):
    # x cycles through all cosets in a drawn order, so the action is
    # transitive; y is any permutation
    n = draw(st.integers(1, 7))
    order = draw(st.permutations(range(n)))
    x = [0] * n
    for a, b in zip(order, order[1:] + order[:1]):
        x[a] = b
    return {"x": x, "y": draw(st.permutations(range(n)))}


@settings(max_examples=200, deadline=None)
@given(action=_coset_actions(), u=_words, v=_words, data=st.data())
def test_cocycle_identity_property(action, u, v, data):
    # c(uv, i) = c(u, v.i) c(v, i)
    schreier = SchreierSystem(action)
    i = data.draw(st.integers(0, schreier.n - 1))
    assert schreier.cocycle(u * v, i) == (
        schreier.cocycle(u, schreier.act(v, i)) * schreier.cocycle(v, i)
    )


def test_cocycle_matches_ambient_value(family7):
    # the rewritten word, evaluated in any group, equals the ambient value
    schreier = SchreierSystem(ACTION4)
    rng = random.Random(1)
    from soficlab.algebra import psl2_table

    table = psl2_table(11)
    x, y = table[5], table[17]
    ambient = HomSpec("amb", ("x", "y"), (x, y), "K11")
    images = {}
    for name in schreier.schreier_generators():
        images[name] = hom_eval(ambient, schreier.cocycle_in_ambient(
            ReducedWord.gen(name.split("|")[0]), int(name.split("|")[1])))
    sub = HomSpec("sub", tuple(images), tuple(images.values()), "K11")
    for _ in range(200):
        w = random_reduced_word(rng, ("x", "y"), rng.randint(0, 6))
        i = rng.randrange(4)
        assert hom_eval(sub, schreier.cocycle(w, i)) == hom_eval(
            ambient, schreier.cocycle_in_ambient(w, i)
        )


def test_induced_homomorphism_has_zero_defect():
    rng = np.random.default_rng(6)
    pyrng = random.Random(6)
    schreier = SchreierSystem(ACTION4)
    images = {g: ExactPerm(rng.permutation(50).astype(np.int64))
              for g in schreier.schreier_generators()}
    induced = induce_approximation(ACTION4, images)
    for _ in range(30):
        u = random_reduced_word(pyrng, ("x", "y"), pyrng.randint(0, 5))
        v = random_reduced_word(pyrng, ("x", "y"), pyrng.randint(0, 5))
        d = d_hamming(induced.eval(u).compose(induced.eval(v)), induced.eval(u * v))
        assert d.value == 0


def test_induced_restriction_is_subgroup_model():
    rng = np.random.default_rng(7)
    pyrng = random.Random(7)
    schreier = SchreierSystem(ACTION4)
    images = {g: ExactPerm(rng.permutation(50).astype(np.int64))
              for g in schreier.schreier_generators()}
    induced = induce_approximation(ACTION4, images)
    for _ in range(20):
        w = random_reduced_word(pyrng, ("x", "y"), pyrng.randint(0, 6))
        w_sub = schreier.cocycle_in_ambient(w, 0)
        block = induced.restriction_to_trivial_coset(w_sub)
        expected = hom_eval(induced.sigma0, schreier.cocycle(w_sub, 0))
        assert np.array_equal(block.images, expected.images)


def test_induce_missing_images_named():
    with pytest.raises(KeyError):
        induce_approximation(ACTION4, {})


def test_index_one_induction_is_identity():
    rng = np.random.default_rng(8)
    pyrng = random.Random(8)
    action = {"x": [0], "y": [0]}
    schreier = SchreierSystem(action)
    images = {g: ExactPerm(rng.permutation(35).astype(np.int64))
              for g in schreier.schreier_generators()}
    induced = induce_approximation(action, images)
    fiber_model = HomSpec("fiber", tuple(images), tuple(images.values()), "Sym(35)")
    for _ in range(20):
        w = random_reduced_word(pyrng, ("x", "y"), pyrng.randint(0, 6))
        renamed = ReducedWord(tuple((f"{g}|0", s) for g, s in w.letters))
        assert np.array_equal(induced.eval(w).images,
                              hom_eval(fiber_model, renamed).images)
