import dataclasses
import itertools
import random
import tracemalloc
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soficlab.algebra import PSL2Element
from soficlab.f3vectors import (
    ApVector,
    a_shift_vector,
    decode_indices,
    sp_count_exact,
    sp_mask,
    v_vector,
)
from soficlab import f3vectors, sofic
from soficlab.groups import GenerationCheckError, GpElement, build_hom_specs, hom_eval
from soficlab.perms import (
    SAMPLE_BLOCK,
    ExactPerm,
    ImplicitPerm,
    d_hamming,
    materialize,
)
from soficlab.sofic import (
    WORD_SEARCH_CAP,
    GpContext,
    build_sigma,
    build_tilde_sigma,
    hom_defect,
    four_condition_report,
    t_commutator_defect,
)
from soficlab.suites import _random_nontrivial_word, suite_four_conditions, suite_soficity
from soficlab.words import ProductWord, ReducedWord, random_reduced_word

from conftest import (
    GpIndexer,
    ap_index,
    array_commutator_count,
    commutator_defects,
    coords_matrix,
    image_overlap_displacement,
    refuse_materialize,
    shifted_index_map,
    slab_mask,
)

GAMMA = ("a1", "a2", "a3", "a4")
LAMBDA = ("b1", "b2", "b3")


def pw(left=None, right=None):
    return ProductWord(left or ReducedWord(), right or ReducedWord())


def test_sigma_matches_two_sided_translation(dense7, family7):
    idxr = GpIndexer(7)
    rng = random.Random(0)
    for _ in range(20):
        u = random_reduced_word(rng, GAMMA, rng.randint(0, 4))
        v = random_reduced_word(rng, LAMBDA, rng.randint(0, 4))
        perm = dense7.eval(pw(u, v))
        g = hom_eval(family7["phi"], u)
        r = hom_eval(family7["rho"], v)
        for _ in range(50):
            i = rng.randrange(idxr.size)
            assert perm.images[i] == idxr.index(g * idxr.unindex(i) * r.inverse())


def test_identity_evaluates_to_identity(sigma7):
    assert materialize(sigma7.eval(pw())).is_identity()


def test_t_image_is_involution(dense7):
    t = dense7.images["t"]
    assert t.compose(t).is_identity()


def test_t_fixed_fraction_formula(dense7):
    expected = Fraction(3**7 - 2 * sp_count_exact(7), 3**7)
    assert dense7.images["t"].fixed_fraction() == expected
    assert expected >= Fraction(1, 3)


def test_t_maps_slab_onto_shifted_slab(dense7):
    mask_t = slab_mask(7)
    images = dense7.images["t"].images
    hit = np.zeros(len(mask_t), dtype=bool)
    hit[images[mask_t]] = True
    # the image of the slab is disjoint from the slab and has its size
    assert int(hit.sum()) == int(mask_t.sum())
    assert not np.any(hit & mask_t)
    # and applying t again returns to the slab
    back = np.zeros(len(mask_t), dtype=bool)
    back[images[hit]] = True
    assert np.array_equal(back, mask_t)


def test_no_t_defect_is_exactly_zero(dense7):
    # the sampled oracle for condition 1's generator commutators
    rng = random.Random(1)
    for _ in range(100):
        u = pw(random_reduced_word(rng, GAMMA, rng.randint(0, 4)),
               random_reduced_word(rng, LAMBDA, rng.randint(0, 4)))
        v = pw(random_reduced_word(rng, GAMMA, rng.randint(0, 4)),
               random_reduced_word(rng, LAMBDA, rng.randint(0, 4)))
        assert hom_defect(dense7, u, v).value == 0


def test_t_commutes_with_undecorated_right(sigma7):
    for name in ("b1", "b2"):
        d = hom_defect(sigma7, pw(right=ReducedWord.gen(name)),
                       pw(ReducedWord.gen("t")))
        assert d.value == 0


def test_t_against_decorated_right_is_defective(sigma7):
    d = hom_defect(sigma7, pw(right=ReducedWord.gen("b3")), pw(ReducedWord.gen("t")))
    assert d.value == Fraction(1075, 5103)
    assert d.value >= Fraction(2 * 168 * 120, 367416)  # displacement lower bound


def slab_right_translate_count(ctx: GpContext, g: GpElement) -> int:
    """Brute-force |T \\ T g| over the flat domain."""
    mask_t = slab_mask(ctx.p)
    right = materialize(ctx.right_mult_inv(g))  # x -> x g^(-1)
    mask_tg = mask_t[right.images]  # x in Tg  <=>  x g^(-1) in T
    return int(np.count_nonzero(mask_t & ~mask_tg))


def test_slice_identity_against_brute_force(family7):
    # |T \ T(w,u)| = |H| * |S \ (S + w)|: brute force over the whole domain
    ctx = GpContext(7)
    rho = family7["rho"]
    rng = random.Random(2)
    for _ in range(5):
        word = random_reduced_word(rng, LAMBDA, rng.randint(1, 3))
        g = hom_eval(rho, word)
        brute = slab_right_translate_count(ctx, g)
        mask = sp_mask(coords_matrix(7), 7)
        in_shift = mask[shifted_index_map(coords_matrix(7), -g.a)]
        slicewise = 168 * int(np.count_nonzero(mask & ~in_shift))
        assert brute == slicewise


def test_four_condition_report(sigma7):
    rep = four_condition_report(sigma7)
    assert rep["cond1_defect_max"] == 0
    assert rep["cond1_pairs"] == 4 * 3
    assert rep["cond2_fixed_fraction"] >= Fraction(1, 3)
    assert rep["cond3_witness"] is not None
    assert rep["cond3_witness"]["defect"] >= Fraction(1, 243)
    assert all(t["respects_bound"] for t in rep["cond3_tested"])
    assert rep["cond4_min_displacement"] >= Fraction(1, 243)
    # the slice displacement matrix minimum: identity slices move 4|S|/|A|
    assert rep["cond4_min_displacement"] == Fraction(4 * sp_count_exact(7), 3**7)


def test_condition_1_sees_a_noncommuting_letter(sigma7):
    # with the t image in place of a1's, condition 1 must find t's
    # commutator with b3
    images = dict(sigma7.images, a1=sigma7.images["t"])
    rep = four_condition_report(dataclasses.replace(sigma7, images=images))
    assert rep["cond1_defect_max"] == Fraction(1075, 5103)


def test_word_search_reports_its_cap(sigma7, family7, monkeypatch):
    rep = four_condition_report(sigma7)
    assert rep["cond3_word_cap"] == WORD_SEARCH_CAP == 20_000
    assert rep["cond3_cap_reached"] is False
    assert rep["cond3_words_searched"] < WORD_SEARCH_CAP
    # the suite carries both fields in the witness check's details
    import soficlab.suites as suites

    monkeypatch.setattr(suites, "build_hom_specs", lambda *args: family7)
    monkeypatch.setattr(suites, "build_sigma", lambda *args, **kwargs: sigma7)
    monkeypatch.setattr(suites, "four_condition_report", lambda *args, **kwargs: rep)
    check = next(c for c in suites.suite_four_conditions(p=7).checks
                 if c["name"] == "commutator-witness-found")
    assert (check["word_cap"], check["cap_reached"]) == (20_000, False)


def _apply_word(model, word: ReducedWord, points):
    """A right word's letter images at a batch of points, right letter
    first, with no word permutation built."""
    for g, sign in reversed(word.letters):
        image = model.images[g]
        points = image.apply(points) if sign == 1 else image.apply_inverse(points)
    return points


def test_support_commutator_defect_matches_dense_model(dense7):
    # condition 3's defect, the region count on supp(t), against the dense
    # count on supp(t) and against both sides of the commutator in full
    defect = commutator_defects(dense7.images["t"])
    t_word = pw(ReducedWord.gen("t"))
    for word in itertools.islice(sofic._lambda_words_bfs(3, 8), 200):
        w = pw(right=word)
        dense = d_hamming(dense7.eval(t_word, then=w), dense7.eval(w, then=t_word))
        assert defect(lambda pts: _apply_word(dense7, word, pts)) == dense.value
        assert t_commutator_defect(dense7.family, word).value == dense.value


def test_four_condition_report_composes_nothing(sigma7, dense7, monkeypatch):
    # the report counts on the implicit maps and enumerates nothing, builds
    # no product array (its commutators are lazy ImplicitPerm compositions),
    # and agrees with the image-array routes: the commutator counts, t's
    # fixed points, the slice overlap and condition 3's defects read on
    # supp(t)
    composed = []
    compose = ExactPerm.compose
    monkeypatch.setattr(ExactPerm, "compose", lambda self, other:
                        composed.append(1) or compose(self, other))
    refuse_materialize(monkeypatch)
    assert all(isinstance(image, ImplicitPerm) for image in sigma7.images.values())
    rep = four_condition_report(sigma7)
    monkeypatch.undo()
    assert composed == []
    assert rep["t_involution"] is True
    pairs = [(a, b) for a in GAMMA for b in LAMBDA]
    defects = [d_hamming(sigma7.images[a] * sigma7.images[b],
                         sigma7.images[b] * sigma7.images[a]).value for a, b in pairs]
    oracle = [array_commutator_count(dense7.images[a], dense7.images[b]) for a, b in pairs]
    assert defects == [Fraction(count, 367_416) for count in oracle]
    assert rep["cond1_pairs"] == 12
    assert rep["cond1_defect_max"] == Fraction(max(oracle), 367_416)
    assert rep["cond2_fixed_fraction"] == dense7.images["t"].fixed_fraction()
    assert rep["cond4_min_displacement"] == image_overlap_displacement(dense7.images["t"], 7)
    defect = commutator_defects(dense7.images["t"])
    words = itertools.islice(sofic._lambda_words_bfs(3, 8), len(rep["cond3_tested"]))
    for tested, word in zip(rep["cond3_tested"], words):
        assert tested["word"] == repr(word)
        assert tested["defect"] == defect(lambda pts: _apply_word(dense7, word, pts))


def test_four_condition_suite_peaks_far_below_the_dense_model(monkeypatch):
    # eight dense G(7) image arrays would be 23 MiB; the report holds a few
    # blocks of GpContext.blocks() at a time and enumerates no image
    refuse_materialize(monkeypatch)
    suite_four_conditions(7)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        suite_four_conditions(7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 8 * 2**20


def full_soficity_values(sigma, tilde, family, seed):
    """The worst fixed fraction and the displacement verdict of
    suite_soficity's sampled words, with both factors of every product
    evaluated in full, and the number of words whose K factor fixes a
    point."""
    rng = random.Random(seed)
    psi, rho = family["psi"], family["rho"]
    left, right = list(tilde.left_names), list(tilde.right_names)
    worst = Fraction(0)
    k_fixing = 0
    for _ in range(50):
        g = _random_nontrivial_word(rng, left, 6,
                                    reject=lambda w: hom_eval(psi, w).is_identity())
        h = random_reduced_word(rng, right, rng.randint(0, 4))
        f_g, f_k = (model.eval(pw(g, h)).fixed_fraction() for model in (sigma, tilde))
        worst = max(worst, f_g * f_k)
        k_fixing += f_k > 0
    displaced = True
    for _ in range(20):
        h = _random_nontrivial_word(rng, right, 5,
                                    reject=lambda w: hom_eval(rho, w).is_identity())
        d_g, d_k = (d_hamming(model.eval(pw(right=h)), model.domain.identity_perm()).value
                    for model in (sigma, tilde))
        displaced = displaced and 1 - (1 - d_g) * (1 - d_k) == 1
        k_fixing += d_k < 1
    return worst, displaced, k_fixing


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_soficity_k_factor_shortcut_matches_full_products(dense7, tilde7, family7,
                                                         seed, monkeypatch):
    import soficlab.suites as suites

    worst, displaced, k_fixing = full_soficity_values(dense7, tilde7, family7, seed)

    def refuse(*args, **kwargs):
        raise AssertionError("the soficity suite builds no G(p) model")

    # f_G is counted on the implicit maps: no model is built or enumerated
    monkeypatch.setattr(suites, "build_hom_specs", lambda *args: family7)
    monkeypatch.setattr(suites, "build_tilde_sigma", lambda family: tilde7)
    monkeypatch.setattr(suites, "build_sigma", refuse)
    refuse_materialize(monkeypatch)
    checks = {c["name"]: c for c in suite_soficity(7, seed).checks}
    # the shortcut is not taken everywhere: some words reach the G(p) factor
    assert k_fixing > 0
    assert Fraction(checks["fixed-fraction-nontrivial-left"]["value"]) == worst
    assert checks["right-translation-displacement"]["pass"] is displaced


def test_slab_involution_hypotheses_are_checks(family7, monkeypatch):
    ctx = GpContext(7)
    slabs = {
        # h0 must not square to e
        "square to e": (a_shift_vector(7), PSL2Element.identity(7)),
        # a zero shift makes the shifted slab the slab itself
        "not disjoint": (ApVector.zero(7), PSL2Element(1, 1, 0, 1, 7)),
    }
    for match, slab in slabs.items():
        with pytest.raises(GenerationCheckError, match=match):
            ctx.t_perm(*slab)
        # the region count refuses what the slab involution refuses
        monkeypatch.setattr(sofic, "slab_translation", lambda p: slab)
        with pytest.raises(GenerationCheckError, match=match):
            t_commutator_defect(family7, ReducedWord.gen("b3"))


@cache
def _implicit_model(p):
    """The implicit G(p) model past p = 7, built once per level."""
    return build_sigma(build_hom_specs(p, 5, 3))


_right_words = st.lists(st.tuples(st.sampled_from(LAMBDA), st.sampled_from((1, -1))),
                        max_size=4).map(
    lambda letters: ReducedWord(tuple(letters)))


@settings(max_examples=30, deadline=None)
@given(word=_right_words)
@example(word=ReducedWord())
@example(word=ReducedWord.gen("b3"))
def test_region_count_matches_exact_hom_defect(dense7, word):
    # the lemma, on the dense p = 7 model: t o r and r o t differ exactly
    # where r changes the slab region
    expected = hom_defect(dense7, pw(right=word), pw(ReducedWord.gen("t")))
    assert t_commutator_defect(dense7.family, word) == expected


@settings(max_examples=30, deadline=None)
@given(word=_right_words, p=st.sampled_from((7, 13, 37)),
       samples=st.sampled_from((1, 997, SAMPLE_BLOCK + 7)),
       seed=st.integers(0, 2**32 - 1))
@example(word=ReducedWord(), p=13, samples=997, seed=0)
@example(word=ReducedWord.gen("b3"), p=37, samples=997, seed=54)
def test_region_count_samples_like_hom_defect(dense7, word, p, samples, seed):
    # the same points as d_hamming on the enumerated model's flat domain at
    # p = 7 and on the implicit model's domain past it, so the same float
    sigma = dense7 if p == 7 else _implicit_model(p)
    expected = hom_defect(sigma, pw(right=word), pw(ReducedWord.gen("t")),
                          samples=samples, seed=seed)
    assert t_commutator_defect(sigma.family, word, samples=samples, seed=seed) == expected


_left_words = st.lists(st.tuples(st.sampled_from(GAMMA + ("t", "t")),
                                  st.sampled_from((1, -1))),
                       max_size=7).map(lambda letters: ReducedWord(tuple(letters)))
# phi(a1) has order 7 at p = 7, so a1^7 is a run with trivial image
_A1_RUN = ReducedWord.gen("a1") ** 7
_T = ReducedWord.gen("t")


@settings(max_examples=40, deadline=None)
@given(left=_left_words, right=_right_words)
@example(left=ReducedWord(), right=ReducedWord())
@example(left=ReducedWord(), right=ReducedWord.gen("b2"))
@example(left=_T * _T, right=ReducedWord())
@example(left=_T.inverse() * _T.inverse() * ReducedWord.gen("a2"),
         right=ReducedWord.gen("b1"))
@example(left=_T * _A1_RUN * _T, right=ReducedWord())
@example(left=ReducedWord.gen("a3") * _T * _A1_RUN * _T * ReducedWord.gen("a3", -1),
         right=ReducedWord.gen("b3"))
@example(left=_A1_RUN * _T * ReducedWord.gen("a4"), right=ReducedWord())
# criterion 05's worst word: 11 fixed points
@example(left=ReducedWord((("a2", 1), ("a2", 1), ("a4", -1), ("t", -1))),
         right=ReducedWord((("b2", -1), ("b1", -1), ("b1", -1), ("b3", -1))))
def test_fixed_count_matches_dense_model(dense7, left, right):
    # x is fixed by L o R exactly when R(x) = L^-1(x), read block by block
    word = pw(left, right)
    assert sofic.fixed_count(dense7.family, word) == dense7.eval(word).fixed_count()


# a dense image array of G(7): 367,416 int64 images
DENSE_IMAGE_BYTES = 367_416 * 8


@settings(max_examples=10, deadline=None)
@given(u=st.builds(pw, _left_words, _right_words), v=st.builds(pw, _left_words, _right_words))
@example(u=pw(right=ReducedWord.gen("b3")), v=pw(ReducedWord.gen("t")))
# a long pair: every map of both chains runs on the block's full grid
@example(u=pw(ReducedWord((("a4", -1), ("t", -1))),
              ReducedWord((("b2", -1), ("b1", 1), ("b2", -1), ("b2", -1)))),
         v=pw(ReducedWord((("t", 1), ("t", 1), ("a2", 1), ("a1", 1), ("a3", 1), ("a2", -1))),
              ReducedWord((("b3", 1), ("b2", -1), ("b3", -1), ("b3", -1)))))
def test_exact_hom_defect_counts_blocks_on_the_implicit_model(sigma7, dense7, u, v):
    # the two composed word maps are compared block by block and neither is
    # enumerated: the peak is each side's batch of one block (65,520 points,
    # 24 B each) and one map's temporaries, whatever the words' lengths,
    # where materializing both sides would hold two dense image arrays and
    # a block's working set besides
    with pytest.MonkeyPatch.context() as monkeypatch:
        refuse_materialize(monkeypatch)
        hom_defect(sigma7, u, v)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            value = hom_defect(sigma7, u, v).value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert value == hom_defect(dense7, u, v).value
    assert peak - start < 3 * DENSE_IMAGE_BYTES


def test_soficity_suite_peaks_far_below_the_dense_model():
    # eight dense G(7) image arrays would be 23 MiB; counting f_G on the
    # implicit maps holds a few blocks of GpContext.blocks() at a time
    suite_soficity(7, 1)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        suite_soficity(7, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 8 * 2**20


def test_sampled_defect_agrees_with_exact(dense7):
    u = pw(right=ReducedWord.gen("b3"))
    v = pw(ReducedWord.gen("t"))
    exact = hom_defect(dense7, u, v).value
    est = hom_defect(dense7, u, v, samples=40_000, seed=4)
    assert abs(est.value - float(exact)) <= est.radius


def test_tilde_factorizes(tilde7, family7):
    # the K model: psi-translation on the left, inverse zeta-translation on
    # the right, on the 660 points of PSL2(F_11)
    rng = random.Random(5)
    psi, zeta = family7["psi"], family7["zeta"]
    from soficlab.algebra import psl2_table

    table = psl2_table(11)
    assert (tilde7.domain.size, tilde7.mode) == (660, "exact")
    for _ in range(20):
        g = random_reduced_word(rng, GAMMA + ("t",), rng.randint(0, 4))
        h = random_reduced_word(rng, LAMBDA, rng.randint(0, 4))
        perm = tilde7.eval(pw(g, h))
        u = hom_eval(psi, g)
        z = hom_eval(zeta, h)
        for _ in range(20):
            j = rng.randrange(660)
            assert perm.images[j] == table.index(u * table[j] * z.inverse())


def test_tilde_is_built_past_the_g_model_budget():
    # the K model needs only the family, so it is exact where G(p) is not
    family = build_hom_specs(13, 5, 3)
    tilde = build_tilde_sigma(family)
    assert (tilde.domain.size, tilde.mode) == (2448, "exact")


def test_tilde_second_factor_contributes_no_defect(tilde7):
    rng = random.Random(6)
    for _ in range(20):
        u = pw(random_reduced_word(rng, GAMMA + ("t",), rng.randint(0, 3)),
               random_reduced_word(rng, LAMBDA, rng.randint(0, 3)))
        v = pw(random_reduced_word(rng, GAMMA + ("t",), rng.randint(0, 3)),
               random_reduced_word(rng, LAMBDA, rng.randint(0, 3)))
        assert hom_defect(tilde7, u, v).value == 0


def test_tilde_matches_sigma_defect(tilde7, sigma7):
    # the product's defect 1 - (1 - d_G)(1 - d_K) is the G(p) model's own
    u = pw(right=ReducedWord.gen("b3"))
    v = pw(ReducedWord.gen("t"))
    d_g, d_k = (hom_defect(model, u, v).value for model in (sigma7, tilde7))
    assert 1 - (1 - d_g) * (1 - d_k) == d_g == Fraction(1075, 5103)


def test_implicit_mode_agrees_with_exact_at_p7(sigma7, dense7):
    # build_sigma returns the implicit maps at every p; at p = 7 its mode
    # records that G(7) is enumerable, and the maps enumerated once arbitrate
    implicit, exact = sigma7, dense7
    assert implicit.mode == "exact"
    assert all(isinstance(image, ImplicitPerm) for image in implicit.images.values())
    rng = np.random.default_rng(7)
    pts = implicit.domain.sample(rng, 2000)
    flat = implicit.domain.index(pts)
    words = [
        pw(ReducedWord.gen("t")),
        pw(ReducedWord.gen("a3")),
        pw(right=ReducedWord.gen("b3")),
        pw(ReducedWord.gen("a1") * ReducedWord.gen("t", -1),
           ReducedWord.gen("b3") * ReducedWord.gen("b1")),
    ]
    for w in words:
        assert np.array_equal(implicit.domain.index(implicit.eval(w).apply(pts)),
                              exact.eval(w).images[flat])


def test_implicit_mode_selected_beyond_budget():
    sigma13 = build_sigma(build_hom_specs(13, 5, 3))
    assert sigma13.mode == "implicit"
    rng = np.random.default_rng(8)
    perm = sigma13.eval(pw(ReducedWord.gen("t"), ReducedWord.gen("b3")))
    pts = sigma13.domain.sample(rng, 500)
    back = perm.apply_inverse(perm.apply(pts))
    assert bool(np.all(sigma13.domain.points_equal(back, pts)))


def test_exact_mode_refused_beyond_budget():
    with pytest.raises(ValueError):
        materialize(build_sigma(build_hom_specs(13, 5, 3)).images["t"])


def test_exact_routes_refuse_past_budget_before_enumerating(monkeypatch):
    # each exact route refuses G(13) by its size, before it reads a block
    # or decodes a vector
    sigma13 = _implicit_model(13)
    family = sigma13.family

    def refuse(*args, **kwargs):
        raise AssertionError("G(13) was enumerated")

    monkeypatch.setattr(GpContext, "blocks", refuse)
    for module in (sofic, f3vectors):
        monkeypatch.setattr(module, "decode_indices", refuse)
    refuse_materialize(monkeypatch)
    t, b3 = sigma13.images["t"], sigma13.images["b3"]
    routes = [
        lambda: d_hamming(t * b3, b3 * t),
        lambda: hom_defect(sigma13, pw(right=ReducedWord.gen("b3")), pw(ReducedWord.gen("t"))),
        lambda: four_condition_report(sigma13),
        lambda: sofic.fixed_count(family, pw(ReducedWord.gen("t"), ReducedWord.gen("b3"))),
        lambda: t_commutator_defect(family, ReducedWord.gen("b3")),
    ]
    for route in routes:
        with pytest.raises(ValueError, match="too large to enumerate exactly"):
            route()


def test_implicit_slab_overlap_refused():
    # v = (1, -1, 0, ..., 0) moves some of S(13) into itself; the check
    # runs on implicit models too
    with pytest.raises(ValueError, match="not disjoint"):
        GpContext(13).t_perm(v_vector(13), PSL2Element(1, 1, 0, 1, 13))


@pytest.mark.parametrize("samples", [1, SAMPLE_BLOCK, SAMPLE_BLOCK + 7])
def test_sampled_blocks_count_like_one_pass(samples):
    sigma13 = build_sigma(build_hom_specs(13, 5, 3))
    t, b3 = sigma13.images["t"], sigma13.images["b3"]
    lhs, rhs = b3.compose(t), t.compose(b3)
    pts = sigma13.domain.sample(np.random.default_rng(5), samples)
    agree = np.count_nonzero(sigma13.domain.points_equal(lhs.apply(pts), rhs.apply(pts)))
    est = d_hamming(lhs, rhs, mode="sampled", samples=samples, seed=5)
    assert est.value == 1.0 - float(agree) / samples


def test_every_generator_inverts_at_p37():
    sigma37 = build_sigma(build_hom_specs(37, 5, 3))
    assert sigma37.mode == "implicit"
    domain = sigma37.domain
    pts = domain.sample(np.random.default_rng(37), 2000)
    for name, image in sigma37.images.items():
        moved = image.apply(pts)
        assert not np.all(domain.points_equal(moved, pts)), name
        assert np.all(domain.points_equal(image.apply_inverse(moved), pts)), name
        assert np.all(domain.points_equal(image.apply(image.apply_inverse(pts)), pts)), name


def test_pair_points_equal_compares_both_planes():
    # two vectors with the same 1-plane whose 2-planes differ
    a = ApVector(13, (0, 2) + (0,) * 11 + (1,))
    b = ApVector(13, (2, 0) + (0,) * 11 + (1,))
    points = decode_indices(np.array([ap_index(a), ap_index(b)]), 13)
    h = np.zeros(2, dtype=np.int64)
    assert points[0, 0] == points[1, 0]
    domain = GpContext(13)
    assert domain.points_equal((points[:1], h[:1]), (points[1:], h[1:])).tolist() == [False]
    assert domain.points_equal((points, h), (points, h)).tolist() == [True, True]
