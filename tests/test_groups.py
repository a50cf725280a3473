import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficlab.algebra import PSL2Element, psl2_order, psl2_table
from soficlab.f3vectors import ApVector, ap_unindex, h_act, v2_vector, v_vector
from soficlab import groups
from soficlab.groups import (
    Closure,
    GenerationCheckError,
    GpElement,
    PairElement,
    _factors,
    bfs_closure_order,
    build_hom_specs,
    hom_eval,
    HomSpec,
    sigma_gen_names,
    verify_surjectivity,
)
from soficlab.words import ReducedWord, random_reduced_word

from conftest import GpIndexer, pairwise_subgroup_closure

GAMMA = ("a1", "a2", "a3", "a4")
LAMBDA = ("b1", "b2", "b3")


def random_gp(rng, idxr):
    return idxr.unindex(rng.randrange(idxr.size))


def test_subgroup_embeddings_multiply():
    p = 7
    a = v_vector(p)
    h = PSL2Element(1, 1, 0, 1, p)
    left = GpElement(a, PSL2Element.identity(p))
    right = GpElement(ApVector.zero(p), h)
    assert left * right == GpElement(a, h)


def test_inverse_random_elements():
    idxr = GpIndexer(7)
    rng = random.Random(0)
    for _ in range(10_000):
        x = random_gp(rng, idxr)
        assert (x * x.inverse()).is_identity()


def test_associativity_random_triples():
    idxr = GpIndexer(7)
    rng = random.Random(1)
    for _ in range(2000):
        x, y, z = (random_gp(rng, idxr) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_conjugation_matches_coordinate_action():
    idxr = GpIndexer(7)
    rng = random.Random(2)
    for _ in range(500):
        a = ap_unindex(rng.randrange(3**7), 7)
        h = idxr.table[rng.randrange(idxr.h_order)]
        lhs = (
            GpElement(ApVector.zero(7), h)
            * GpElement(a, PSL2Element.identity(7))
            * GpElement(ApVector.zero(7), h).inverse()
        )
        assert lhs == GpElement(h_act(h, a), PSL2Element.identity(7))


def test_indexer_round_trip():
    idxr = GpIndexer(7)
    rng = random.Random(3)
    for _ in range(1000):
        i = rng.randrange(idxr.size)
        assert idxr.index(idxr.unindex(i)) == i


def test_pair_element_componentwise():
    rng = random.Random(4)
    idxr = GpIndexer(7)
    k_elems = list(psl2_table(11))
    for _ in range(10_000):
        x = PairElement(random_gp(rng, idxr), rng.choice(k_elems))
        assert (x * x.inverse()).is_identity()


def test_build_rejects_small_rank():
    with pytest.raises(GenerationCheckError):
        build_hom_specs(7, 4, 3)
    with pytest.raises(GenerationCheckError):
        build_hom_specs(7, 5, 2)


def test_build_rejects_bad_prime():
    with pytest.raises(ValueError):
        build_hom_specs(4, 5, 3)
    with pytest.raises(ValueError):
        build_hom_specs(11, 5, 3)  # prime but not 1 mod 3


def test_generator_images(family7):
    phi, rho, zeta = family7["phi"], family7["rho"], family7["zeta"]
    for name in ("a1", "a2"):
        assert phi.image(name).a.is_zero()
    assert phi.image("a3").a == v_vector(7)
    assert phi.image("a4").a == v2_vector(7)
    b3 = rho.image("b3")
    assert b3.a == h_act(b3.h, v_vector(7))
    assert zeta.image("b3").is_identity()
    assert not zeta.image("b1").is_identity()


def test_componentwise_homs(family7):
    rng = random.Random(5)
    for _ in range(100):
        w = random_reduced_word(rng, GAMMA, rng.randint(0, 6))
        lifted = hom_eval(family7["phi_tilde"], w)
        assert lifted.left == hom_eval(family7["phi"], w)
        assert lifted.right == hom_eval(family7["psi"], w)
    for _ in range(100):
        w = random_reduced_word(rng, LAMBDA, rng.randint(0, 6))
        lifted = hom_eval(family7["rho_tilde"], w)
        assert lifted.left == hom_eval(family7["rho"], w)
        assert lifted.right == hom_eval(family7["zeta"], w)


def test_eta_matches_phi_tilde_on_undecorated(family7):
    for name in ("a1", "a2"):
        img = family7["phi_tilde"].image(name)
        eta = family7["eta"].image(name)
        assert img.left.a.is_zero()
        assert img.left.h == eta.left and img.right == eta.right


def test_hom_eval_is_multiplicative(family7):
    rng = random.Random(6)
    rho = family7["rho"]
    for _ in range(200):
        u = random_reduced_word(rng, LAMBDA, rng.randint(0, 5))
        v = random_reduced_word(rng, LAMBDA, rng.randint(0, 5))
        assert hom_eval(rho, u * v) == hom_eval(rho, u) * hom_eval(rho, v)
    assert hom_eval(rho, ReducedWord()).is_identity()


def test_hom_eval_respects_reduction(family7):
    rho = family7["rho"]
    unreduced = ReducedWord.gen("b1") * ReducedWord.gen("b2") * \
        ReducedWord.gen("b2", -1) * ReducedWord.gen("b1")
    direct = ReducedWord.gen("b1") ** 2
    assert unreduced == direct
    assert hom_eval(rho, unreduced) == hom_eval(rho, direct)


def test_hom_eval_unknown_generator(family7):
    with pytest.raises(KeyError):
        hom_eval(family7["rho"], ReducedWord.gen("zz"))


def test_bfs_identity_alone():
    assert bfs_closure_order([PSL2Element.identity(7)]) == 1


def test_bfs_eta_closure_full_product(family7):
    eta = family7["eta"]
    expected = psl2_order(7) * psl2_order(11)
    got = bfs_closure_order([eta.image("a1"), eta.image("a2")], order_bound=expected)
    assert got == expected == 110_880


def test_bfs_right_undecorated_closure(family7):
    rho = family7["rho"]
    got = bfs_closure_order([rho.image("b1").h, rho.image("b2").h], order_bound=168)
    assert got == 168


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from((5, 7)), data=st.data())
def test_bfs_closure_matches_brute_force_oracle(q, data):
    table = psl2_table(q)
    i = data.draw(st.integers(0, len(table) - 1))
    j = data.draw(st.integers(0, len(table) - 1))
    oracle = pairwise_subgroup_closure(table.mul_table(), {i, j})
    assert bfs_closure_order([table[i], table[j]]) == len(oracle)


def _unique_dedupe_closure(generators):
    """Oracle: the breadth-first closure's (parent, step) arrays, keeping
    the first occurrence of each new element by np.unique and np.sort."""
    tables = [psl2_table(f.q) for f in _factors(generators[0])]
    shape = tuple(len(t) for t in tables)
    steps = []
    for g in generators:
        forward = [t.right_mul_perm(f) for t, f in zip(tables, _factors(g))]
        steps += [forward, [np.argsort(m) for m in forward]]
    parent = np.full(math.prod(shape), -1, dtype=np.int64)
    step = np.zeros_like(parent)
    identity = [t.index(PSL2Element.identity(t.q)) for t in tables]
    frontier = np.array([np.ravel_multi_index(identity, shape)])
    parent[frontier] = frontier
    while frontier.size:
        coords = np.unravel_index(frontier, shape)
        cand = np.stack([np.ravel_multi_index([m[c] for m, c in zip(maps, coords)], shape)
                         for maps in steps], axis=1).ravel()
        fresh = np.flatnonzero(parent[cand] < 0)
        _, first = np.unique(cand[fresh], return_index=True)
        keep = fresh[np.sort(first)]
        parent[cand[keep]] = frontier[keep // len(steps)]
        step[cand[keep]] = keep % len(steps)
        frontier = cand[keep]
    return parent, step


@settings(max_examples=30, deadline=None)
@given(moduli=st.sampled_from(((5,), (7,), (11,), (5, 7), (7, 5))), data=st.data())
def test_closure_arrays_match_unique_dedupe(moduli, data):
    def element(q):
        table = psl2_table(q)
        return table[data.draw(st.integers(0, len(table) - 1))]

    def generator():
        parts = [element(q) for q in moduli]
        return PairElement(*parts) if len(parts) == 2 else parts[0]

    generators = [generator() for _ in range(data.draw(st.integers(1, 3)))]
    closure = Closure(generators)
    parent, step = _unique_dedupe_closure(generators)
    assert np.array_equal(closure.parent, parent)
    assert np.array_equal(closure.step, step)
    assert len(closure) == np.count_nonzero(parent >= 0)


def test_eta_closure_arrays_match_unique_dedupe(family7):
    generators = [family7["eta"].image(g) for g in ("a1", "a2")]
    closure = Closure(generators)
    parent, step = _unique_dedupe_closure(generators)
    assert np.array_equal(closure.parent, parent) and np.array_equal(closure.step, step)


@pytest.mark.parametrize("p", (7, 37))
def test_generation_checks_close_each_generator_list_once(p, monkeypatch):
    lists = []

    def counting(generators, order_bound=None):
        lists.append(tuple(generators))
        return bfs_closure_order(generators, order_bound)

    monkeypatch.setattr(groups, "bfs_closure_order", counting)
    family = build_hom_specs(p, 5, 3)
    # xi-right closes xi-left's list and zeta closes psi-left's
    assert len(lists) == len(set(lists)) == 2
    assert sorted(family.checks) == sorted([
        "xi-left-undecorated-generates-H", "psi-left-undecorated-generates-K",
        "xi-right-undecorated-generates-H", "zeta-undecorated-generates-K"])
    assert all(check["pass"] for check in family.checks.values())


@pytest.mark.parametrize("name", ["phi", "rho", "phi_tilde", "rho_tilde"])
def test_surjectivity_certificates(name, family7):
    cert = verify_surjectivity(family7[name], family7)
    assert cert.ok, cert.details


# the search order of the closures decides which word is found
CANCELLING_WORDS_P7 = {
    "phi": "a1^-1 a2 a2 a1^-1 a2^-1",
    "rho": "b1^-1 b2 b2 b1^-1 b2^-1",
}


@pytest.mark.parametrize("name", ["phi", "phi_tilde", "rho", "rho_tilde"])
def test_certificate_words_are_pinned(name, family7):
    # a product target is certified through its G(p) factor, whose
    # certificate is the one of the G(p) map
    cert = verify_surjectivity(family7[name], family7)
    details = cert.details
    if name.endswith("_tilde"):
        assert cert.route == "factor-quotients"
        details = details["left_factor"]
    assert details["cancelling_word"] == CANCELLING_WORDS_P7[name.removesuffix("_tilde")]
    assert details["closure_dim"] == 7


def test_rho_tilde_factor_quotient_route():
    # at p = 19 the pair closure (3,420 x 6,072 elements) would be past the
    # closure budget; the factor route never builds it
    family = build_hom_specs(19, 5, 3)
    cert = verify_surjectivity(family["rho_tilde"], family)
    assert cert.ok and cert.route == "factor-quotients"
    assert cert.details["right_factor_order"] == psl2_order(23)


@pytest.mark.parametrize("p", [7, 13, 61])
def test_free_family_images_are_integer_reductions(p):
    # w_i = B^i A B^-i = [[1 - 4i, 2], [-8i^2, 1 + 4i]] in SL2(Z), reduced
    # mod p for xi and mod r(p) for psi
    family = build_hom_specs(p, 12, 3)
    for i, name in enumerate(sigma_gen_names(12), start=1):
        w = (1 - 4 * i, 2, -8 * i * i, 1 + 4 * i)
        assert family["xi"].image(name) == PSL2Element(*w, p)
        assert family["psi"].image(name) == PSL2Element(*w, family.r_p)


def test_surjectivity_fails_without_decoration(family7):
    xi = family7["xi"]
    undecorated = HomSpec(
        "flat", ("a1", "a2"),
        tuple(GpElement(ApVector.zero(7), xi.image(g)) for g in ("a1", "a2")),
        "G7",
    )
    cert = verify_surjectivity(undecorated, family7)
    assert not cert.ok

