import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficlab.algebra import PSL2Element, psl2_order, psl2_table
from soficlab.f3vectors import ApVector, ap_unindex, h_act, v_vector
from soficlab.groups import (
    GenerationCheckError,
    GpElement,
    GpIndexer,
    PairElement,
    bfs_closure_order,
    build_hom_specs,
    hom_eval,
    hom_family_from_json,
    hom_family_to_json,
    HomSpec,
    verify_surjectivity,
)
from soficlab.smallgroups import subgroup_closure
from soficlab.words import ReducedWord, random_reduced_word

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
    k_elems = __import__("soficlab.algebra", fromlist=["psl2_enumerate"]).psl2_enumerate(11)
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
    assert phi.image("a3").a == family7.v1
    assert phi.image("a4").a == family7.v2
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
    oracle = subgroup_closure(table.mul_table(), {i, j})
    assert bfs_closure_order([table[i], table[j]]) == len(oracle)


@pytest.mark.parametrize("name", ["phi", "rho", "phi_tilde", "rho_tilde"])
def test_surjectivity_certificates(name, family7):
    cert = verify_surjectivity(family7[name], family7)
    assert cert.ok, cert.details


# the search order of the closures decides which word is found
CANCELLING_WORDS_P7 = {
    "phi": "a1^-1 a2 a2 a1^-1 a2^-1",
    "rho": "b1^-1 b2 b2 b1^-1 b2^-1",
    "phi_tilde": "a2 a1 a2 a1^-1 a2^-1 a1^-1 a1^-1 a2^-1 a1^-1 a2 a1",
    "rho_tilde": "b1 b2^-1 b1^-1 b2^-1 b2^-1 b2^-1 b2^-1 b1^-1 b2^-1 b1 b2^-1",
}


@pytest.mark.parametrize("name", sorted(CANCELLING_WORDS_P7))
def test_certificate_words_are_pinned(name, family7):
    details = verify_surjectivity(family7[name], family7).details
    assert details["cancelling_word"] == CANCELLING_WORDS_P7[name]
    assert details["closure_dim"] == 7


def test_rho_tilde_factor_quotient_route(family7):
    cert = verify_surjectivity(family7["rho_tilde"], family7, route="factor-quotients")
    assert cert.ok and cert.route == "factor-quotients"
    assert cert.details["right_factor_order"] == psl2_order(11)


def test_surjectivity_fails_without_decoration(family7):
    xi = family7["xi"]
    undecorated = HomSpec(
        "flat", ("a1", "a2"),
        tuple(GpElement(ApVector.zero(7), xi.image(g)) for g in ("a1", "a2")),
        "G7",
    )
    cert = verify_surjectivity(undecorated, family7)
    assert not cert.ok


def test_homspec_json_round_trip(family7):
    text = hom_family_to_json(family7)
    back = hom_family_from_json(text)
    assert back.p == 7 and back.r_p == 11
    for name, spec in family7.specs.items():
        assert back[name].gen_names == spec.gen_names
        assert back[name].images == spec.images
    assert hom_family_to_json(back) == text
