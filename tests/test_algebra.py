import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficlab.algebra import (
    PSL2Element,
    ProjectivePoint,
    centralizer_fraction,
    centralizer_fraction_max,
    moebius_act,
    next_prime,
    projective_line,
    psl2_enumerate,
    psl2_order,
    psl2_table,
    reduce_word_mod,
)


def test_identity_product():
    e = PSL2Element.identity(7)
    assert e * e == e


def test_upper_triangular_addition():
    m = PSL2Element(1, 1, 0, 1, 7)
    assert (m * m).entries() == (1, 2, 0, 1)


def test_modulus_mismatch_rejected():
    with pytest.raises(ValueError):
        PSL2Element.identity(5) * PSL2Element.identity(7)


def test_bad_determinant_rejected():
    with pytest.raises(ValueError):
        PSL2Element(1, 1, 1, 1, 7)


@pytest.mark.parametrize("q", [5, 7, 11])
def test_associativity_random_triples(q):
    elems = psl2_enumerate(q)
    rng = random.Random(q)
    for _ in range(10_000):
        x, y, z = (rng.choice(elems) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_inverses_exhaustive_q5():
    for g in psl2_enumerate(5):
        assert (g * g.inverse()).is_identity()
        assert (g.inverse() * g).is_identity()


def test_canonicalization_idempotent():
    rng = random.Random(0)
    elems = psl2_enumerate(11)
    for _ in range(200):
        g = rng.choice(elems)
        again = PSL2Element(g.a, g.b, g.c, g.d, 11)
        assert again.entries() == g.entries()
        negated = PSL2Element(-g.a, -g.b, -g.c, -g.d, 11)
        assert negated == g


def test_moebius_translation_and_inversion():
    g = PSL2Element(1, 1, 0, 1, 7)
    assert moebius_act(g, ProjectivePoint(0, 7)) == ProjectivePoint(1, 7)
    w = PSL2Element(0, -1, 1, 0, 7)
    assert moebius_act(w, ProjectivePoint.infinity(7)) == ProjectivePoint(0, 7)


def test_moebius_is_bijection_for_every_element_q7():
    line = projective_line(7)
    for g in psl2_enumerate(7):
        assert len({moebius_act(g, x).value for x in line}) == 8


def test_moebius_is_group_action_q7():
    line = projective_line(7)
    gens = [PSL2Element(1, 1, 0, 1, 7), PSL2Element(0, -1, 1, 0, 7)]
    rng = random.Random(1)
    elems = psl2_enumerate(7)
    for _ in range(300):
        g = rng.choice(gens)
        h = rng.choice(elems)
        x = rng.choice(line)
        assert moebius_act(g * h, x) == moebius_act(g, moebius_act(h, x))


@pytest.mark.parametrize("q,order", [(5, 60), (7, 168), (11, 660)])
def test_enumeration_matches_order_formula(q, order):
    elems = psl2_enumerate(q)
    assert len(elems) == order == psl2_order(q)
    assert len(set(elems)) == order
    table = psl2_table(q)
    for i in (0, order // 2, order - 1):
        assert table.index(table[i]) == i


def test_enumeration_order_is_lexicographic():
    elems = psl2_enumerate(5)
    keys = [g.entries() for g in elems]
    assert keys == sorted(keys)


def test_reduce_word_empty_is_identity():
    assert reduce_word_mod([], 7).is_identity()


def test_reduce_word_small_entries():
    assert reduce_word_mod([((1, 2), (0, 1))], 7).entries() == (1, 2, 0, 1)


def test_reduce_word_formal_inverse_cancels():
    rng = random.Random(2)
    mats = [((1, 2), (0, 1)), ((1, 0), (2, 1)), ((3, 2), (1, 1))]
    for _ in range(100):
        word = [rng.choice(mats) for _ in range(rng.randint(1, 6))]
        inverse_word = [((d, -b), (-c, a)) for (a, b), (c, d) in reversed(word)]
        assert reduce_word_mod(word + inverse_word, 11).is_identity()


def test_reduce_word_is_multiplicative():
    rng = random.Random(3)
    mats = [((1, 2), (0, 1)), ((1, 0), (2, 1))]
    for _ in range(50):
        u = [rng.choice(mats) for _ in range(rng.randint(0, 4))]
        v = [rng.choice(mats) for _ in range(rng.randint(0, 4))]
        assert reduce_word_mod(u + v, 7) == reduce_word_mod(u, 7) * reduce_word_mod(v, 7)


def test_reduce_word_rejects_bad_determinant():
    with pytest.raises(ValueError):
        reduce_word_mod([((2, 0), (0, 2))], 7)


def test_centralizer_fraction_identity():
    assert centralizer_fraction(PSL2Element.identity(7)) == 1


def test_centralizer_single_element_q7():
    g = PSL2Element(1, 1, 0, 1, 7)
    assert centralizer_fraction(g) <= Fraction(1, 12)


@pytest.mark.parametrize("q", [5, 7, 11, 13])
def test_centralizer_bound_exhaustive(q):
    assert centralizer_fraction_max(q) <= Fraction(1, 2 * (q - 1))


def test_next_prime():
    assert next_prime(7) == 11
    assert next_prime(13) == 17
    assert next_prime(37) == 41


@settings(max_examples=200, deadline=None)
@given(q=st.sampled_from((5, 7, 11, 13)), data=st.data())
def test_multiplication_maps_match_object_products(q, data):
    table = psl2_table(q)
    i = data.draw(st.integers(0, len(table) - 1))
    j = data.draw(st.integers(0, len(table) - 1))
    expected = table.index(table[i] * table[j])
    assert table.left_mul_perm(table[i])[j] == expected
    assert table.right_mul_perm(table[j])[i] == expected
