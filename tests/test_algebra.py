import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficlab.algebra import (
    PSL2Element,
    ProjectivePoint,
    _entry_mul,
    centralizer_fraction,
    centralizer_fraction_max,
    is_prime,
    moebius_act,
    next_prime,
    projective_line,
    psl2_enumerate,
    psl2_order,
    psl2_table,
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


PROPERTY_MODULI = (5, 7, 11, 13, 17, 19, 23, 31, 37, 41)


@lru_cache(maxsize=None)
def _index_oracle(q):
    """Position of every canonical entry tuple, read off the table's columns."""
    return {e: i for i, e in enumerate(zip(*psl2_table(q).entries.tolist()))}


@st.composite
def _det1_matrices(draw, q):
    """A determinant-1 matrix mod q as PSL2Element, entries given with
    either sign (solved for d when a != 0, for b when a = 0)."""
    a, b, c, d = (draw(st.integers(0, q - 1)) for _ in range(4))
    if a:
        d = (1 + b * c) * pow(a, -1, q)
    else:
        c = c or 1
        b = -pow(c, -1, q)
    sign = draw(st.sampled_from((1, -1)))
    return PSL2Element(sign * a, sign * b, sign * c, sign * d, q)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), q=st.sampled_from(PROPERTY_MODULI))
def test_table_index_associativity_and_inverses(data, q):
    table = psl2_table(q)
    g, h, k = (data.draw(_det1_matrices(q)) for _ in range(3))
    i = table.index(g)
    assert i == _index_oracle(q)[g.entries()]
    assert table[i] == g
    assert all(type(x) is int for x in table[i].entries())
    assert (g * h) * k == g * (h * k)
    assert (g * g.inverse()).is_identity()


ORACLE_MODULI = tuple(q for q in range(3, 62) if is_prime(q))


def _sorted_key_lookup(table, a, b, c, d):
    """Oracle: the index by sorted search over the base-q keys
    ((a q + b) q + c) q + d of the canonical entries, which ascend with
    the index."""
    q = table.q
    keys = np.ravel_multi_index(table.entries, (q,) * 4)
    a, b, c, d = a % q, b % q, c % q, d % q
    neg = np.where(a != 0, a, b) > (q - 1) // 2
    canonical = [np.where(neg, (q - x) % q, x) for x in (a, b, c, d)]
    return np.searchsorted(keys, np.ravel_multi_index(canonical, (q,) * 4))


@pytest.mark.parametrize("q", ORACLE_MODULI)
def test_arithmetic_index_enumerates_every_class_in_order(q):
    table = psl2_table(q)
    a, b, c, d = table.entries
    assert table.entries.dtype == np.int64 and len(table) == psl2_order(q)
    assert np.all((a * d - b * c) % q == 1)
    # canonical: the first nonzero entry is a or b, in 1..(q-1)/2
    first = np.where(a != 0, a, b)
    assert np.all((first >= 1) & (first <= (q - 1) // 2))
    # strictly ascending keys: the lexicographic order of distinct classes
    assert np.all(np.diff(np.ravel_multi_index(table.entries, (q,) * 4)) > 0)
    assert np.array_equal(table.lookup(*table.entries), np.arange(len(table)))


@settings(max_examples=100, deadline=None)
@given(q=st.sampled_from(ORACLE_MODULI), data=st.data())
def test_arithmetic_index_matches_sorted_search(q, data):
    table = psl2_table(q)
    n = len(table)
    left = table.entries[:, data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))]
    right = table.entries[:, data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))]
    products = _entry_mul(left[:, :, None], right[:, None, :])
    expected = _sorted_key_lookup(table, *products)
    assert np.array_equal(table.lookup(*products), expected)
    assert np.array_equal(table.lookup(*(-x for x in products)), expected)
    assert np.array_equal(table.lookup(*(q - x for x in left)), _sorted_key_lookup(table, *left))


def test_enumeration_order_is_lexicographic():
    elems = psl2_enumerate(5)
    keys = [g.entries() for g in elems]
    assert keys == sorted(keys)


def test_centralizer_fraction_identity():
    assert centralizer_fraction(PSL2Element.identity(7)) == 1


def test_centralizer_single_element_q7():
    g = PSL2Element(1, 1, 0, 1, 7)
    assert centralizer_fraction(g) <= Fraction(1, 12)


@pytest.mark.parametrize("q", [5, 7, 11, 13])
def test_centralizer_bound_exhaustive(q):
    assert centralizer_fraction_max(q) <= Fraction(1, 2 * (q - 1))


def _canon_equal(p1: np.ndarray, p2: np.ndarray, q: int) -> np.ndarray:
    """Columnwise: do the 4-entry columns of p1 and p2 represent the same
    PSL2 class (equal or negatives of each other mod q)?"""
    eq = np.all(p1 == p2, axis=0)
    neg = np.all(p1 == (q - p2) % q, axis=0)
    return eq | neg


def centralizer_fraction_max_exhaustive(q: int) -> Fraction:
    """max over g != e of |C(g)| / |PSL2(F_q)|, vectorized over the group."""
    table = psl2_table(q)
    n = len(table)
    ent = table.entries
    identity = table.index(PSL2Element.identity(q))
    best = Fraction(0)
    for i, g in enumerate(ent.T.tolist()):
        if i == identity:
            continue
        # g*h and h*g entrywise over all h at once
        p1 = np.stack(_entry_mul(g, ent)) % q
        p2 = np.stack(_entry_mul(ent, g)) % q
        count = int(np.count_nonzero(_canon_equal(p1, p2, q)))
        best = max(best, Fraction(count, n))
    return best


# both residues of q mod 4, which pick the centralizer that attains the maximum
@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17])
def test_centralizer_fraction_max_matches_exhaustive_search(q):
    assert centralizer_fraction_max(q) == centralizer_fraction_max_exhaustive(q)


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
