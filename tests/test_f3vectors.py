import random
from fractions import Fraction
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficlab.algebra import PSL2Element, psl2_table
from soficlab.f3vectors import (
    ApVector,
    TypeCount,
    _permute,
    a_shift_vector,
    act_rows,
    ap_unindex,
    decode_indices,
    disjointness_check_ap_shift,
    encode_coords,
    f3_add,
    h_act,
    h_position_perm,
    invariant_closure_dim,
    permutation_tables,
    permute_coords,
    shift_overlap_counts,
    sp_count_exact,
    sp_mask,
    sp_shift_diff_exact,
    v2_vector,
    v_vector,
    vector_points,
)

from conftest import ap_index, coords_matrix, shifted_index_map, sp_membership

PRIMES = (7, 13, 19, 31, 37)


def _rows(points, p):
    """Oracle: the uint8 coordinate rows (..., p+1) of a bit-plane array."""
    shifts = np.arange(p + 1, dtype=np.uint64)
    bits = (points[..., None, :] >> shifts[:, None]) & np.uint64(1)
    return (bits[..., 0] + 2 * bits[..., 1]).astype(np.uint8)


def _points(rows):
    """Oracle: the bit-plane array (..., 2) of uint8 coordinate rows."""
    weights = np.uint64(1) << np.arange(rows.shape[-1], dtype=np.uint64)
    return np.stack([np.where(rows == c, weights, np.uint64(0)).sum(axis=-1)
                     for c in (1, 2)], axis=-1)


def brute_force_sp_indices(p):
    """Independent oracle: S(p) membership by enumerating all of A(p)."""
    mask = sp_mask(coords_matrix(p), p)
    return mask


def test_zero_sum_enforced():
    with pytest.raises(ValueError):
        ApVector(7, (1, 0, 0, 0, 0, 0, 0, 0))


def test_index_round_trip_zero():
    z = ApVector.zero(7)
    assert ap_index(z) == 0
    assert ap_unindex(0, 7) == z


def test_index_round_trip_random_p13():
    rng = random.Random(5)
    for _ in range(100_000):
        i = rng.randrange(3**13)
        assert ap_index(ap_unindex(i, 13)) == i


def test_index_round_trip_exhaustive_p7():
    for i in range(3**7):
        assert ap_index(ap_unindex(i, 7)) == i


def test_index_out_of_range():
    with pytest.raises(ValueError):
        ap_unindex(3**7, 7)


def test_addition_preserves_zero_sum():
    rng = random.Random(6)
    for _ in range(200):
        x = ap_unindex(rng.randrange(3**7), 7)
        y = ap_unindex(rng.randrange(3**7), 7)
        assert sum((x + y).coords) % 3 == 0
        assert (x + (-x)).is_zero()


def test_identity_action_fixes_vectors():
    e = PSL2Element.identity(7)
    rng = random.Random(7)
    for _ in range(50):
        x = ap_unindex(rng.randrange(3**7), 7)
        assert h_act(e, x) == x


def test_action_preserves_type_counts():
    rng = random.Random(8)
    elems = list(psl2_table(7))
    for _ in range(200):
        h = rng.choice(elems)
        x = ap_unindex(rng.randrange(3**7), 7)
        assert h_act(h, x).type_count() == x.type_count()


def test_action_is_compatible_with_products():
    rng = random.Random(9)
    gens = [PSL2Element(1, 1, 0, 1, 7), PSL2Element(0, -1, 1, 0, 7)]
    elems = list(psl2_table(7))
    for _ in range(100):
        g = rng.choice(gens)
        h = rng.choice(elems)
        x = ap_unindex(rng.randrange(3**7), 7)
        assert h_act(g, h_act(h, x)) == h_act(g * h, x)


def test_membership_examples():
    # counts (2, 6, 0) on 8 coordinates: 6 > 4 and 6 > 2
    x = ApVector(7, (1, 1, 1, 1, 1, 1, 0, 0))
    assert sp_membership(x)
    assert not sp_membership(ApVector.zero(7))
    # counts (3, 4, 1): 4 is not greater than 3 + 2
    y = ApVector(7, (1, 1, 1, 1, 2, 0, 0, 0))
    assert y.type_count() == TypeCount(3, 4, 1)
    assert not sp_membership(y)


def test_membership_invariant_under_action():
    rng = random.Random(10)
    elems7 = list(psl2_table(7))
    for _ in range(1000):
        h = rng.choice(elems7)
        x = ap_unindex(rng.randrange(3**7), 7)
        assert sp_membership(h_act(h, x)) == sp_membership(x)
    elems13 = list(psl2_table(13))
    for _ in range(1000):
        h = rng.choice(elems13)
        x = ap_unindex(rng.randrange(3**13), 13)
        assert sp_membership(h_act(h, x)) == sp_membership(x)


def test_count_exact_matches_exhaustive_p7():
    assert sp_count_exact(7) == int(brute_force_sp_indices(7).sum()) == 204


@pytest.mark.parametrize("p", PRIMES)
def test_count_ratio_bounds(p):
    ratio = Fraction(sp_count_exact(p), 3**p)
    assert Fraction(1, 243) <= ratio <= Fraction(1, 3)


def test_count_matches_monte_carlo_p13():
    rng = np.random.default_rng(11)
    n = 1_000_000
    idx = rng.integers(0, 3**13, size=n, dtype=np.int64)
    coords = np.empty((n, 14), dtype=np.uint8)
    rem = idx
    for i in range(13):
        coords[:, i] = rem % 3
        rem = rem // 3
    coords[:, 13] = (-coords[:, :13].sum(axis=1, dtype=np.int64)) % 3
    hits = int(sp_mask(_points(coords), 13).sum())
    p_hat = hits / n
    truth = sp_count_exact(13) / 3**13
    sd = sqrt(truth * (1 - truth) / n)
    assert abs(p_hat - truth) <= 3 * sd


def test_shift_diff_zero_shift():
    assert sp_shift_diff_exact(ApVector.zero(7)) == 0


def test_shift_diff_matches_exhaustive_p7():
    # the slab shift a(p) has support p - 1; S and S + a(p) are disjoint,
    # so their symmetric difference is 2|S(7)| = 408
    mask = brute_force_sp_indices(7)
    for w, diff in ((v_vector(7), 240), (a_shift_vector(7), 408)):
        shifted = np.zeros(3**7, dtype=bool)
        shifted[shifted_index_map(coords_matrix(7), w)[mask]] = True
        assert sp_shift_diff_exact(w) == int((mask ^ shifted).sum()) == diff


def test_shift_ratio_decays_with_fitted_constant():
    ratios = [Fraction(sp_shift_diff_exact(v_vector(p)), 3**p) for p in PRIMES]
    c = max(float(r) * sqrt(p) for r, p in zip(ratios, PRIMES))
    for r, p in zip(ratios, PRIMES):
        assert float(r) <= c / sqrt(p) + 1e-15
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_disjointness_exhaustive_p7():
    mask = brute_force_sp_indices(7)
    shifted = np.zeros(3**7, dtype=bool)
    shifted[shifted_index_map(coords_matrix(7), a_shift_vector(7))[mask]] = True
    assert not np.any(mask & shifted)
    assert disjointness_check_ap_shift(7)


def test_disjointness_conditioned_count_p13():
    assert disjointness_check_ap_shift(13)


def test_zero_shift_overlaps_everything():
    counts = shift_overlap_counts(ApVector.zero(7))
    assert counts["both"] == counts["s"] == 204
    assert counts["only_s"] == counts["only_shift"] == 0


def test_closure_dim_zero_vector():
    assert invariant_closure_dim(ApVector.zero(7)) == 0


def test_closure_dim_standard_vectors():
    assert invariant_closure_dim(v_vector(7)) == 7
    assert invariant_closure_dim(v2_vector(7)) == 7


def test_closure_dim_random_nonzero():
    rng = random.Random(12)
    for _ in range(100):
        x = ap_unindex(rng.randrange(1, 3**7), 7)
        assert invariant_closure_dim(x) == 7


def test_encode_decode_consistency():
    mat = coords_matrix(7)
    assert np.array_equal(encode_coords(mat, 7), np.arange(3**7))


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from((7, 13, 19, 31, 37)), data=st.data())
def test_decode_indices_matches_scalar_unindex(p, data):
    idx = data.draw(st.lists(st.integers(0, 3**p - 1), min_size=6, max_size=6))
    points = decode_indices(np.array(idx, dtype=np.int64).reshape(2, 3), p)
    coords = _rows(points, p)
    assert coords.shape == (2, 3, p + 1)
    rows = coords.reshape(6, p + 1)
    assert [tuple(map(int, r)) for r in rows] == [ap_unindex(i, p).coords for i in idx]
    assert encode_coords(points, p).ravel().tolist() == idx


def _moebius(g, x):
    """Oracle: the textbook fractional-linear map (ax+b)/(cx+d) on the point
    at position x of P^1(F_q), position q the point at infinity: infinity
    maps to a/c (infinity when c = 0), and a zero denominator to infinity."""
    a, b, c, d = g.entries()
    q = g.q
    if x == q:
        return q if c == 0 else a * pow(c, -1, q) % q
    den = (c * x + d) % q
    return q if den == 0 else (a * x + b) * pow(den, -1, q) % q


def _scalar_positions(h):
    """Oracle: the position of h^(-1) applied to each point of P^1(F_q)."""
    return tuple(_moebius(h.inverse(), x) for x in range(h.q + 1))


@settings(max_examples=100, deadline=None)
@given(q=st.sampled_from((5, 7, 11, 13, 17, 19, 23, 29, 31, 37)), data=st.data())
def test_act_rows_and_position_perm_match_scalar_oracle(q, data):
    table = psl2_table(q)
    cols = data.draw(st.lists(st.integers(0, len(table) - 1), min_size=1, max_size=5))
    kind = data.draw(st.sampled_from(("dense", "support 2", "zero")))
    if kind == "dense":
        w = ApVector(q, _tuple_vector(data, q))
    elif kind == "support 2":  # the shape of the decorated right letter's shift
        i, j = data.draw(st.lists(st.integers(0, q), min_size=2, max_size=2, unique=True))
        w = ApVector(q, [1 if x == i else 2 if x == j else 0 for x in range(q + 1)])
    else:
        w = ApVector.zero(q)
    # either sign of each representative acts alike
    sign = data.draw(st.sampled_from((1, -1)))
    rows = act_rows(sign * table.entries[:, cols], w)
    assert rows.shape == (len(cols), 2) and rows.dtype == np.uint64
    for row, i in zip(rows, cols):
        h = table[i]
        src = _scalar_positions(h)
        assert h_position_perm(h) == src
        assert row.tolist() == vector_points(_permute(src, w)).tolist()


# -- the bit-plane kernel against uint8 row oracles -------------------------

def _random_rows(data, p, shape):
    n = int(np.prod(shape)) * (p + 1)
    flat = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return np.array(flat, dtype=np.uint8).reshape(shape + (p + 1,))


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from(PRIMES), data=st.data())
def test_decoded_planes_are_disjoint_and_clean(p, data):
    idx = np.array(data.draw(st.lists(st.integers(0, 3**p - 1), min_size=6, max_size=6)))
    points = decode_indices(idx.reshape(2, 3), p)
    assert points.shape == (2, 3, 2) and points.dtype == np.uint64
    assert not np.any(points[..., 0] & points[..., 1])
    assert not np.any(points >> np.uint64(p + 1))
    assert np.array_equal(points, _points(_rows(points, p)))


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from(PRIMES), data=st.data())
def test_plane_addition_matches_rows_mod3(p, data):
    a = _random_rows(data, p, (2, 3))
    b = _random_rows(data, p, (2, 3))
    total = f3_add(_points(a), _points(b))
    assert np.array_equal(_rows(total, p), (a + b) % 3)
    assert not np.any(total >> np.uint64(p + 1))
    # broadcasting one vector against a batch, as the maps add constants
    assert np.array_equal(_rows(f3_add(_points(a), _points(b[0, 0])), p), (a + b[0, 0]) % 3)


@settings(max_examples=30, deadline=None)
@given(q=st.sampled_from((7, 13, 37)), data=st.data())
def test_byte_table_permutation_matches_position_rows(q, data):
    table = psl2_table(q)
    h = table[data.draw(st.integers(0, len(table) - 1))]
    rows = _random_rows(data, q, (2, 2))
    moved = permute_coords(_points(rows), permutation_tables(h_position_perm(h)))
    assert np.array_equal(_rows(moved, q), rows[..., list(_scalar_positions(h))])


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from(PRIMES), data=st.data())
def test_popcount_sp_mask_matches_scalar_membership(p, data):
    # type counts over the whole range, so both sides of the S(p) boundary
    # occur, arranged in any order with a nonzero last coordinate
    n1 = data.draw(st.integers(0, p + 1))
    n2 = data.draw(st.integers(0, p + 1 - n1).filter(lambda n2: (n1 + 2 * n2) % 3 == 0))
    coords = [1] * n1 + [2] * n2 + [0] * (p + 1 - n1 - n2)
    coords = [coords[j] for j in data.draw(st.permutations(range(p + 1)))]
    if n1 + n2 and coords[-1] == 0:
        j = next(j for j, v in enumerate(coords) if v)
        coords[j], coords[-1] = 0, coords[j]
    x = ApVector(p, coords)
    assert bool(sp_mask(_points(np.array(coords, dtype=np.uint8)), p)) == sp_membership(x)


# -- ApVector's planes against coordinate tuples ----------------------------

def _tuple_vector(data, p):
    """Random zero-sum coordinates: p free ones and minus their sum."""
    coords = data.draw(st.lists(st.integers(0, 2), min_size=p, max_size=p))
    return tuple(coords) + ((-sum(coords)) % 3,)


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from((7, 13, 37, 61)), data=st.data())
def test_vector_arithmetic_matches_coordinate_tuples(p, data):
    a, b = _tuple_vector(data, p), _tuple_vector(data, p)
    x, y = ApVector(p, a), ApVector(p, b)
    assert x.coords == a
    assert (x + y).coords == tuple((u + v) % 3 for u, v in zip(a, b))
    assert (-x).coords == tuple((-u) % 3 for u in a)
    assert (x - y).coords == tuple((u - v) % 3 for u, v in zip(a, b))
    assert x.type_count() == TypeCount(a.count(0), a.count(1), a.count(2))
    assert x.is_zero() == (not any(a))
    # [[a, b], [c, d]] with a != 0, times [[0, -1], [1, 0]] or not: any element
    a0, b0, c0 = (data.draw(st.integers(lo, p - 1)) for lo in (1, 0, 0))
    h = PSL2Element(a0, b0, c0, (1 + b0 * c0) * pow(a0, -1, p), p)
    if data.draw(st.booleans()):
        h = PSL2Element(0, -1, 1, 0, p) * h
    assert h_act(h, x).coords == tuple(a[s] for s in _scalar_positions(h))


@pytest.mark.parametrize("p", (43, 61))
def test_vector_points_past_the_int64_index(p):
    coords = a_shift_vector(p).coords
    planes = [sum(1 << i for i, v in enumerate(coords) if v == c) for c in (1, 2)]
    points = vector_points(a_shift_vector(p))
    assert points.dtype == np.uint64
    assert points.tolist() == planes
