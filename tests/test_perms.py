import gc
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest

from soficlab.perms import (
    ExactPerm,
    FlatDomain,
    ImplicitPerm,
    ProductPerm,
    d_hamming,
    hoeffding_radius,
    read_cover,
    read_perm,
    write_cover,
    write_perm,
)


def random_exact(rng, n):
    return ExactPerm(rng.permutation(n).astype(np.int64))


def test_validation_rejects_non_bijection():
    with pytest.raises(ValueError):
        ExactPerm([0, 0, 2])


def test_inverted_perm_is_freed_without_garbage_collection():
    perm = ExactPerm(np.arange(10)[::-1].copy())
    perm.inverse()
    ref = weakref.ref(perm)
    gc.disable()
    try:
        del perm
        assert ref() is None
    finally:
        gc.enable()


def test_inverse_and_compose():
    rng = np.random.default_rng(0)
    p = random_exact(rng, 500)
    q = random_exact(rng, 500)
    assert p.compose(p.inverse()).is_identity()
    pts = rng.integers(0, 500, size=64)
    assert np.array_equal(p.compose(q).apply(pts), p.apply(q.apply(pts)))


def test_distance_to_self_is_zero():
    rng = np.random.default_rng(1)
    p = random_exact(rng, 100)
    assert d_hamming(p, p).value == 0


def test_single_transposition_distance():
    n = 50
    images = np.arange(n)
    images[0], images[1] = 1, 0
    p = ExactPerm(images)
    d = d_hamming(p, FlatDomain(n).identity_perm())
    assert d.value == Fraction(2, n)


def test_size_mismatch_rejected():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        d_hamming(random_exact(rng, 10), random_exact(rng, 11))


def test_sampled_mode_requires_seed():
    rng = np.random.default_rng(3)
    p = random_exact(rng, 100)
    with pytest.raises(ValueError):
        d_hamming(p, p, mode="sampled", samples=10)


def test_sampled_within_hoeffding_radius():
    # the exact distance must land inside the reported radius in at least
    # 99 of 100 trials at 99% confidence; with this seed it does
    rng = np.random.default_rng(4)
    n = 100_000
    p = random_exact(rng, n)
    q = random_exact(rng, n)
    exact = float(d_hamming(p, q).value)
    hits = 0
    for trial in range(100):
        est = d_hamming(p, q, mode="sampled", samples=2000, seed=trial)
        if abs(est.value - exact) <= est.radius:
            hits += 1
    assert hits >= 99


def test_product_perm_exact_distance():
    rng = np.random.default_rng(5)
    a1, a2 = random_exact(rng, 40), random_exact(rng, 40)
    b1, b2 = random_exact(rng, 30), random_exact(rng, 30)
    prod1 = ProductPerm(a1, b1)
    prod2 = ProductPerm(a2, b2)
    d = d_hamming(prod1, prod2)
    # oracle: materialize the product domain
    flat1 = np.array([a1.images[i] * 30 + b1.images[j] for i in range(40) for j in range(30)])
    flat2 = np.array([a2.images[i] * 30 + b2.images[j] for i in range(40) for j in range(30)])
    expected = Fraction(int((flat1 != flat2).sum()), 1200)
    assert d.value == expected
    assert prod1.fixed_fraction() == a1.fixed_fraction() * b1.fixed_fraction()


def test_implicit_round_trip_and_materialization():
    n = 1000
    shift = ImplicitPerm(FlatDomain(n), lambda x: (x + 3) % n, lambda x: (x - 3) % n)
    rng = np.random.default_rng(6)
    assert shift.spot_check(rng)
    d = d_hamming(shift, FlatDomain(n).identity_perm())
    assert d.value == 1


def test_hoeffding_radius_value():
    # closed form: sqrt(ln(2/0.01) / (2 * 5000))
    assert abs(hoeffding_radius(5000, 0.99) - 0.02302) < 1e-4


def test_perm_file_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    p = random_exact(rng, 777)
    path = tmp_path / "x.sprm"
    write_perm(path, p, sidecar={"p": 7, "construction": "test", "seed": 1})
    q = read_perm(path)
    assert np.array_equal(p.images, q.images)
    assert (tmp_path / "x.sprm.json").exists()


def test_perm_file_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.sprm"
    path.write_bytes(b"NOPE" + b"\0" * 12)
    with pytest.raises(ValueError):
        read_perm(path)


def test_cover_file_round_trip(tmp_path):
    theta = np.repeat(np.arange(20), 5)
    path = tmp_path / "c.scvr"
    write_cover(path, theta, sidecar={"d": 5})
    assert np.array_equal(read_cover(path), theta)
