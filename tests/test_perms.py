import gc
import hashlib
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from soficlab.perms import (
    DRAW_BLOCK,
    SAMPLE_BLOCK,
    ExactPerm,
    FlatDomain,
    ImplicitPerm,
    d_hamming,
    hoeffding_radius,
    read_perm,
    write_perm,
)
from soficlab.report import sha256_file

from conftest import (
    DRAW_COUNTS,
    array_commutator_count,
    commutator_defects,
    refuse_materialize,
    sample_points,
)


def random_exact(rng, n):
    return ExactPerm(rng.permutation(n).astype(np.int64))


def test_validation_rejects_non_bijection():
    with pytest.raises(ValueError):
        ExactPerm([0, 0, 2])


def _bincount_bijection(images) -> bool:
    """The old validation as an oracle: every point hit exactly once."""
    if len(images) and images.min() < 0:
        return False
    return bool(np.all(np.bincount(images, minlength=len(images)) == 1))


_image_arrays = st.integers(0, 40).flatmap(lambda n: st.one_of(
    st.permutations(range(n)),
    # a permutation with one entry overwritten: a duplicate, a negative or
    # a value past the end
    st.permutations(range(n)).flatmap(lambda perm: st.tuples(
        st.just(perm), st.integers(0, max(n - 1, 0)), st.integers(-3, n + 3)))
    .map(lambda t: [t[2] if i == t[1] else x for i, x in enumerate(t[0])]),
    st.lists(st.integers(-3, n + 3), min_size=n, max_size=n),
))


@settings(max_examples=300, deadline=None)
@given(images=_image_arrays)
@example(images=[])
@example(images=[0, 0, 2])
@example(images=[1, 2, -1])
@example(images=[1, 2, 3])
def test_validation_refuses_exactly_the_non_bijections(images):
    images = np.array(images, dtype=np.int64)
    if _bincount_bijection(images):
        assert ExactPerm(images).size == len(images)
    else:
        with pytest.raises(ValueError):
            ExactPerm(images)


def test_validation_refuses_a_grid_of_images():
    with pytest.raises(ValueError):
        ExactPerm([[0, 1], [1, 0]])


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


def test_product_is_composition_through_compose(monkeypatch):
    rng = np.random.default_rng(1)
    p, q = random_exact(rng, 50), random_exact(rng, 50)
    shift = ImplicitPerm(FlatDomain(50), lambda x: (x + 3) % 50, lambda x: (x - 3) % 50)
    pts = rng.integers(0, 50, size=64)
    for x, y in ((p, q), (shift, p), (shift, shift)):
        assert np.array_equal((x * y).apply(pts), x.apply(y.apply(pts)))
    # * reaches ExactPerm.compose through the class attribute, so a wrapper
    # installed there sees every product
    calls = []
    compose = ExactPerm.compose
    monkeypatch.setattr(ExactPerm, "compose",
                        lambda self, other: calls.append(1) or compose(self, other))
    assert p * q == compose(p, q)
    assert len(calls) == 1


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


def test_implicit_round_trip_and_materialization():
    n = 1000
    shift = ImplicitPerm(FlatDomain(n), lambda x: (x + 3) % n, lambda x: (x - 3) % n)
    pts = sample_points(FlatDomain(n), np.random.default_rng(6), 64)
    assert np.array_equal(shift.apply_inverse(shift.apply(pts)), pts)
    d = d_hamming(shift, FlatDomain(n).identity_perm())
    assert d.value == 1


@pytest.mark.parametrize("size", [2187, 367_416, 3**13, 25_308, 3**37])
@pytest.mark.parametrize("n", DRAW_COUNTS)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_flat_sample_blocks_draw_the_one_shot_points(size, n, seed):
    # one draw per block, concatenating to one draw of n: the bounds take
    # numpy's 32-bit and 64-bit bounded paths
    domain = FlatDomain(size)
    assert max(map(len, domain.sample_blocks(np.random.default_rng(seed), n))) <= DRAW_BLOCK
    expected = np.random.default_rng(seed).integers(0, size, size=n, dtype=np.int64)
    assert np.array_equal(sample_points(domain, np.random.default_rng(seed), n), expected)


@pytest.mark.parametrize("samples", [-3, 0, 2.5, True, None, "10"])
def test_sampled_distance_refuses_a_bad_sample_count_before_drawing(monkeypatch, samples):
    def refuse(*args, **kwargs):
        raise AssertionError("points were drawn")

    perm = ExactPerm([1, 0, 2])
    assert d_hamming(perm, perm, mode="sampled", samples=np.int64(5), seed=1).value == 0
    monkeypatch.setattr(FlatDomain, "sample_blocks", refuse)
    with pytest.raises(ValueError, match="positive int sample count"):
        d_hamming(perm, perm, mode="sampled", samples=samples, seed=1)


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


def test_perm_file_of_strided_images_matches_contiguous(tmp_path):
    rng = np.random.default_rng(8)
    images = rng.permutation(300).astype(np.int64)
    spaced = np.zeros(600, dtype=np.int64)
    spaced[::2] = images
    strided = ExactPerm(spaced[::2])
    assert not strided.images.flags.c_contiguous
    write_perm(tmp_path / "a.sprm", ExactPerm(images))
    write_perm(tmp_path / "b.sprm", strided)
    assert (tmp_path / "a.sprm").read_bytes() == (tmp_path / "b.sprm").read_bytes()
    assert np.array_equal(read_perm(tmp_path / "b.sprm").images, images)


@pytest.mark.parametrize("size", [0, 1, (1 << 20) - 1, 1 << 20, (1 << 20) + 1, 3 << 20])
def test_sha256_file_matches_whole_file_digest(tmp_path, size):
    data = np.random.default_rng(size).integers(0, 256, size=size, dtype=np.uint8).tobytes()
    path = tmp_path / "blob"
    path.write_bytes(data)
    assert sha256_file(path) == hashlib.sha256(data).hexdigest()


def test_perm_file_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.sprm"
    path.write_bytes(b"NOPE" + b"\0" * 12)
    with pytest.raises(ValueError):
        read_perm(path)


# -- commutator defects on the support of t ----------------------------------

_two_perms = st.integers(1, 200).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n))))


@settings(max_examples=200, deadline=None)
@given(perms=_two_perms)
@example(perms=([0, 1, 2, 3, 4], [3, 0, 4, 1, 2]))   # t = identity
@example(perms=([3, 0, 4, 1, 2], [0, 1, 2, 3, 4]))   # r = identity
@example(perms=([1, 2, 3, 4, 0], [0, 2, 1, 4, 3]))   # t moves every point
@example(perms=([1, 0, 3, 2], [1, 0, 3, 2]))         # r = t
def test_support_commutator_defect_matches_dense(perms):
    t, r = (ExactPerm(np.array(x, dtype=np.int64)) for x in perms)
    assert commutator_defects(t)(r.apply) == d_hamming(t * r, r * t).value


@settings(max_examples=200, deadline=None)
@given(perms=_two_perms)
def test_exact_distance_matches_image_arrays(perms):
    # exact and implicit operands count alike, against the image arrays
    a, b = (ExactPerm(np.array(x, dtype=np.int64)) for x in perms)
    a_map, b_map = (ImplicitPerm(a.domain, x.apply, x.apply_inverse) for x in (a, b))
    n = a.size
    assert d_hamming(a, b).value == Fraction(int(np.count_nonzero(a.images != b.images)), n)
    assert d_hamming(a_map, b).value == d_hamming(a, b).value
    commutator = Fraction(array_commutator_count(a, b), n)
    assert d_hamming(a * b, b * a).value == commutator
    assert d_hamming(a_map * b_map, b_map * a_map).value == commutator


def test_exact_distance_counts_across_blocks(monkeypatch):
    # the domain's blocks are SAMPLE_BLOCK slices: implicit maps are run on
    # one block at a time and nothing is enumerated
    refuse_materialize(monkeypatch)
    rng = np.random.default_rng(3)
    n = 2 * SAMPLE_BLOCK + 5
    a, b = random_exact(rng, n), random_exact(rng, n)
    swap = ExactPerm(np.arange(n)[::-1].copy())
    shift = ExactPerm((np.arange(n) + 3) % n)
    batches = []

    def implicit(x):
        def forward(pts):
            batches.append(len(pts))
            return x.apply(pts)
        return ImplicitPerm(FlatDomain(n), forward, x.apply_inverse)

    for x, y in ((a, b), (a, a), (a, a.inverse()), (swap, b), (shift, b), (shift, swap)):
        count = Fraction(array_commutator_count(x, y), n)
        assert d_hamming(x * y, y * x).value == count
        x_map, y_map = implicit(x), implicit(y)
        assert d_hamming(x_map * y_map, y_map * x_map).value == count
        assert d_hamming(x_map, y).value == Fraction(
            int(np.count_nonzero(x.images != y.images)), n)
    # each pair runs four maps over the domain for its commutator and one
    # for its distance
    assert max(batches) == SAMPLE_BLOCK and sum(batches) == 6 * 5 * n
    with pytest.raises(ValueError, match="domain mismatch"):
        d_hamming(a, random_exact(rng, 7))


# -- binary files as properties ----------------------------------------------

_files = settings(max_examples=60, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])


@_files
@given(images=st.integers(1, 200).flatmap(lambda n: st.permutations(range(n))))
def test_perm_file_round_trip_property(tmp_path, images):
    path = tmp_path / "x.sprm"
    write_perm(path, ExactPerm(images))
    assert read_perm(path).images.tolist() == list(images)


FILE_KINDS = {
    "permutation": (".sprm", lambda path: write_perm(path, ExactPerm([1, 0, 2, 4, 3])),
                    read_perm),
}


@pytest.mark.parametrize("kind", sorted(FILE_KINDS))
def test_binary_reader_refuses_malformed_files(tmp_path, kind):
    suffix, write, read = FILE_KINDS[kind]
    path = tmp_path / f"x{suffix}"
    write(path)
    data = path.read_bytes()
    read(path)
    # shorter than the header
    path.write_bytes(data[:5])
    with pytest.raises(ValueError, match=kind):
        read(path)
    # trailing bytes after the entries
    path.write_bytes(data + b"\0" * 8)
    with pytest.raises(ValueError, match=kind):
        read(path)
