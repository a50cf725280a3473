"""Zero-sum vectors over F_3 indexed by the projective line.

The abelian group here is A(p) = {x in F_3^(p+1) : sum x_i = 0}, carrying
the coordinate-permutation action of PSL2(F_p) through a fixed bijection
between positions and P^1(F_p): position j is the residue j for j < p and
position p is the point at infinity.

S(p) is the subset of vectors whose count of 1-entries exceeds both other
counts by more than 2.  It is invariant under every coordinate permutation,
which makes exact counting of S(p) and of its shifts a matter of summing
multinomials over type-count triples; those sums are polynomial in p, so
they stay exact far beyond the range where 3^p is enumerable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .algebra import PSL2Element, PSL2Table, is_prime, moebius_act, projective_line

_POW3 = [3**i for i in range(64)]


def _check_p(p: int):
    if not is_prime(p) or p % 3 != 1:
        raise ValueError(f"p = {p} is not a prime congruent to 1 mod 3")


def multinomial(n: int, a: int, b: int, c: int) -> int:
    if a + b + c != n or min(a, b, c) < 0:
        return 0
    return comb(n, a) * comb(n - a, b)


@dataclass(frozen=True)
class TypeCount:
    """Counts (n0, n1, n2) of the three residues in a vector."""

    n0: int
    n1: int
    n2: int

    @property
    def length(self):
        return self.n0 + self.n1 + self.n2

    def in_sp(self) -> bool:
        return self.n1 > self.n0 + 2 and self.n1 > self.n2 + 2

    @staticmethod
    def of(coords) -> "TypeCount":
        n0 = n1 = n2 = 0
        for v in coords:
            if v == 0:
                n0 += 1
            elif v == 1:
                n1 += 1
            else:
                n2 += 1
        return TypeCount(n0, n1, n2)


class ApVector:
    """A zero-sum vector in F_3^(p+1), packed 2 bits per coordinate.

    The first p coordinates are free and determine the index in [0, 3^p);
    the last coordinate is redundant but stored, so validation is a cheap
    sum instead of a recomputation.
    """

    __slots__ = ("p", "bits")

    def __init__(self, p: int, coords):
        coords = tuple(int(v) % 3 for v in coords)
        if len(coords) != p + 1:
            raise ValueError(f"expected {p + 1} coordinates, got {len(coords)}")
        if sum(coords) % 3 != 0:
            raise ValueError("coordinates do not sum to 0 mod 3")
        bits = 0
        for i, v in enumerate(coords):
            bits |= v << (2 * i)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, *_):
        raise AttributeError("ApVector is immutable")

    @property
    def coords(self):
        return tuple((self.bits >> (2 * i)) & 3 for i in range(self.p + 1))

    @staticmethod
    def zero(p: int) -> "ApVector":
        return ApVector(p, (0,) * (p + 1))

    def is_zero(self) -> bool:
        return self.bits == 0

    def __add__(self, other: "ApVector") -> "ApVector":
        if self.p != other.p:
            raise ValueError("parameter mismatch")
        a, b = self.coords, other.coords
        return ApVector(self.p, tuple((x + y) % 3 for x, y in zip(a, b)))

    def __neg__(self) -> "ApVector":
        return ApVector(self.p, tuple((-v) % 3 for v in self.coords))

    def __sub__(self, other: "ApVector") -> "ApVector":
        return self + (-other)

    def __eq__(self, other):
        return (
            isinstance(other, ApVector) and self.p == other.p and self.bits == other.bits
        )

    def __hash__(self):
        return hash((self.p, self.bits))

    def __repr__(self):
        return f"ApVector{self.coords}"

    def type_count(self) -> TypeCount:
        return TypeCount.of(self.coords)

    def support(self):
        return tuple(i for i, v in enumerate(self.coords) if v != 0)


def ap_index(x: ApVector) -> int:
    """Index of x in [0, 3^p): base-3 value of the first p coordinates."""
    c = x.coords
    return sum(c[i] * _POW3[i] for i in range(x.p))


def ap_unindex(i: int, p: int) -> ApVector:
    if not 0 <= i < 3**p:
        raise ValueError(f"index {i} out of range for p = {p}")
    coords = []
    for _ in range(p):
        coords.append(i % 3)
        i //= 3
    coords.append((-sum(coords)) % 3)
    return ApVector(p, coords)


# -- standard vectors ---------------------------------------------------

def v_vector(p: int) -> ApVector:
    """(1, -1, 0, ..., 0)."""
    return ApVector(p, (1, 2) + (0,) * (p - 1))


def v1_vector(p: int) -> ApVector:
    """Default aperiodic seed (1, -1, 0, ..., 0); overridable upstream."""
    return v_vector(p)


def v2_vector(p: int) -> ApVector:
    """Default second seed (1, 1, 1, 0, ..., 0, -1, -1, -1)."""
    if p + 1 < 6:
        raise ValueError("p too small for the default second seed")
    return ApVector(p, (1, 1, 1) + (0,) * (p - 5) + (2, 2, 2))


def a_shift_vector(p: int) -> ApVector:
    """(0, 0, 1, ..., 1); zero-sum exactly when p = 1 mod 3."""
    _check_p(p)
    return ApVector(p, (0, 0) + (1,) * (p - 1))


# -- coordinate action of PSL2(F_p) -------------------------------------

def position_of_point(pt, p: int) -> int:
    """Position of a projective point under the fixed bijection."""
    if pt.is_infinity():
        return p
    return pt.value


def h_position_perm(h: PSL2Element):
    """src[i] = position read from when h acts: (h.x)_i = x_(h^{-1}.i)."""
    p = h.q
    hinv = h.inverse()
    line = projective_line(p)
    return tuple(position_of_point(moebius_act(hinv, line[i]), p) for i in range(p + 1))


def projective_action(entries, p: int) -> tuple:
    """Positions and scales of h^(-1) on the points (x, 1), x < p, and
    (1, 0) (position p) of F_p^2, for entry arrays (a, b, c, d) of shape
    (n,): h^(-1) v_x = scale[i, x] v_position[i, x], as two (n, p+1) int64
    arrays."""
    a, b, c, d = (np.asarray(e, dtype=np.int64)[:, None] for e in entries)
    inv = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int64)
    x = np.arange(p + 1, dtype=np.int64)
    finite = x < p
    # h^(-1) = [[d, -b], [-c, a]] sends (x, 1) to (d x - b, a - c x) and
    # (1, 0) to (d, -c); a zero second coordinate lands on position p
    num = np.where(finite, d * x - b, d) % p
    den = np.where(finite, a - c * x, -c) % p
    return (np.where(den == 0, p, num * inv[den] % p),
            np.where(den == 0, num, den))


def position_table(table: PSL2Table) -> np.ndarray:
    """(|H|, p+1) uint8 array whose row i is h_position_perm(table[i]),
    from one Moebius map of every inverse over every position."""
    return projective_action(table.entries, table.q)[0].astype(np.uint8)


def h_act(h: PSL2Element, x: ApVector) -> ApVector:
    src = h_position_perm(h)
    c = x.coords
    return ApVector(x.p, tuple(c[s] for s in src))


def sp_membership(x: ApVector) -> bool:
    """True iff the 1-count beats both other counts by more than 2."""
    return x.type_count().in_sp()


# -- exact counting ------------------------------------------------------

def sp_count_exact(p: int) -> int:
    """|S(p)| as an exact integer: sum of multinomials over admissible
    type-count triples of length p+1."""
    _check_p(p)
    n = p + 1
    total = 0
    for n1 in range(n + 1):
        for n2 in range(n + 1 - n1):
            n0 = n - n1 - n2
            if (n1 + 2 * n2) % 3 != 0:
                continue
            if n1 > n0 + 2 and n1 > n2 + 2:
                total += multinomial(n, n0, n1, n2)
    return total


def _group_triples(size: int):
    for u1 in range(size + 1):
        for u2 in range(size + 1 - u1):
            yield (size - u1 - u2, u1, u2)


def shift_overlap_counts(p: int, w: ApVector):
    """Joint counts of (x in S, x - w in S) over x in A(p), exactly.

    Coordinates are grouped by the value of w there; within a group the
    shift subtracts a constant, so the type counts of x and of x - w are
    both functions of the per-group type counts of x.  The total work is
    polynomial in p (at most a product of per-group triple counts).

    Returns a dict with keys 'both', 'only_s', 'only_shift', 's'.
    """
    if w.p != p:
        raise ValueError("parameter mismatch")
    sizes = [0, 0, 0]
    for v in w.coords:
        sizes[v] += 1
    groups = [(sizes[delta], delta) for delta in (0, 1, 2) if sizes[delta] > 0]

    # accumulate over per-group type-count triples
    both = only_s = only_shift = s_total = 0
    # each partial state: (count_x = (n0,n1,n2), count_shift = (m0,m1,m2), weight)
    states = [((0, 0, 0), (0, 0, 0), 1)]
    for size, delta in groups:
        new_states = []
        for u in _group_triples(size):
            weight = multinomial(size, *u)
            # value j of x contributes to value (j - delta) of x - w
            shifted = [0, 0, 0]
            for j in range(3):
                shifted[(j - delta) % 3] = u[j]
            for (nx, nm, wgt) in states:
                new_states.append(
                    (
                        (nx[0] + u[0], nx[1] + u[1], nx[2] + u[2]),
                        (nm[0] + shifted[0], nm[1] + shifted[1], nm[2] + shifted[2]),
                        wgt * weight,
                    )
                )
        states = new_states
    for (nx, nm, wgt) in states:
        if (nx[1] + 2 * nx[2]) % 3 != 0:
            continue
        in_s = nx[1] > nx[0] + 2 and nx[1] > nx[2] + 2
        in_shift = nm[1] > nm[0] + 2 and nm[1] > nm[2] + 2
        if in_s:
            s_total += wgt
        if in_s and in_shift:
            both += wgt
        elif in_s:
            only_s += wgt
        elif in_shift:
            only_shift += wgt
    return {"both": both, "only_s": only_s, "only_shift": only_shift, "s": s_total}


def sp_shift_diff_exact(p: int, w: ApVector) -> int:
    """Exact |S(p) symdiff (w + S(p))| for a shift w of small support."""
    if len(w.support()) > 4:
        raise ValueError(
            "shift support exceeds 4 coordinates; use sampling or "
            "shift_overlap_counts directly"
        )
    counts = shift_overlap_counts(p, w)
    return counts["only_s"] + counts["only_shift"]


def disjointness_check_ap_shift(p: int) -> bool:
    """True iff (a(p) + S(p)) and S(p) are disjoint, exactly."""
    counts = shift_overlap_counts(p, a_shift_vector(p))
    return counts["both"] == 0


# -- invariant closure ---------------------------------------------------

def _standard_h_generators(p: int):
    return [PSL2Element(1, 1, 0, 1, p), PSL2Element(0, -1, 1, 0, p)]


def _reduce_against(basis, vec):
    """Reduce vec (list mod 3) against an echelon basis [(pivot, vector)]."""
    v = list(vec)
    for pivot, b in basis:
        if v[pivot] != 0:
            coef = v[pivot] * pow(b[pivot], -1, 3) % 3
            v = [(x - coef * y) % 3 for x, y in zip(v, b)]
    return v


def invariant_closure_dim(x: ApVector, generators=None) -> int:
    """Dimension over F_3 of the smallest subgroup of A(p) containing x
    that is stable under the coordinate action of PSL2(F_p).

    Alternates orbit expansion (apply generator actions to the current
    basis) with linear-span closure until nothing new appears.
    """
    p = x.p
    if x.is_zero():
        return 0
    gens = generators if generators is not None else _standard_h_generators(p)
    perms = [h_position_perm(g) for g in gens]
    basis = []  # list of (pivot, vector) in echelon form

    def insert(vec):
        v = _reduce_against(basis, vec)
        for i, val in enumerate(v):
            if val != 0:
                basis.append((i, v))
                return True
        return False

    insert(list(x.coords))
    changed = True
    while changed:
        changed = False
        for _, b in list(basis):
            for src in perms:
                if insert([b[s] for s in src]):
                    changed = True
    return len(basis)


# -- vectorized helpers ---------------------------------------------------
#
# Point arrays hold each vector as two bit-planes in the last axis of a
# (..., 2) uint64 array (the bit-slicing of Boothby and Bradshaw): bit i of
# plane 0 is set where coordinate i is 1, bit i of plane 1 where it is 2.
# The p+1 <= 40 coordinates fit one word per plane.  Fresh arrays are laid
# out plane-major, so each plane is contiguous; every helper works on any
# leading shape and broadcasts like numpy.

# Row b: the 8 bits of the byte b, least significant first.
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                           bitorder="little")
# Column k < 3^8: the two planes of the 8 base-3 digits of k, one byte each.
# (Bit packing keeps the import's temporaries and its RSS small.)
_CHUNK = 8
_CHUNK_DIGITS = np.indices((3,) * _CHUNK, dtype=np.uint8).reshape(_CHUNK, -1)[::-1].T
_CHUNK_PLANES = np.stack([np.packbits(_CHUNK_DIGITS == c, axis=1, bitorder="little")[:, 0]
                          for c in (1, 2)]).astype(np.uint64)


def empty_points(shape) -> np.ndarray:
    """An uninitialised (*shape, 2) point array with contiguous planes."""
    return np.moveaxis(np.empty((2,) + tuple(shape), dtype=np.uint64), 0, -1)


def _stack(planes) -> np.ndarray:
    """The point array of two equal-shape planes, with contiguous planes."""
    return np.moveaxis(np.stack(planes), 0, -1)


def _lookup_bytes(tables, plane):
    """Sum over the bytes k of each word of tables[k][byte k]."""
    words = plane.view(np.int64)
    out = tables[0][words & 255]
    for k in range(1, len(tables)):
        out += tables[k][(words >> 8 * k) & 255]
    return out


def decode_indices(idx: np.ndarray, p: int) -> np.ndarray:
    """Points (..., 2) of an array of A(p) indices.

    The index is split into 8-digit base-3 chunks, each chunk's planes are
    read from a table one byte each, and the last coordinate is set so that
    the digit sum n1 + 2 n2 vanishes mod 3.
    """
    rem = np.asarray(idx, dtype=np.int64)
    lo, hi = np.zeros((2,) + rem.shape, dtype=np.uint64)
    for j in range(-(-p // _CHUNK)):
        rem, chunk = np.divmod(rem, 3**_CHUNK)
        lo |= _CHUNK_PLANES[0][chunk] << (_CHUNK * j)
        hi |= _CHUNK_PLANES[1][chunk] << (_CHUNK * j)
    residue = (np.bitwise_count(lo) + 2 * np.bitwise_count(hi)) % 3
    # the last coordinate is minus the residue: 2 for residue 1, 1 for 2
    lo |= np.array([0, 0, 1 << p], dtype=np.uint64)[residue]
    hi |= np.array([0, 1 << p, 0], dtype=np.uint64)[residue]
    return _stack((lo, hi))


def coords_matrix(p: int) -> np.ndarray:
    """(3^p, 2) point array of all A(p) vectors in index order."""
    n = 3**p
    if n > 5_000_000:
        raise ValueError(f"3^{p} is too large to materialize")
    return decode_indices(np.arange(n, dtype=np.int64), p)


@lru_cache(maxsize=None)
def _index_tables(p: int) -> np.ndarray:
    """(2, bytes, 256) int64: the index weight c * 3^i of each set bit i < p
    of plane c, summed over each byte value."""
    n_bytes = -(-p // 8)
    weight = np.array([_POW3[i] if i < p else 0 for i in range(8 * n_bytes)],
                      dtype=np.int64).reshape(n_bytes, 8)
    return np.stack([c * (weight @ _BYTE_BITS.T) for c in (1, 2)])


def encode_coords(points: np.ndarray, p: int) -> np.ndarray:
    """Indices of the A(p) vectors of a point array: L(lo) + 2 L(hi) with
    L(x) = sum over bits i < p of bit_i 3^i, read one byte at a time."""
    tables = _index_tables(p)
    out = _lookup_bytes(tables[0], points[..., 0])
    out += _lookup_bytes(tables[1], points[..., 1])
    return out


def permutation_tables(src) -> np.ndarray:
    """(bytes, 256) uint64 tables of the coordinate permutation
    y_i = x_(src[i]): entry [k, b] holds the bits that the set bits of byte
    k of a plane move to.  Input bits move to distinct output bits, so the
    sum over the bytes is the permuted plane."""
    src = np.asarray(src, dtype=np.int64)
    n_bytes = -(-len(src) // 8)
    moved = np.zeros(8 * n_bytes, dtype=np.int64)
    moved[src] = 1 << np.arange(len(src), dtype=np.int64)
    return (moved.reshape(n_bytes, 8) @ _BYTE_BITS.T).astype(np.uint64)


def permute_coords(points: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """The coordinate permutation of permutation_tables on a point array."""
    return _stack([_lookup_bytes(tables, points[..., c]) for c in (0, 1)])


def f3_add(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coordinatewise sum mod 3 of two point arrays, in six word operations
    (Kawahara, Aoki and Takagi, 2008): with planes (x1, x2) and (y1, y2),
    t = (x1 | y2) ^ (x2 | y1), r1 = (x2 | y2) ^ t and r2 = (x1 | y1) ^ t.
    Bits past the last coordinate stay clear."""
    x1, x2, y1, y2 = x[..., 0], x[..., 1], y[..., 0], y[..., 1]
    t = x1 | y2
    t ^= x2 | y1
    out = empty_points(t.shape)
    for r, a, b in ((out[..., 0], x2, y2), (out[..., 1], x1, y1)):
        np.bitwise_or(a, b, out=r)
        r ^= t
    return out


def take_points(points: np.ndarray, idx) -> np.ndarray:
    """points[idx] for an index into the leading axes, gathered plane by
    plane (a gather of whole (n, 2) rows is several times slower)."""
    return _stack([points[..., c][idx] for c in (0, 1)])


def put_points(points: np.ndarray, idx, values: np.ndarray):
    """points[idx] = values, scattered plane by plane."""
    for c in (0, 1):
        points[..., c][idx] = values[..., c]


def vectors_equal(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise equality of the vectors of two point arrays."""
    return (x[..., 0] == y[..., 0]) & (x[..., 1] == y[..., 1])


def vector_points(x: ApVector) -> np.ndarray:
    """The (2,) planes of one vector."""
    return decode_indices([ap_index(x)], x.p)[0]


def act_rows(positions: np.ndarray, x: ApVector) -> np.ndarray:
    """(rows, 2) points h.x for every row src_h of a position table: bit i
    of each plane is bit src_h[i] of x's."""
    bits = (vector_points(x)[:, None, None] >> positions) & np.uint64(1)
    weights = np.uint64(1) << np.arange(positions.shape[-1], dtype=np.uint64)
    return np.moveaxis(bits @ weights, 0, -1)


def sp_mask(points: np.ndarray, p: int) -> np.ndarray:
    """Boolean S(p) membership of each vector of a point array, from the
    popcounts n1 and n2 of the planes and n0 = p+1 - n1 - n2."""
    n1 = np.bitwise_count(points[..., 0])
    n2 = np.bitwise_count(points[..., 1])
    n0 = (p + 1) - n1 - n2
    return (n1 > n0 + 2) & (n1 > n2 + 2)


def shifted_index_map(points: np.ndarray, w: ApVector) -> np.ndarray:
    """Index map a -> index(a + w) over all vectors of a point array."""
    return encode_coords(f3_add(points, vector_points(w)), w.p)
