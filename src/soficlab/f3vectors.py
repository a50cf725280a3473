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

from .algebra import PSL2Element, is_prime

_POW3 = [3**i for i in range(64)]


def _check_p(p: int):
    if not is_prime(p) or p % 3 != 1:
        raise ValueError(f"p = {p} is not a prime congruent to 1 mod 3")


def multinomial(n: int, a: int, b: int, c: int) -> int:
    if a + b + c != n or min(a, b, c) < 0:
        return 0
    return comb(n, a) * comb(n - a, b)


def _in_sp(n0, n1, n2):
    """S(p) membership of type counts: ints or arrays of them."""
    return (n1 > n0 + 2) & (n1 > n2 + 2)


@dataclass(frozen=True)
class TypeCount:
    """Counts (n0, n1, n2) of the three residues in a vector."""

    n0: int
    n1: int
    n2: int


class ApVector:
    """A zero-sum vector in F_3^(p+1) as two bit-planes, the layout of the
    point arrays below: bit i of lo is set where coordinate i is 1, bit i
    of hi where it is 2.
    """

    __slots__ = ("p", "lo", "hi")

    def __init__(self, p: int, coords):
        coords = tuple(int(v) % 3 for v in coords)
        if len(coords) != p + 1:
            raise ValueError(f"expected {p + 1} coordinates, got {len(coords)}")
        if sum(coords) % 3 != 0:
            raise ValueError("coordinates do not sum to 0 mod 3")
        lo = sum(1 << i for i, v in enumerate(coords) if v == 1)
        hi = sum(1 << i for i, v in enumerate(coords) if v == 2)
        self._set(p, lo, hi)

    def _set(self, p, lo, hi):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @staticmethod
    def _planes(p: int, lo: int, hi: int) -> "ApVector":
        x = object.__new__(ApVector)
        x._set(p, lo, hi)
        return x

    def __setattr__(self, *_):
        raise AttributeError("ApVector is immutable")

    @property
    def coords(self):
        return tuple((self.lo >> i & 1) + 2 * (self.hi >> i & 1) for i in range(self.p + 1))

    @staticmethod
    def zero(p: int) -> "ApVector":
        return ApVector._planes(p, 0, 0)

    def is_zero(self) -> bool:
        return not (self.lo | self.hi)

    def __add__(self, other: "ApVector") -> "ApVector":
        """The six word operations of f3_add."""
        if self.p != other.p:
            raise ValueError("parameter mismatch")
        x1, x2, y1, y2 = self.lo, self.hi, other.lo, other.hi
        t = (x1 | y2) ^ (x2 | y1)
        return ApVector._planes(self.p, (x2 | y2) ^ t, (x1 | y1) ^ t)

    def __neg__(self) -> "ApVector":
        return ApVector._planes(self.p, self.hi, self.lo)

    def __sub__(self, other: "ApVector") -> "ApVector":
        return self + (-other)

    def __eq__(self, other):
        return (isinstance(other, ApVector) and self.p == other.p
                and self.lo == other.lo and self.hi == other.hi)

    def __hash__(self):
        return hash((self.p, self.lo, self.hi))

    def __repr__(self):
        return f"ApVector{self.coords}"

    def type_count(self) -> TypeCount:
        n1, n2 = self.lo.bit_count(), self.hi.bit_count()
        return TypeCount(self.p + 1 - n1 - n2, n1, n2)


def ap_unindex(i: int, p: int) -> ApVector:
    if not 0 <= i < 3**p:
        raise ValueError(f"index {i} out of range for p = {p}")
    lo = hi = 0
    for j in range(p):
        i, digit = divmod(i, 3)
        if digit == 1:
            lo |= 1 << j
        elif digit == 2:
            hi |= 1 << j
    # the last coordinate is minus the digit sum: 2 for residue 1, 1 for 2
    residue = (lo.bit_count() + 2 * hi.bit_count()) % 3
    return ApVector._planes(p, lo | (residue == 2) << p, hi | (residue == 1) << p)


# -- standard vectors ---------------------------------------------------

def v_vector(p: int) -> ApVector:
    """(1, -1, 0, ..., 0)."""
    return ApVector(p, (1, 2) + (0,) * (p - 1))


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

def h_position_perm(h: PSL2Element):
    """src[i] = position read from when h acts: (h.x)_i = x_(h^{-1}.i),
    by the Moebius map of h^{-1} = [[d, -b], [-c, a]] on each position."""
    a, b, c, d = h.entries()
    p = h.q
    src = []
    for x in range(p):
        den = (a - c * x) % p
        src.append(p if den == 0 else (d * x - b) * pow(den, -1, p) % p)
    src.append(p if c == 0 else d * pow(-c, -1, p) % p)
    return tuple(src)


def projective_action(entries, p: int, positions=None) -> tuple:
    """Positions and scales of h^(-1) on the points (x, 1), x < p, and
    (1, 0) (position p) of F_p^2, for entry arrays (a, b, c, d) of shape
    (n,), at the given positions (default: all p+1): h^(-1) v_x =
    scale[i, j] v_position[i, j] for x = positions[j], as two
    (n, len(positions)) int64 arrays."""
    a, b, c, d = (np.asarray(e, dtype=np.int64)[:, None] for e in entries)
    inv = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int64)
    x = np.asarray(range(p + 1) if positions is None else positions, dtype=np.int64)
    finite = x < p
    # h^(-1) = [[d, -b], [-c, a]] sends (x, 1) to (d x - b, a - c x) and
    # (1, 0) to (d, -c); a zero second coordinate lands on position p
    num = np.where(finite, d * x - b, d) % p
    den = np.where(finite, a - c * x, -c) % p
    return (np.where(den == 0, p, num * inv[den] % p),
            np.where(den == 0, num, den))


def _permute(src, x: ApVector) -> ApVector:
    """y_i = x_(src[i]), plane by plane."""
    lo = hi = 0
    for i, s in enumerate(src):
        lo |= (x.lo >> s & 1) << i
        hi |= (x.hi >> s & 1) << i
    return ApVector._planes(x.p, lo, hi)


def h_act(h: PSL2Element, x: ApVector) -> ApVector:
    return _permute(h_position_perm(h), x)


# -- exact counting ------------------------------------------------------

def sp_count_exact(p: int) -> int:
    """|S(p)| as an exact integer: sum of multinomials over admissible
    type-count triples of length p+1."""
    _check_p(p)
    return shift_overlap_counts(ApVector.zero(p))["s"]


def _group_triples(size: int):
    """Type-count triples of a group of coordinates, with their multinomials."""
    for u1 in range(size + 1):
        for u2 in range(size + 1 - u1):
            u = (size - u1 - u2, u1, u2)
            yield u, multinomial(size, *u)


def shift_overlap_counts(w: ApVector):
    """Joint counts of (x in S, x - w in S) over x in A(p), exactly, with p
    the level of w.

    Coordinates are grouped by the value of w there; within a group the
    shift subtracts a constant, so the type counts of x and of x - w are
    both functions of the per-group type counts of x.  The total work is
    polynomial in p (at most a product of per-group triple counts).

    Returns a dict with keys 'both', 'only_s', 'only_shift', 's'.
    """
    tc = w.type_count()
    # each partial state: (type counts of x, of x - w, number of such x),
    # grown by one group delta at a time; in that group value j of x is
    # value j - delta of x - w
    states = [((0, 0, 0), (0, 0, 0), 1)]
    for delta, size in enumerate((tc.n0, tc.n1, tc.n2)):
        if size == 0:
            continue  # an empty group would only copy every state
        states = [((nx[0] + u[0], nx[1] + u[1], nx[2] + u[2]),
                   (nm[0] + u[delta], nm[1] + u[(1 + delta) % 3], nm[2] + u[(2 + delta) % 3]),
                   wgt * weight)
                  for u, weight in _group_triples(size) for nx, nm, wgt in states]
    both = only_s = only_shift = s_total = 0
    for (nx, nm, wgt) in states:
        if (nx[1] + 2 * nx[2]) % 3 != 0:
            continue
        in_s = _in_sp(*nx)
        in_shift = _in_sp(*nm)
        if in_s:
            s_total += wgt
        if in_s and in_shift:
            both += wgt
        elif in_s:
            only_s += wgt
        elif in_shift:
            only_shift += wgt
    return {"both": both, "only_s": only_s, "only_shift": only_shift, "s": s_total}


def sp_shift_diff_exact(w: ApVector) -> int:
    """Exact |S(p) symdiff (w + S(p))|, with p the level of w."""
    counts = shift_overlap_counts(w)
    return counts["only_s"] + counts["only_shift"]


def disjointness_check_ap_shift(p: int) -> bool:
    """True iff (a(p) + S(p)) and S(p) are disjoint, exactly."""
    counts = shift_overlap_counts(a_shift_vector(p))
    return counts["both"] == 0


# -- invariant closure ---------------------------------------------------

def _standard_h_generators(p: int):
    return [PSL2Element(1, 1, 0, 1, p), PSL2Element(0, -1, 1, 0, p)]


def invariant_closure_dim(x: ApVector) -> int:
    """Dimension over F_3 of the smallest subgroup of A(p) containing x
    that is stable under the coordinate action of PSL2(F_p).

    Alternates orbit expansion (apply generator actions to the current
    basis) with linear-span closure until nothing new appears.
    """
    if x.is_zero():
        return 0
    srcs = [h_position_perm(g) for g in _standard_h_generators(x.p)]
    # pivot -> vector that is 1 at its pivot, its first nonzero coordinate;
    # reduced in insertion order, each vector is 0 at all earlier pivots
    basis = {}

    def insert(v):
        for pivot, b in basis.items():
            if v.lo >> pivot & 1:
                v = v - b
            elif v.hi >> pivot & 1:
                v = v + b
        if v.is_zero():
            return False
        nonzero = v.lo | v.hi
        pivot = (nonzero & -nonzero).bit_length() - 1
        basis[pivot] = v if v.lo >> pivot & 1 else -v
        return True

    insert(x)
    changed = True
    while changed:
        changed = False
        for b in list(basis.values()):
            for src in srcs:
                if insert(_permute(src, b)):
                    changed = True
    return len(basis)


# -- vectorized helpers ---------------------------------------------------
#
# Point arrays hold each vector as two bit-planes in the last axis of a
# (..., 2) uint64 array (the bit-slicing of Boothby and Bradshaw): bit i of
# plane 0 is set where coordinate i is 1, bit i of plane 1 where it is 2.
# The p+1 <= 64 coordinates fit one word per plane, and an ApVector holds
# the same two planes as Python ints.  Fresh arrays are laid out
# plane-major, so each plane is contiguous; every helper works on any
# leading shape and broadcasts like numpy.

# Row b: the 8 bits of the byte b, least significant first.
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                           bitorder="little")
# Column k < 3^8: the two planes of the 8 base-3 digits of k, one byte each.
# (Bit packing keeps the import's temporaries and its RSS small.)
_CHUNK = 8
_CHUNK_DIGITS = np.indices((3,) * _CHUNK, dtype=np.uint8).reshape(_CHUNK, -1)[::-1].T
_CHUNK_PLANES = np.stack([np.packbits(_CHUNK_DIGITS == c, axis=1, bitorder="little")[:, 0]
                          for c in (1, 2)])


@lru_cache(maxsize=None)
def _last_coordinate(p: int) -> np.ndarray:
    """(2, 256) uint64: the plane bits of the last coordinate of A(p), which
    is minus the digit sum s = n1 + 2 n2 of the others (s < 256): bit p of
    plane 0 when s = 2 mod 3, of plane 1 when s = 1 mod 3."""
    residue = np.arange(256) % 3
    return np.stack([np.where(residue == r, 1 << p, 0) for r in (2, 1)]).astype(np.uint64)


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

    The index is split into 8-digit base-3 chunks; chunk j's planes are
    read from a table one byte each and written to byte j of the planes'
    words, and the last coordinate is set so that the digit sum n1 + 2 n2
    vanishes mod 3.
    """
    rem = np.asarray(idx, dtype=np.int64)
    plane_bytes = np.zeros((2,) + rem.shape + (8,), dtype=np.uint8)
    for j in range(-(-p // _CHUNK)):
        quot = rem // 3**_CHUNK
        chunk = rem - quot * 3**_CHUNK
        rem = quot
        for c in (0, 1):
            plane_bytes[c, ..., j] = _CHUNK_PLANES[c][chunk]
    lo, hi = planes = plane_bytes.view(np.uint64)[..., 0]
    digit_sum = np.bitwise_count(lo) + 2 * np.bitwise_count(hi)
    last_lo, last_hi = _last_coordinate(p)
    lo |= last_lo[digit_sum]
    hi |= last_hi[digit_sum]
    return np.moveaxis(planes, 0, -1)


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
    return np.array([x.lo, x.hi], dtype=np.uint64)


def act_rows(entries: np.ndarray, w: ApVector) -> np.ndarray:
    """(rows, 2) points h.w for every column h of a (4, rows) entry array.

    (h.w)_(h.i) = w_i, so only the support of w moves: bit i of w's planes
    goes to bit h.i.  projective_action maps positions by the inverse of
    the matrix it is given, so it is given h^(-1) = (d, -b, -c, a)."""
    a, b, c, d = entries
    nonzero = w.lo | w.hi
    support = [i for i in range(w.p + 1) if nonzero >> i & 1]
    moved = projective_action((d, -b, -c, a), w.p, support)[0].astype(np.uint64)
    out = np.zeros((2, entries.shape[1]), dtype=np.uint64)
    for col, i in enumerate(support):
        out[0 if w.lo >> i & 1 else 1] |= np.uint64(1) << moved[:, col]
    return np.moveaxis(out, 0, -1)


def sp_mask(points: np.ndarray, p: int) -> np.ndarray:
    """Boolean S(p) membership of each vector of a point array, from the
    popcounts n1 and n2 of the planes and n0 = p+1 - n1 - n2."""
    n1 = np.bitwise_count(points[..., 0])
    n2 = np.bitwise_count(points[..., 1])
    return _in_sp((p + 1) - n1 - n2, n1, n2)
