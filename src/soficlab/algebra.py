"""Exact arithmetic in PSL2(F_q) and its action on the projective line.

Elements are stored as canonical representatives of {M, -M}: of the two
matrices in a class, the stored one has its first nonzero entry (scanning
a, b, c, d) in {1, ..., (q-1)/2}.  Canonical entries make equality and
hashing trivial, and the lexicographic order of canonical 4-tuples gives a
stable enumeration order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

INFINITY = "inf"


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    k = n + 1
    while not is_prime(k):
        k += 1
    return k


def psl2_order(q: int) -> int:
    """Order of PSL2(F_q) for an odd prime q: q(q^2-1)/2."""
    return q * (q * q - 1) // 2


def _entry_mul(x, y):
    """Entries of the 2x2 product of entry 4-tuples x and y, unreduced;
    works on integers and on numpy arrays alike."""
    a, b, c, d = x
    e, f, g, h = y
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _canon(a, b, c, d, q):
    # pick the representative whose first nonzero entry lies in 1..(q-1)//2
    half = (q - 1) // 2
    for v in (a, b, c, d):
        if v != 0:
            if v > half:
                return (-a) % q, (-b) % q, (-c) % q, (-d) % q
            return a, b, c, d
    raise ValueError("zero matrix is not in PSL2")


class PSL2Element:
    """Canonical representative of a class in PSL2(F_q)."""

    __slots__ = ("a", "b", "c", "d", "q")

    def __init__(self, a, b, c, d, q):
        if q < 3 or not is_prime(q):
            raise ValueError(f"modulus {q} is not an odd prime")
        a, b, c, d = a % q, b % q, c % q, d % q
        if (a * d - b * c) % q != 1:
            raise ValueError("determinant is not 1 mod q")
        self.a, self.b, self.c, self.d = _canon(a, b, c, d, q)
        self.q = q

    @staticmethod
    def identity(q: int) -> "PSL2Element":
        return PSL2Element(1, 0, 0, 1, q)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other: "PSL2Element") -> "PSL2Element":
        if self.q != other.q:
            raise ValueError(f"modulus mismatch: {self.q} vs {other.q}")
        return PSL2Element(*_entry_mul(self.entries(), other.entries()), self.q)

    def inverse(self) -> "PSL2Element":
        return PSL2Element(self.d, -self.b, -self.c, self.a, self.q)

    def is_identity(self) -> bool:
        return self.entries() == (1, 0, 0, 1)

    def order(self) -> int:
        n, x = 1, self
        while not x.is_identity():
            x = x * self
            n += 1
        return n

    def __eq__(self, other):
        return (
            isinstance(other, PSL2Element)
            and self.q == other.q
            and self.entries() == other.entries()
        )

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d, self.q))

    def __repr__(self):
        return f"PSL2[[{self.a},{self.b}],[{self.c},{self.d}]] mod {self.q}"


def psl2_mul(x: PSL2Element, y: PSL2Element) -> PSL2Element:
    return x * y


class ProjectivePoint:
    """A point of P^1(F_q): a residue in 0..q-1 or the point at infinity."""

    __slots__ = ("value", "q")

    def __init__(self, value, q):
        if value != INFINITY:
            value = value % q
        self.value = value
        self.q = q

    @staticmethod
    def infinity(q):
        return ProjectivePoint(INFINITY, q)

    def is_infinity(self):
        return self.value == INFINITY

    def __eq__(self, other):
        return (
            isinstance(other, ProjectivePoint)
            and self.q == other.q
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.value, self.q))

    def __repr__(self):
        return f"P1({self.value} mod {self.q})"


def projective_line(q: int):
    """All q+1 points of P^1(F_q): the residues followed by infinity."""
    return [ProjectivePoint(i, q) for i in range(q)] + [ProjectivePoint.infinity(q)]


def moebius_act(g: PSL2Element, x: ProjectivePoint) -> ProjectivePoint:
    """Fractional-linear action (ax+b)/(cx+d) with the usual conventions
    at infinity: x = inf maps to a/c (inf when c = 0), and a zero
    denominator maps to inf."""
    if g.q != x.q:
        raise ValueError(f"modulus mismatch: {g.q} vs {x.q}")
    q = g.q
    if x.is_infinity():
        if g.c == 0:
            return ProjectivePoint.infinity(q)
        return ProjectivePoint(g.a * pow(g.c, -1, q), q)
    den = (g.c * x.value + g.d) % q
    if den == 0:
        return ProjectivePoint.infinity(q)
    num = (g.a * x.value + g.b) % q
    return ProjectivePoint(num * pow(den, -1, q), q)


class PSL2Table:
    """Indexed enumeration of PSL2(F_q) with constant-time lookup.

    Enumeration order is lexicographic in the canonical entries and is
    fixed: reports and serialized permutations rely on its stability.
    ``entries`` holds the canonical entries as a (4, n) int64 array with
    columns in enumeration order, so the base-q keys of the columns ascend
    with the index and a sorted search finds any element.
    """

    def __init__(self, q: int):
        if not is_prime(q) or q < 3:
            raise ValueError(f"{q} is not an odd prime")
        self.q = q
        # the determinant-1 matrices with first row (a, b) != 0 are
        # (c0 + t a, d0 + t b), t in F_q, for one solution (c0, d0)
        a, b, t = np.indices((q, q, q)).reshape(3, -1)
        a, b, t = (x[(a != 0) | (b != 0)] for x in (a, b, t))
        inv = np.array([0] + [pow(x, -1, q) for x in range(1, q)])
        c0 = np.where(a == 0, -inv[b], 0)
        self._keys = np.unique(self._canonical_keys(a, b, c0 + t * a, inv[a] + t * b))
        self.entries = np.stack(np.unravel_index(self._keys, (q,) * 4))
        ordered = list(zip(*self.entries.tolist()))
        self.elements = [PSL2Element(*e, q) for e in ordered]
        self._index = {e: i for i, e in enumerate(ordered)}

    def __len__(self):
        return len(self.elements)

    def index(self, g: PSL2Element) -> int:
        return self._index[g.entries()]

    def __getitem__(self, i: int) -> PSL2Element:
        return self.elements[i]

    def _canonical_keys(self, a, b, c, d) -> np.ndarray:
        """Base-q keys ((a q + b) q + c) q + d of the canonical entries."""
        q = self.q
        a, b, c, d = a % q, b % q, c % q, d % q
        # det 1 rules out a = b = 0, so the first nonzero entry is a or b
        neg = np.where(a != 0, a, b) > (q - 1) // 2
        return np.ravel_multi_index([np.where(neg, (q - x) % q, x) for x in (a, b, c, d)],
                                    (q,) * 4)

    def lookup(self, a, b, c, d) -> np.ndarray:
        """Indices of the classes of determinant-1 matrices given entrywise
        as integer arrays of one shape (any representatives mod q)."""
        return np.searchsorted(self._keys, self._canonical_keys(a, b, c, d))

    # Unused by the package; kept because perfbench/tracer.py wraps it.
    def mul_table(self) -> np.ndarray:
        """Dense index multiplication table; mul_table()[i, j] = index(e_i * e_j)."""
        return self.lookup(*_entry_mul(self.entries[:, :, None], self.entries[:, None, :]))

    def left_mul_perm(self, g: PSL2Element) -> np.ndarray:
        """Permutation array i -> index(g * e_i)."""
        return self.lookup(*_entry_mul(g.entries(), self.entries))

    def right_mul_perm(self, g: PSL2Element) -> np.ndarray:
        """Permutation array i -> index(e_i * g)."""
        return self.lookup(*_entry_mul(self.entries, g.entries()))


@lru_cache(maxsize=None)
def psl2_table(q: int) -> PSL2Table:
    """Cached enumeration; tables for the q used here are small."""
    return PSL2Table(q)


def psl2_enumerate(q: int):
    """All canonical elements of PSL2(F_q) in the fixed enumeration order."""
    return psl2_table(q).elements


def reduce_word_mod(word, q: int) -> PSL2Element:
    """Reduce a product of integer 2x2 determinant-1 matrices mod q.

    The word is a sequence of ((a, b), (c, d)) integer matrices; the result
    is the canonical image of their product.  Concatenation of words maps
    to multiplication of images.
    """
    acc = PSL2Element.identity(q)
    for m in word:
        (a, b), (c, d) = m
        if a * d - b * c != 1:
            raise ValueError(f"matrix {m} does not have determinant 1")
        acc = acc * PSL2Element(a, b, c, d, q)
    return acc


def mat_mul(m1, m2):
    """Integer 2x2 matrix product (exact, arbitrary precision)."""
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def mat_inv_det1(m):
    """Inverse of an integer 2x2 matrix with determinant 1."""
    (a, b), (c, d) = m
    return ((d, -b), (-c, a))


def mat_pow(m, n: int):
    if n < 0:
        return mat_pow(mat_inv_det1(m), -n)
    out = ((1, 0), (0, 1))
    while n:
        out = mat_mul(out, m)
        n -= 1
    return out


def centralizer_fraction(g: PSL2Element) -> Fraction:
    """|C(g)| / |PSL2(F_q)| by exhaustive commutation test.

    For g != e the fraction is at most 1/(2(q-1)).
    """
    table = psl2_table(g.q)
    count = sum(1 for h in table.elements if g * h == h * g)
    return Fraction(count, len(table))


def centralizer_fraction_max(q: int) -> Fraction:
    """max over g != e of |C(g)| / |PSL2(F_q)|, vectorized over the group."""
    table = psl2_table(q)
    n = len(table)
    ent = np.array([g.entries() for g in table.elements], dtype=np.int64)
    a, b, c, d = ent[:, 0], ent[:, 1], ent[:, 2], ent[:, 3]
    best = Fraction(0)
    for i, g in enumerate(table.elements):
        if g.is_identity():
            continue
        ga, gb, gc, gd = g.entries()
        # g*h and h*g entrywise over all h at once
        p1 = np.stack([ga * a + gb * c, ga * b + gb * d, gc * a + gd * c, gc * b + gd * d]) % q
        p2 = np.stack([a * ga + b * gc, a * gb + b * gd, c * ga + d * gc, c * gb + d * gd]) % q
        count = int(np.count_nonzero(_canon_equal(p1, p2, q)))
        frac = Fraction(count, n)
        if frac > best:
            best = frac
    return best


def _canon_equal(p1: np.ndarray, p2: np.ndarray, q: int) -> np.ndarray:
    """Columnwise: do the 4-entry columns of p1 and p2 represent the same
    PSL2 class (equal or negatives of each other mod q)?"""
    eq = np.all(p1 == p2, axis=0)
    neg = np.all(p1 == (q - p2) % q, axis=0)
    return eq | neg
