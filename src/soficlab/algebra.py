"""Exact arithmetic in PSL2(F_q).

Elements are stored as canonical representatives of {M, -M}: of the two
matrices in a class, the stored one has its first nonzero entry (scanning
a, b, c, d) in {1, ..., (q-1)/2}.  Canonical entries make equality and
hashing trivial, and the lexicographic order of canonical 4-tuples gives a
stable enumeration order.  The group itself is held as its indexed table,
``PSL2Table``; its action on P^1(F_q) acts on positions 0..q, with position
q the point at infinity (``f3vectors.h_position_perm``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Trial division, cached: every PSL2Element product checks its modulus."""
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


class PSL2Table:
    """Indexed enumeration of PSL2(F_q) with arithmetic index lookup.

    Enumeration order is lexicographic in the canonical entries and is
    fixed: reports and serialized permutations rely on its stability.
    ``entries`` holds the canonical entries as a (4, n) int64 array with
    columns in enumeration order; elements are built from their columns on
    demand.  With h = (q-1)/2, the canonical classes are (0, b, -1/b, d)
    for b in 1..h and (a, b, c, (1 + bc)/a) for a in 1..h, so the index of
    a class is (b-1) q + d when a = 0 and h q + ((a-1) q + b) q + c
    otherwise.
    """

    def __init__(self, q: int):
        if not is_prime(q) or q < 3:
            raise ValueError(f"{q} is not an odd prime")
        self.q = q
        half = (q - 1) // 2
        inv = np.array([0] + [pow(x, -1, q) for x in range(1, q)], dtype=np.int64)
        # the a = 0 block in (b, d) order, then the a != 0 block in (a, b, c)
        b0, d0 = np.indices((half, q), dtype=np.int64).reshape(2, -1)
        b0 += 1
        a1, b1, c1 = np.indices((half, q, q), dtype=np.int64).reshape(3, -1)
        a1 += 1
        self.entries = np.concatenate(
            [np.stack([np.zeros_like(b0), b0, -inv[b0] % q, d0]),
             np.stack([a1, b1, c1, (1 + b1 * c1) * inv[a1] % q])], axis=1)

    def __len__(self):
        return self.entries.shape[1]

    def index(self, g: PSL2Element) -> int:
        return int(self.lookup(*g.entries()))

    def __getitem__(self, i: int) -> PSL2Element:
        # tolist() yields Python ints, so hashes and serialized entries
        # match those of elements built from literals
        return PSL2Element(*self.entries[:, i].tolist(), self.q)

    def lookup(self, a, b, c, d) -> np.ndarray:
        """Indices of the classes of determinant-1 matrices given entrywise
        as integer arrays of one shape (any representatives mod q)."""
        q, half = self.q, (self.q - 1) // 2
        a, b = a % q, b % q
        # det 1 rules out a = b = 0, so the first nonzero entry is a or b;
        # the canonical representative negates every entry when it is > h
        sign = 1 - 2 * (np.where(a != 0, a, b) > half)
        a, b, c, d = (x * sign % q for x in (a, b, c, d))
        return np.where(a == 0, (b - 1) * q + d, half * q + ((a - 1) * q + b) * q + c)

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


def centralizer_fraction(g: PSL2Element) -> Fraction:
    """|C(g)| / |PSL2(F_q)| by exhaustive commutation test: the indices i
    with g e_i = e_i g, counted over the whole table.

    For g != e the fraction is at most 1/(2(q-1)).
    """
    t = psl2_table(g.q)
    commuting = np.count_nonzero(t.left_mul_perm(g) == t.right_mul_perm(g))
    return Fraction(int(commuting), len(t))


def centralizer_fraction_max(q: int) -> Fraction:
    """max over g != e of |C(g)| / |PSL2(F_q)|, in closed form.

    By Dickson's classification of the subgroups of PSL2(F_q), the largest
    centralizer of a nonidentity element is the dihedral centralizer of an
    involution, of order q + 1 when q = 3 mod 4, or the unipotent one, of
    order q, otherwise.
    """
    return Fraction(q + 1 if q % 4 == 3 else q, psl2_order(q))
