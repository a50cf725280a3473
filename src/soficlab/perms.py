"""Permutations of large indexed domains, exact and implicit.

Exact permutations are dense int64 image arrays, validated once as
bijections.  Implicit permutations are pairs of vectorized callables on
point batches; they exist because the domains here grow like 3^p * |H|
and stop being materializable long before they stop being samplable.
A product permutation acts on a two-factor domain coordinatewise, which
keeps composition and fixed-point counting exact even when the full
product domain has hundreds of millions of points.

The normalized Hamming distance between two permutations is the fraction
of points where they disagree: exact as a Fraction where the operands
allow it, otherwise estimated from seeded uniform samples with a two-sided
Hoeffding radius.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from fractions import Fraction
from math import log, sqrt

import numpy as np

EXACT_DOMAIN_BUDGET = 5_000_000


class FlatDomain:
    """Domain 0..N-1; point batches are int64 arrays."""

    def __init__(self, size: int):
        self.size = size

    def sample(self, rng, n):
        return rng.integers(0, self.size, size=n, dtype=np.int64)

    def points_equal(self, x, y):
        return x == y

    def identity_perm(self):
        return ExactPerm(np.arange(self.size, dtype=np.int64), domain=self)

    def __eq__(self, other):
        return isinstance(other, FlatDomain) and self.size == other.size

    def __repr__(self):
        return f"FlatDomain({self.size})"


class TupleDomain:
    """Product of factor domains; point batches are tuples of batches."""

    def __init__(self, *factors):
        self.factors = factors
        self.size = 1
        for f in factors:
            self.size *= f.size

    def sample(self, rng, n):
        return tuple(f.sample(rng, n) for f in self.factors)

    def points_equal(self, x, y):
        out = self.factors[0].points_equal(x[0], y[0])
        for f, a, b in zip(self.factors[1:], x[1:], y[1:]):
            out = out & f.points_equal(a, b)
        return out

    def identity_perm(self):
        return ProductPerm(*(f.identity_perm() for f in self.factors))

    def __eq__(self, other):
        return isinstance(other, TupleDomain) and self.factors == other.factors

    def __repr__(self):
        return f"TupleDomain{self.factors!r}"


class ExactPerm:
    """A permutation stored as a dense image array."""

    def __init__(self, images, domain=None, validate=True):
        images = np.asarray(images, dtype=np.int64)
        self.images = images
        self.domain = domain if domain is not None else FlatDomain(len(images))
        if self.domain.size != len(images):
            raise ValueError("image array does not cover the domain")
        if validate:
            counts = np.bincount(images, minlength=len(images))
            if not np.all(counts == 1):
                raise ValueError("image array is not a bijection")
        self._inverse = None

    @property
    def size(self):
        return len(self.images)

    def apply(self, points):
        return self.images[points]

    def apply_inverse(self, points):
        return self.inverse().apply(points)

    def inverse(self) -> "ExactPerm":
        if self._inverse is None:
            inv = np.empty_like(self.images)
            inv[self.images] = np.arange(len(self.images), dtype=np.int64)
            # no back link from the inverse: a cycle would keep both image
            # arrays alive until a full garbage collection
            self._inverse = ExactPerm(inv, domain=self.domain, validate=False)
        return self._inverse

    def compose(self, other: "ExactPerm") -> "ExactPerm":
        """self after other: x -> self(other(x))."""
        if isinstance(other, ExactPerm):
            return ExactPerm(self.images[other.images], domain=self.domain, validate=False)
        return ImplicitPerm(
            self.domain,
            lambda pts: self.apply(other.apply(pts)),
            lambda pts: other.apply_inverse(self.apply_inverse(pts)),
        )

    def fixed_count(self) -> int:
        return int(np.count_nonzero(self.images == np.arange(len(self.images))))

    def fixed_fraction(self) -> Fraction:
        return Fraction(self.fixed_count(), len(self.images))

    def is_identity(self) -> bool:
        return self.fixed_count() == len(self.images)

    def __eq__(self, other):
        return isinstance(other, ExactPerm) and np.array_equal(self.images, other.images)


class ImplicitPerm:
    """A permutation given by forward/backward vectorized callables."""

    def __init__(self, domain, forward, backward):
        self.domain = domain
        self.forward = forward
        self.backward = backward

    @property
    def size(self):
        return self.domain.size

    def apply(self, points):
        return self.forward(points)

    def apply_inverse(self, points):
        return self.backward(points)

    def inverse(self) -> "ImplicitPerm":
        return ImplicitPerm(self.domain, self.backward, self.forward)

    def compose(self, other) -> "ImplicitPerm":
        return ImplicitPerm(
            self.domain,
            lambda pts: self.apply(other.apply(pts)),
            lambda pts: other.apply_inverse(self.apply_inverse(pts)),
        )

    def spot_check(self, rng, n=64) -> bool:
        pts = self.domain.sample(rng, n)
        back = self.apply_inverse(self.apply(pts))
        return bool(np.all(self.domain.points_equal(back, pts)))


class ProductPerm:
    """A coordinatewise permutation of a product domain."""

    def __init__(self, *factors):
        self.factors = factors
        self.domain = TupleDomain(*(f.domain for f in factors))

    @property
    def size(self):
        return self.domain.size

    def apply(self, points):
        return tuple(f.apply(p) for f, p in zip(self.factors, points))

    def apply_inverse(self, points):
        return tuple(f.apply_inverse(p) for f, p in zip(self.factors, points))

    def inverse(self) -> "ProductPerm":
        return ProductPerm(*(f.inverse() for f in self.factors))

    def compose(self, other) -> "ProductPerm":
        if isinstance(other, ProductPerm) and len(other.factors) == len(self.factors):
            return ProductPerm(
                *(f.compose(g) for f, g in zip(self.factors, other.factors))
            )
        raise TypeError("can only compose product permutations factorwise")

    def fixed_fraction(self) -> Fraction:
        out = Fraction(1)
        for f in self.factors:
            out *= f.fixed_fraction()
        return out

    def is_identity(self) -> bool:
        return all(f.is_identity() for f in self.factors)


@dataclass(frozen=True)
class DHEstimate:
    """A Hamming-distance measurement: exact (radius 0) or sampled with a
    two-sided Hoeffding radius at the stated confidence."""

    value: object  # Fraction when exact, float when sampled
    radius: float
    confidence: float
    mode: str
    samples: int = 0
    seed: int = None

    def __float__(self):
        return float(self.value)


def hoeffding_radius(samples: int, confidence: float) -> float:
    delta = 1.0 - confidence
    return sqrt(log(2.0 / delta) / (2.0 * samples))


def _materialize(perm) -> ExactPerm:
    if isinstance(perm, ExactPerm):
        return perm
    if isinstance(perm, ImplicitPerm) and isinstance(perm.domain, FlatDomain):
        if perm.size > EXACT_DOMAIN_BUDGET:
            raise ValueError(
                f"domain of size {perm.size} is too large to enumerate exactly"
            )
        pts = np.arange(perm.size, dtype=np.int64)
        return ExactPerm(perm.apply(pts), domain=perm.domain)
    raise ValueError("operand cannot be enumerated for exact comparison")


def d_hamming(sigma, tau, mode="exact", samples=None, seed=None, confidence=0.99):
    """Normalized Hamming distance between two permutations of one domain.

    Exact mode returns a Fraction with radius 0.  Sampled mode requires an
    explicit seed (estimates must be reproducible) and returns the
    empirical disagreement fraction over uniform points together with the
    Hoeffding radius at the given confidence.
    """
    if sigma.domain != tau.domain:
        raise ValueError("domain mismatch")
    if mode == "exact":
        if isinstance(sigma, ProductPerm) and isinstance(tau, ProductPerm):
            agree = Fraction(1)
            for f, g in zip(sigma.factors, tau.factors):
                agree *= 1 - d_hamming(f, g, mode="exact").value
            return DHEstimate(1 - agree, 0.0, 1.0, "exact")
        s, t = _materialize(sigma), _materialize(tau)
        diff = int(np.count_nonzero(s.images != t.images))
        return DHEstimate(Fraction(diff, s.size), 0.0, 1.0, "exact")
    if mode == "sampled":
        if seed is None:
            raise ValueError("sampled mode requires an explicit seed")
        if not samples:
            raise ValueError("sampled mode requires a sample count")
        rng = np.random.default_rng(seed)
        pts = sigma.domain.sample(rng, samples)
        eq = sigma.domain.points_equal(sigma.apply(pts), tau.apply(pts))
        value = 1.0 - float(np.count_nonzero(eq)) / samples
        return DHEstimate(
            value, hoeffding_radius(samples, confidence), confidence, "sampled",
            samples=samples, seed=seed,
        )
    raise ValueError(f"unknown mode {mode!r}")


# -- binary exchange format ----------------------------------------------
#
# Every binary file is a little-endian header (4-byte magic, u32 version,
# u64 fields, the first of which is the entry count) followed by the
# entries; provenance goes to a JSON sidecar next to the file.

def write_binary(path, magic: bytes, version: int, fields, entries: np.ndarray,
                 sidecar: dict = None):
    with open(path, "wb") as fh:
        fh.write(struct.pack(f"<4sI{len(fields)}Q", magic, version, *fields))
        fh.write(entries.tobytes())
    if sidecar is not None:
        with open(str(path) + ".json", "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")


def read_binary(path, magic: bytes, version: int, n_fields: int, dtype, kind: str):
    """The u64 header fields and the entries of a file, after checking its
    magic, version and length; errors name the file kind."""
    header = struct.Struct(f"<4sI{n_fields}Q")
    with open(path, "rb") as fh:
        got_magic, got_version, *fields = header.unpack(fh.read(header.size))
        if got_magic != magic:
            raise ValueError(f"not a {kind} file")
        if got_version != version:
            raise ValueError(f"unsupported {kind} format version {got_version}")
        dtype = np.dtype(dtype)
        entries = np.frombuffer(fh.read(dtype.itemsize * fields[0]), dtype=dtype)
        if len(entries) != fields[0]:
            raise ValueError(f"truncated {kind} file")
    return fields, entries


PERM_MAGIC = b"SPRM"
PERM_VERSION = 1


def write_perm(path, perm: ExactPerm, sidecar: dict = None):
    """Write a permutation as SPRM: magic, u32 version, u64 N, N u64
    images, little-endian; provenance goes to a JSON sidecar."""
    images = np.ascontiguousarray(perm.images, dtype="<u8")
    write_binary(path, PERM_MAGIC, PERM_VERSION, (perm.size,), images, sidecar)


def read_perm(path) -> ExactPerm:
    _, data = read_binary(path, PERM_MAGIC, PERM_VERSION, 1, "<u8", "permutation")
    return ExactPerm(data.astype(np.int64))


COVER_MAGIC = b"SCVR"


def write_cover(path, theta: np.ndarray, sidecar: dict = None):
    """Fiber-map file: same header scheme, entries are base-point images."""
    arr = np.ascontiguousarray(np.asarray(theta), dtype="<u8")
    write_binary(path, COVER_MAGIC, PERM_VERSION, (len(arr),), arr, sidecar)


def read_cover(path) -> np.ndarray:
    _, data = read_binary(path, COVER_MAGIC, PERM_VERSION, 1, "<u8", "cover")
    return data.astype(np.int64)
