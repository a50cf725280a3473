"""Permutations of large indexed domains, exact and implicit.

Exact permutations are dense int64 image arrays, validated once as
bijections.  Implicit permutations are pairs of vectorized callables on
point batches; they exist because the domains here grow like 3^p * |H|
and stop being materializable long before they stop being samplable.

The normalized Hamming distance between two permutations is the fraction
of points where they disagree: exact as a Fraction on a domain of at
most EXACT_DOMAIN_BUDGET points, otherwise estimated from seeded uniform
samples, each block drawn and compared before the next one is drawn, with a
two-sided Hoeffding radius; neither builds an image array.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from fractions import Fraction
from math import log, sqrt

import numpy as np

EXACT_DOMAIN_BUDGET = 5_000_000
# Implicit maps enumerate a domain at most about this many points at a
# time, which bounds their temporaries.
SAMPLE_BLOCK = 1 << 16
# A sampled read draws, decodes and compares at most this many points at a
# time, so that its memory does not grow with the sample count.
DRAW_BLOCK = 1 << 14
# the confidence of every sampled distance's Hoeffding radius
CONFIDENCE = 0.99


class FlatDomain:
    """Domain 0..N-1; point batches are int64 arrays."""

    def __init__(self, size: int):
        self.size = size

    def sample_blocks(self, rng, n):
        """The points of rng.integers(0, size, n), drawn DRAW_BLOCK at a time."""
        for start in range(0, n, DRAW_BLOCK):
            yield rng.integers(0, self.size, size=min(DRAW_BLOCK, n - start), dtype=np.int64)

    def points_equal(self, x, y):
        return x == y

    def identity_perm(self):
        return ExactPerm(np.arange(self.size, dtype=np.int64))

    def index(self, points):
        return points

    def blocks(self):
        """(flat rows, points) covering the domain in blocks of SAMPLE_BLOCK."""
        for start in range(0, self.size, SAMPLE_BLOCK):
            rows = slice(start, min(start + SAMPLE_BLOCK, self.size))
            yield rows, np.arange(rows.start, rows.stop, dtype=np.int64)

    def __eq__(self, other):
        return isinstance(other, FlatDomain) and self.size == other.size

    def __repr__(self):
        return f"FlatDomain({self.size})"


class ExactPerm:
    """A permutation stored as a dense image array.

    The image array is the one whole-domain array a permutation keeps (its
    inverse, once asked for, is another); validation allocates only an
    n-byte hit mask."""

    def __init__(self, images, validate=True):
        images = np.asarray(images, dtype=np.int64)
        self.images = images
        self.domain = FlatDomain(len(images))
        if validate:
            _check_bijection(images)
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
            self._inverse = ExactPerm(inv, validate=False)
        return self._inverse

    def compose(self, other: "ExactPerm") -> "ExactPerm":
        """self after other: x -> self(other(x))."""
        if isinstance(other, ExactPerm):
            return ExactPerm(self.images[other.images], validate=False)
        raise TypeError("can only compose exact permutations with exact ones")

    # through the attribute, so that a wrapped compose sees every product
    def __mul__(self, other):
        return self.compose(other)

    def fixed_count(self) -> int:
        return int(np.count_nonzero(self.images == np.arange(len(self.images))))

    def fixed_fraction(self) -> Fraction:
        return Fraction(self.fixed_count(), len(self.images))

    def is_identity(self) -> bool:
        return self.fixed_count() == len(self.images)

    def __eq__(self, other):
        return isinstance(other, ExactPerm) and np.array_equal(self.images, other.images)


def _check_bijection(images: np.ndarray):
    """Refuse, with ValueError, an image array that is not a permutation
    of 0..n-1: every image in range and every point hit (n images in range
    hit all n points exactly when none repeats)."""
    n = len(images)
    if images.ndim != 1:
        raise ValueError("image array is not one-dimensional")
    if n and (images.min() < 0 or images.max() >= n):
        raise ValueError("image array is not a bijection")
    hit = np.zeros(n, dtype=bool)
    hit[images] = True
    if not hit.all():
        raise ValueError("image array is not a bijection")


class ImplicitPerm:
    """A permutation given by forward/backward vectorized callables."""

    def __init__(self, domain, forward, backward):
        self.domain = domain
        self.apply = forward
        self.apply_inverse = backward

    @property
    def size(self):
        return self.domain.size

    def inverse(self) -> "ImplicitPerm":
        return ImplicitPerm(self.domain, self.apply_inverse, self.apply)

    def compose(self, other) -> "ImplicitPerm":
        """self after other: x -> self(other(x)), run as one chain of maps."""
        return ImplicitPerm(self.domain, _Chain(other.apply, self.apply),
                            _Chain(self.apply_inverse, other.apply_inverse))

    def __mul__(self, other):
        return self.compose(other)


class _Chain:
    """Batch maps run one after another, chains of chains flattened: each
    intermediate batch is freed once the next map has read it, where
    nested calls would hold all of them until the outermost returned."""

    def __init__(self, *maps):
        self.maps = [m for fn in maps for m in getattr(fn, "maps", (fn,))]

    def __call__(self, pts):
        for fn in self.maps:
            pts = fn(pts)
        return pts


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


def check_enumerable(domain):
    """Refuse, with ValueError, a domain of more than EXACT_DOMAIN_BUDGET
    points: too large to enumerate exactly."""
    if domain.size > EXACT_DOMAIN_BUDGET:
        raise ValueError(f"domain of size {domain.size} is too large to enumerate exactly")


def materialize(perm) -> ExactPerm:
    """The dense image array of a permutation on the flat index of its
    domain: an implicit map is run once over the domain's blocks."""
    if isinstance(perm, ExactPerm):
        return perm
    domain = perm.domain
    check_enumerable(domain)
    images = np.empty(perm.size, dtype=np.int64)
    for rows, pts in domain.blocks():
        images[rows] = domain.index(perm.apply(pts)).ravel()
    return ExactPerm(images)


def check_sample_count(samples):
    """Refuse, with ValueError, a sample count that is not a positive int."""
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)) or samples <= 0:
        raise ValueError(f"sampled mode requires a positive int sample count, not {samples!r}")


def d_hamming(sigma, tau, mode="exact", samples=None, seed=None):
    """Normalized Hamming distance between two permutations of one domain.

    Both modes compare the two maps block by block, so only a block of
    each operand's images exists at a time.  Exact mode counts over the
    domain's blocks (check_enumerable refuses a domain too large) and
    returns a Fraction with radius 0.  Sampled mode requires an explicit
    seed (estimates must be reproducible) and a positive int sample count,
    and returns the empirical disagreement fraction over the domain's
    sample_blocks, each block compared before the next is drawn, with the
    Hoeffding radius at CONFIDENCE.
    """
    if sigma.domain != tau.domain:
        raise ValueError("domain mismatch")
    domain = sigma.domain
    if mode == "exact":
        check_enumerable(domain)
        n, blocks = domain.size, (pts for _, pts in domain.blocks())
    elif mode == "sampled":
        if seed is None:
            raise ValueError("sampled mode requires an explicit seed")
        check_sample_count(samples)
        n, blocks = samples, domain.sample_blocks(np.random.default_rng(seed), samples)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    agree = sum(int(np.count_nonzero(domain.points_equal(sigma.apply(b), tau.apply(b))))
                for b in blocks)
    if mode == "exact":
        return DHEstimate(Fraction(n - agree, n), 0.0, 1.0, "exact")
    return DHEstimate(1.0 - float(agree) / n, hoeffding_radius(n, CONFIDENCE), CONFIDENCE,
                      "sampled", samples=n, seed=seed)


# -- binary exchange format ----------------------------------------------

PERM_MAGIC = b"SPRM"
PERM_VERSION = 1
_PERM_HEADER = struct.Struct("<4sIQ")


def write_perm(path, perm: ExactPerm, sidecar: dict = None):
    """Write a permutation as SPRM: magic, u32 version, u64 N, N u64
    images, little-endian; provenance goes to a JSON sidecar.  Contiguous
    little-endian int64 images are written through a view of their bytes;
    any other layout through one little-endian copy."""
    images = perm.images
    if images.dtype == np.dtype("<i8") and images.flags.c_contiguous:
        images = images.view("<u8")
    else:
        images = images.astype("<u8")
    with open(path, "wb") as fh:
        fh.write(_PERM_HEADER.pack(PERM_MAGIC, PERM_VERSION, perm.size))
        fh.write(images)
    if sidecar is not None:
        with open(str(path) + ".json", "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")


def read_perm(path) -> ExactPerm:
    """The permutation of an SPRM file, after checking its magic, version
    and length."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _PERM_HEADER.size:
        raise ValueError("truncated permutation file: shorter than its header")
    magic, version, n = _PERM_HEADER.unpack_from(data)
    if magic != PERM_MAGIC:
        raise ValueError("not a permutation file")
    if version != PERM_VERSION:
        raise ValueError(f"unsupported permutation format version {version}")
    extra = len(data) - _PERM_HEADER.size - 8 * n
    if extra:
        raise ValueError(f"permutation file has {extra} trailing bytes" if extra > 0
                         else "truncated permutation file")
    return ExactPerm(np.frombuffer(data, dtype="<u8", offset=_PERM_HEADER.size)
                     .astype(np.int64))
