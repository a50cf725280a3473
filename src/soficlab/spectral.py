"""Spectral gap estimation on Cayley graphs, set-boundary ratios, and
Kazhdan-constant bounds on small groups.

The adjacency operator is never materialized on the large graphs: a
Cayley graph stores each step as one flat image array and multiplies
matrix-free, one gather per step.
The second eigenvalue comes from implicitly restarted Lanczos (ARPACK,
Lehoucq-Sorensen-Yang 1998) on the half-shifted operator (I + A)/2
restricted to the complement of constants.  The shift maps every
nontrivial eigenvalue lambda of A to (1 + lambda)/2 >= 0, so the constants,
which the deflation sends to 0, sit below all of them and the largest
eigenvalue is the wanted one even when every nontrivial lambda is negative
(as on the 3-cycle).

The paired projective graphs on H x K = PSL2(F_p) x PSL2(F_r) are not
built at all: l2(H x K) is the sum of the pi (x) pi' over pairs of
irreducible representations, with multiplicities, and on pi (x) pi' the
walk acts as X -> (1/4) sum_s pi(h_s) X pi'(k_s)^T on d x d' matrices.  So
lambda2 is the largest top eigenvalue over the pairs, where the pair holding
the constants is deflated.  The representations are the principal series,
monomial on the p + 1 points of P^1(F_p), and the cuspidal ones in the
Kirillov model on F_p^x (Piatetski-Shapiro, *Complex Representations of
GL(2, K) for Finite Fields K*, 1983), built from the entries of the four
steps only: 24 pairs of at most 96 dimensions at p = 7, and of at most
(p + 1)(r + 1) in general.  Small pairs are solved densely, larger ones by
the Lanczos routine.

A family of quotients behaves like an expander family exactly when these
gaps stay bounded away from zero, and like a non-expander when some
generator barely moves a fixed positive-density subset; both measurements
are reported as numbers and trends, never as a certified asymptotic
verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import numpy as np

from .algebra import psl2_order, psl2_table
from .f3vectors import projective_action, sp_shift_diff_exact
from .groups import GpElement, ResourceBudgetError
from .perms import EXACT_DOMAIN_BUDGET, ExactPerm
from .smallgroups import inverse_index


class CayleyGraph:
    """A regular graph from a symmetric multiset of generator actions.

    Generators come unpaired as ExactPerms; each is used together with its
    inverse, so the degree is twice the generator count (an involution
    contributes a double edge, keeping the degree and the operator
    normalization fixed).
    """

    dtype = np.float64
    deflate = True      # the constants are the top eigenvector

    def __init__(self, actions):
        self.actions = list(actions)
        if not self.actions:
            raise ValueError("at least one generator action is required")
        self.size = self.actions[0].size
        self.degree = 2 * len(self.actions)
        self._steps = []
        for a in self.actions:
            self._steps.append(a)
            self._steps.append(a.inverse())

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Normalized adjacency product."""
        out = np.zeros_like(v)
        for step in self._steps:
            out += v[step.images]
        out /= self.degree
        return out

    def dense_adjacency(self) -> np.ndarray:
        if self.size > 4000:
            raise ValueError("dense adjacency is for small graphs only")
        out = np.zeros((self.size, self.size))
        eye = np.eye(self.size)
        for step in self._steps:
            out += eye[step.images]
        return out / self.degree


def cycle_graph(n: int) -> CayleyGraph:
    images = (np.arange(n, dtype=np.int64) + 1) % n
    return CayleyGraph([ExactPerm(images)])


def pair_product_cayley(table_left, table_right, elements) -> CayleyGraph:
    """Cayley graph of a product of two enumerated groups under left
    translation by the given pair elements, on the flat index
    left * |right group| + right; ResourceBudgetError past the exact
    budget, before any step is built."""
    n_left, n_right = len(table_left), len(table_right)
    if n_left * n_right > EXACT_DOMAIN_BUDGET:
        raise ResourceBudgetError(
            f"a Cayley graph on {n_left:,} x {n_right:,} = {n_left * n_right:,} "
            f"vertices is past the exact budget of {EXACT_DOMAIN_BUDGET:,} points"
        )
    actions = []
    for el in elements:
        left = table_left.left_mul_perm(el.left)
        right = table_right.left_mul_perm(el.right)
        actions.append(ExactPerm((left[:, None] * n_right + right[None, :]).ravel()))
    return CayleyGraph(actions)


@dataclass
class SpectrumEstimate:
    lambda2: float
    iterations: int
    residual: float
    converged: bool
    seed: int
    size: int
    degree: int
    first_residual: float = float("nan")

    @property
    def gap(self) -> float:
        return 1.0 - self.lambda2


@dataclass
class PairSpectrum(SpectrumEstimate):
    """A maximum over representation pairs: the pair that attains it, the
    number of pairs and the largest pair's dimension."""

    pair: str = ""
    pairs: int = 0
    largest_pair: int = 0


# Lanczos basis size: on the unipotent-character blocks that the pair
# operators replaced, at p = 7 to 43, 16 vectors took 7-27% fewer
# applications and about 10% less time than 12; ARPACK's default of 20
# costs memory for no further speed
_LANCZOS_VECTORS = 16


def lambda2_estimate(op, iterations=2000, tolerance=1e-8, seed=0) -> SpectrumEstimate:
    """Largest eigenvalue of a self-adjoint operator (a CayleyGraph or a
    PairOperator) off its constants, by implicitly restarted Lanczos on
    the half-shifted operator x -> P(x + A Px)/2, started from a seeded
    vector; iterations caps the restarts.  P removes the mean when
    op.deflate is set and is the identity otherwise; op.dtype is real or
    complex (a complex Hermitian pair goes through ARPACK's complex Arnoldi).

    The reported eigenvalue and residual ||A v - lambda v|| come from one
    last product with the unshifted operator on the normalized projected
    Ritz vector, and the estimate is converged when that residual meets
    the tolerance.  The iteration count is the number of operator
    applications.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    n = op.size
    applications = 0

    def project(x):
        return x - x.mean() if op.deflate else x

    def shifted(x):
        nonlocal applications
        applications += 1
        return project(0.5 * (x + op.matvec(project(x))))

    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    if np.dtype(op.dtype).kind == "c":
        v = v + 1j * rng.standard_normal(n)
    v = project(v)
    v /= np.linalg.norm(v)
    w = shifted(v)
    first_res = 2.0 * float(np.linalg.norm(w - np.vdot(v, w) * v))
    if float(np.linalg.norm(w)) < 1e-14:
        # the shifted operator annihilates the space: every eigenvalue of A
        # on it is -1
        return SpectrumEstimate(-1.0, applications, 0.0, True, seed, n, op.degree,
                                first_res)
    shifted_op = LinearOperator((n, n), matvec=shifted, dtype=op.dtype)
    # ARPACK stops at ||B v - theta v|| <= tol * theta with theta <= 1, and
    # the residual in A is twice the one in B: a quarter leaves headroom
    try:
        _, vectors = eigsh(shifted_op, k=1, which="LA", v0=v,
                           ncv=min(_LANCZOS_VECTORS, n), tol=tolerance / 4,
                           maxiter=iterations)
    except ArpackNoConvergence as exc:
        vectors = exc.eigenvectors
    if vectors.shape[1]:
        v = project(vectors[:, 0])
        v /= np.linalg.norm(v)
    av = op.matvec(v)
    applications += 1
    lam = float(np.vdot(v, av).real)
    res = float(np.linalg.norm(av - lam * v))
    return SpectrumEstimate(lam, applications, res, res <= tolerance, seed, n,
                            op.degree, first_res)


# -- irreducible representations of PSL2(F_q) on the steps of a walk --------

def _field_logs(q: int) -> tuple:
    """(eps, log): F_{q^2} = F_q[s]/(s^2 - eps) for the least non-square
    eps, and the discrete logarithm log[x, y] of x + y s to a generator of
    F_{q^2}^x (log[0, 0] = -1).  F_q^x is generated by the (q+1)-th power,
    so every character of F_q^x or F_{q^2}^x is exp(2 pi i k log / (q^2 - 1))
    for an integer k."""
    eps = next(x for x in range(2, q) if pow(x, (q - 1) // 2, q) == q - 1)
    for gx, gy in ((gx, gy) for gy in range(1, q) for gx in range(q)):
        log = np.full((q, q), -1, dtype=np.int64)
        x, y = 1, 0
        for k in range(q * q - 1):
            if log[x, y] >= 0:
                break       # x + y s returned early: not a generator
            log[x, y] = k
            x, y = (x * gx + eps * y * gy) % q, (x * gy + y * gx) % q
        else:
            return eps, log
    raise AssertionError(f"F_{q}^2 has no generator")


def _unit(k, m):
    return np.exp(2j * np.pi * (np.asarray(k) % m) / m)


# OpenBLAS runs a gemm of at most this many multiply-adds on the calling
# thread and wakes its pool above it.  Under OPENBLAS_NUM_THREADS=2 on
# 2 vCPUs every wake cost about 4 ms: a p = 43 pair with a cuspidal factor
# took 2.6 s in lambda2_estimate with whole products and 0.06 s with one
# thread, for the same 180 applications of about 0.2 ms.
_SERIAL_GEMM_SIZE = 65_536


def _serial_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of small matrices, in column slices of b small
    enough to stay off the BLAS thread pool."""
    m, k = a.shape[-2:]
    width = max(1, _SERIAL_GEMM_SIZE // (m * k))
    n = b.shape[-1]
    if n <= width:
        return np.matmul(a, b)
    return np.concatenate([np.matmul(a, b[..., i:i + width]) for i in range(0, n, width)],
                          axis=-1)


class StepRepresentation:
    """A unitary representation pi of PSL2(F_q) at the steps h_s of a walk,
    as a (steps, dim, dim) stack of matrices; a monomial one also keeps its
    gather form (pi(h_s) f)[i] = mult[s, i] f[dest[s, i]] and is applied
    without BLAS.  constants marks the principal series of the trivial
    character, 1 + Steinberg, whose constant vector is the trivial part."""

    def __init__(self, label, matrices=None, dest=None, mult=None, constants=False):
        self.label = label
        self.constants = constants
        self.dest, self.mult = dest, mult
        if matrices is None:
            steps, dim = dest.shape
            matrices = np.zeros((steps, dim, dim), dtype=mult.dtype)
            matrices[np.arange(steps)[:, None], np.arange(dim), dest] = mult
        self.matrices = matrices
        self.dim = matrices.shape[1]

    def left(self, x: np.ndarray) -> np.ndarray:
        """The stack of pi(h_s) x over the steps, for a (dim, d') matrix x."""
        if self.dest is None:
            return _serial_matmul(self.matrices, x)
        return self.mult[:, :, None] * x[self.dest]

    def right(self, y: np.ndarray) -> np.ndarray:
        """sum_s y_s pi(h_s)^T for a stack y of (d, dim) matrices."""
        if self.dest is None:
            return _serial_matmul(self.matrices, y.transpose(0, 2, 1)).sum(axis=0).T
        return (np.take_along_axis(y, self.dest[:, None, :], axis=2)
                * self.mult[:, None, :]).sum(axis=0)


def _principal_series(q, positions, scales, logs, j) -> StepRepresentation:
    # (pi(h) f)(v) = f(h^(-1) v) on functions with f(c v) = chi_j(c) f(v)
    if j == 0:
        return StepRepresentation("principal:j=0", dest=positions,
                                  mult=np.ones(positions.shape), constants=True)
    return StepRepresentation(f"principal:j={j}", dest=positions,
                              mult=_unit(j * logs[scales, 0], q * q - 1))


def _cuspidal(q, entries, eps, logs, n) -> StepRepresentation:
    """Kirillov model on F_q^x of the cuspidal representation of the
    character theta = exp(2 pi i n log / (q^2 - 1)) of F_{q^2}^x, with
    omega = theta on F_q^x and psi(x) = exp(2 pi i x / q):
    [[a, b], [0, d]] f(x) = omega(d) psi(b x / d) f(a x / d), and
    w = [[0, 1], [-1, 0]] acts by W[y, x] = j(x y) / omega(x) with
    j(u) = -(1/q) sum_{N(t) = u} psi(t + t^q) theta(t).  Any other element
    is [[1, a/c], [0, 1]] w [[-c, -d], [0, -1/c]] (Bruhat)."""
    order = q * q - 1
    tx, ty = np.indices((q, q)).reshape(2, -1)[:, 1:]
    values = _unit(2 * tx, q) * _unit(n * logs[tx, ty], order)
    norms = (tx * tx - eps * ty * ty) % q
    j = -(np.bincount(norms, values.real, q) + 1j * np.bincount(norms, values.imag, q)) / q
    xs = np.arange(1, q)
    omega = np.concatenate([[0], _unit(n * logs[xs, 0], order)])
    kernel = j[np.outer(xs, xs) % q] / omega[xs]
    inv = np.array([0] + [pow(x, -1, q) for x in range(1, q)])
    matrices = np.zeros((len(entries), q - 1, q - 1), dtype=np.complex128)
    for m, (a, b, c, d) in zip(matrices, entries):
        if c == 0:
            m[xs - 1, a * inv[d] * xs % q - 1] = omega[d] * _unit(b * inv[d] * xs, q)
        else:
            ci = inv[c]
            m[:] = (_unit(a * ci * xs, q)[:, None] * kernel[:, xs * ci * ci % q - 1]
                    * omega[-ci % q] * _unit(d * ci * xs, q))
    return StepRepresentation(f"cuspidal:n={n}", matrices)


def irreducible_representations(q: int, entries) -> list:
    """Every irreducible representation of PSL2(F_q) at the steps whose
    entries (a, b, c, d), of either sign, are the rows of entries; the
    group is never enumerated.  First the principal series Ind chi_j for j
    even in [0, (q-1)/2], monomial on the q + 1 points of P^1(F_q), then
    the cuspidal representations for n even in [2, (q+1)/2], in the
    Kirillov model on the q - 1 points of F_q^x.

    j = 0 is 1 + Steinberg.  The operators of j = (q-1)/2 (q = 1 mod 4)
    and n = (q+1)/2 (q = 3 mod 4) are each the sum of the two half-size
    representations, so these (q+5)/2 - 2 operators carry all (q+5)/2
    irreducibles (Piatetski-Shapiro, *Complex Representations of GL(2, K)
    for Finite Fields K*)."""
    entries = np.asarray(entries, dtype=np.int64) % q
    eps, logs = _field_logs(q)
    positions, scales = projective_action(entries.T, q)
    reps = [_principal_series(q, positions, scales, logs, j)
            for j in range(0, (q - 1) // 2 + 1, 2)]
    return reps + [_cuspidal(q, entries, eps, logs, n)
                   for n in range(2, (q + 1) // 2 + 1, 2)]


class PairOperator:
    """X -> (1/degree) sum_s pi(h_s) X pi'(k_s)^T on d x d' matrices,
    flattened row-major: the adjacency operator of the walk on the
    component pi (x) pi' of l2(H x K).  It is Hermitian because the steps
    come with their inverses.  Only the pair of the two trivial-character
    principal series holds the constants, and only it is deflated and real.

    The last vector applied is kept: lambda2_estimate ends with one
    application to its Ritz vector."""

    def __init__(self, left: StepRepresentation, right: StepRepresentation):
        self.left, self.right = left, right
        self.size = left.dim * right.dim
        self.degree = len(left.matrices)
        self.deflate = left.constants and right.constants
        self.dtype = np.result_type(left.matrices, right.matrices)
        self.last_input = None

    def matvec(self, v: np.ndarray) -> np.ndarray:
        self.last_input = v
        x = v.reshape(self.left.dim, self.right.dim)
        return self.right.right(self.left.left(x)).reshape(v.shape) / self.degree

    def dense(self) -> np.ndarray:
        """(1/degree) sum_s kron(pi(h_s), pi'(k_s))."""
        kron = np.einsum("sij,skl->ikjl", self.left.matrices, self.right.matrices)
        return kron.reshape(self.size, self.size) / self.degree

    def label(self, top: np.ndarray) -> str:
        """The pair's name; a trivial-character principal series factor is
        named by the part (trivial or Steinberg) that holds most of the
        top vector's weight."""
        x = top.reshape(self.left.dim, self.right.dim)
        names = []
        for rep, axis in ((self.left, 0), (self.right, 1)):
            name = rep.label
            if rep.constants:
                share = np.linalg.norm(x.sum(axis=axis)) ** 2 / rep.dim
                name += "(trivial)" if share > 0.5 * np.linalg.norm(x) ** 2 else "(steinberg)"
            names.append(name)
        return " x ".join(names)


# Pairs up to this many dimensions are solved densely.  Median time of one
# pair solve on the pair operators at p = 7, 13 and 19 (best of 3; 2 vCPUs,
# OPENBLAS_NUM_THREADS=2), dense against lambda2_estimate, in ms:
#   60: 0.53 / 2.2    96: 1.1 / 4.1    192: 6.0 / 6.9    216: 7.5 / 8.2
#   224: 8.3 / 6.8    252: 12.2 / 7.6  396: 37.9 / 11.4  480: 60.9 / 18.0
DENSE_PAIR_LIMIT = 216

# The largest pair, two principal series, has (p + 1)(r + 1) dimensions.
# measure spectra has run end to end up to p = 61 (r = 67, 4,216
# dimensions, 1,054 pairs): 275 s and a 94 MB peak on 2 vCPUs, against 46 s
# and 76 MB at p = 43.  Larger primes are unmeasured and refused.
PAIR_DIMENSION_BUDGET = 4_216


def check_pair_budget(p: int, r: int) -> None:
    """Refuse a prime whose largest pair operator passes
    PAIR_DIMENSION_BUDGET, before any table is built."""
    dims = (p + 1) * (r + 1)
    if dims > PAIR_DIMENSION_BUDGET:
        raise ResourceBudgetError(
            f"the largest representation pair at p={p}, r={r} has {dims:,} "
            f"dimensions, past the largest measured {PAIR_DIMENSION_BUDGET:,} (p=61)"
        )


def _solve_pair(op: PairOperator, seed: int) -> tuple:
    """(estimate, top vector) of one pair operator: its largest eigenvalue,
    the second for the deflated pair.  Up to DENSE_PAIR_LIMIT dimensions a
    dense eigensolve, past it lambda2_estimate; either way the residual
    ||A v - lambda v|| comes from one application, and a dense pair counts
    that one application."""
    if op.size > DENSE_PAIR_LIMIT:
        return lambda2_estimate(op, seed=seed), op.last_input
    from scipy.linalg import eigh

    n = op.size
    _, vectors = eigh(op.dense(), subset_by_index=[n - 1 - op.deflate, n - 1])
    v = vectors[:, 0]
    av = op.matvec(v)
    lam = float(np.vdot(v, av).real)
    res = float(np.linalg.norm(av - lam * v))
    # lambda2_estimate's default tolerance
    return SpectrumEstimate(lam, 1, res, res <= 1e-8, seed, n, op.degree), v


# -- boundary ratios --------------------------------------------------------

def boundary_ratio_slab(elements: dict) -> dict:
    """Same ratio for the slab T = S(p) x H(p) under right translation by
    G(p) elements, computed exactly at any p: each matrix slice
    contributes |S symdiff (S + w)| with w the vector part, so the ratio
    is that count over 3^p."""
    per = {}
    for name, g in elements.items():
        if not isinstance(g, GpElement):
            raise TypeError("slab boundary ratios act by G(p) elements")
        per[name] = Fraction(sp_shift_diff_exact(g.a), 3**g.a.p)
    return {"per_generator": per, "max": max(per.values())}


# -- Kazhdan constants on small groups --------------------------------------

# The direct minimization's random restarts and SLSQP iterations per
# restart, and the tolerance of the amplification inequality.
KAZHDAN_RESTARTS = 8
KAZHDAN_MAXITER = 400
AMPLIFICATION_SLACK = 1e-9


def kazhdan_bounds(table: np.ndarray, gens, seed=0) -> dict:
    """Spectral sandwich and a direct minimization.

    Both bounds come from the regular-representation adjacency gap on the
    complement of constants.  For any unit mean-zero vector the squared
    displacements average to at least 2 gap over the symmetrized
    generators, so the max is at least that much and the constant is at
    least sqrt(2 gap) >= sqrt(gap / |T|) = lower.  In the other direction
    the max is at most the sum, and minimizing the sum gives
    upper = sqrt(2 |T| gap).  (The tempting sqrt(2 gap) is NOT an upper
    bound: on the 6-element symmetric group with a transposition and a
    3-cycle the true constant is sqrt(12/7) > sqrt(2 gap).)

    direct minimizes max over generators of ||pi(g) xi - xi|| over unit
    mean-zero xi by SLSQP with random restarts and exact gradients.  The
    sandwich is validated by tests, not assumed.
    """
    n = len(table)
    if n > 2000:
        raise ValueError("direct Kazhdan bounds are for groups of order <= 2000")
    gens = list(gens)
    # row g of the table is the left translation x -> g x
    graph = CayleyGraph([ExactPerm(table[g]) for g in gens])
    vals = np.linalg.eigvalsh(graph.dense_adjacency())
    lambda2 = float(vals[-2])
    gap = 1.0 - lambda2
    return {
        "lambda2": lambda2,
        "gap": gap,
        "lower": sqrt(max(gap, 0.0) / len(gens)),
        "upper": sqrt(2.0 * len(gens) * max(gap, 0.0)),
        "direct": _kazhdan_direct(table, gens, seed=seed),
    }


def _objective(xi, rep):
    return float(np.linalg.norm(xi[rep] - xi, axis=1).max())


def _kazhdan_constraints(rep) -> list:
    """SLSQP constraints on z = (xi, t) with exact gradients: sum xi = 0,
    ||xi||^2 = 1, t^2 >= ||d||^2 for d = xi[a] - xi and each gather array
    a, and t >= 0.  The xi gradient of t^2 - ||d||^2 is -2 (d[a^-1] - d)
    = 2 (xi[a] + xi[a^-1] - 2 xi)."""
    n = rep.shape[1]
    return [
        {"type": "eq", "fun": lambda z: np.sum(z[:n]),
         "jac": lambda z: np.append(np.ones(n), 0.0)},
        {"type": "eq", "fun": lambda z: np.sum(z[:n] ** 2) - 1.0,
         "jac": lambda z: np.append(2.0 * z[:n], 0.0)},
        *({"type": "ineq",
           "fun": lambda z, a=a: z[n] ** 2 - np.sum((z[:n][a] - z[:n]) ** 2),
           "jac": lambda z, a=a, b=np.argsort(a):
               np.append(2.0 * (z[:n][a] + z[:n][b] - 2.0 * z[:n]), 2.0 * z[n])}
          for a in rep),
        {"type": "ineq", "fun": lambda z: z[n],
         "jac": lambda z: np.append(np.zeros(n), 1.0)},
    ]


def _kazhdan_direct(table, gens, seed=0) -> float:
    from scipy import optimize

    n = len(table)
    # pi(g) xi [x] = xi[g^-1 x]: gather arrays of the inverse translations
    rep = table[[inverse_index(table, g) for g in gens]]
    rng = np.random.default_rng(seed)
    best = float("inf")

    def project(xi):
        xi = xi - xi.mean()
        nrm = np.linalg.norm(xi)
        return xi / nrm if nrm > 1e-12 else None

    cons = _kazhdan_constraints(rep)
    e_t = np.append(np.zeros(n), 1.0)
    for _ in range(KAZHDAN_RESTARTS):
        xi0 = project(rng.standard_normal(n))
        if xi0 is None:
            continue
        t0 = _objective(xi0, rep)
        z0 = np.concatenate([xi0, [t0]])
        res = optimize.minimize(
            lambda z: z[n], z0, jac=lambda z: e_t, constraints=cons, method="SLSQP",
            options={"maxiter": KAZHDAN_MAXITER, "ftol": 1e-12},
        )
        xi = project(res.x[:n])
        if xi is not None:
            best = min(best, _objective(xi, rep))
        best = min(best, t0)
    return best


def verify_amplification(table: np.ndarray, gens, trials=1000, seed=0, kappa=None):
    """Check (kappa/2) max over the whole group of the displacement of a
    random vector against the max over the generators, in the left regular
    representation.  Returns (ok, witness)."""
    n = len(table)
    if kappa is None:
        kappa = kazhdan_bounds(table, gens, seed=seed)["direct"]
    rep_gens = table[[inverse_index(table, g) for g in gens]]
    # one row per trial: the same vectors as trials draws of n in turn
    xi = np.random.default_rng(seed).standard_normal((trials, n))

    def displacement(rep):  # per trial, the max over the rows a of ||xi[a] - xi||
        return np.max([np.linalg.norm(xi[:, a] - xi, axis=1) for a in rep], axis=0)

    # row g of the table gathers pi(g^-1): the rows cover the whole group
    lhs = 0.5 * kappa * displacement(table)
    rhs = displacement(rep_gens)
    failed = np.flatnonzero(lhs > rhs + AMPLIFICATION_SLACK)
    if len(failed) == 0:
        return True, None
    i = failed[0]
    return False, {"xi": xi[i], "lhs": float(lhs[i]), "rhs": float(rhs[i])}


def _undecorated_images(family) -> list:
    eta = family["eta"]
    return [eta.image(f"a{i}") for i in range(1, family.m - 2)]


def tau_family_graph(family) -> CayleyGraph:
    """Cayley graph of H(p) x K on the paired images of the undecorated
    left generators: the expander side of the dichotomy.  The flat graph
    is the oracle for tau_family_lambda2."""
    return pair_product_cayley(psl2_table(family.p), psl2_table(family.r_p),
                               _undecorated_images(family))


def tau_family_lambda2(family, seed=0) -> PairSpectrum:
    """lambda2 of tau_family_graph(family) as the maximum over the pairs
    (pi, pi') of irreducible_representations of H and K of the top
    eigenvalue of the pair operator, without building the graph:
    l2(H x K) is the sum of the pi (x) pi' with multiplicities, and only
    the trivial (x) trivial part, inside the deflated pair, holds the
    constants.  ResourceBudgetError past PAIR_DIMENSION_BUDGET.

    The iteration count is the total number of operator applications,
    the residual the largest pair residual, and the estimate is converged
    only if every pair is: an unconverged pair could hide a larger
    eigenvalue.  The size is |H| |K|, the vertex count of the flat graph.
    """
    p, r = family.p, family.r_p
    check_pair_budget(p, r)
    steps = [s for el in _undecorated_images(family) for s in (el, el.inverse())]
    lefts = irreducible_representations(p, [s.left.entries() for s in steps])
    rights = irreducible_representations(r, [s.right.entries() for s in steps])
    estimates, best, pair = [], None, ""
    for op in (PairOperator(a, b) for a in lefts for b in rights):
        est, vector = _solve_pair(op, seed)
        estimates.append(est)
        if best is None or est.lambda2 > best.lambda2:
            best, pair = est, op.label(vector)
    return PairSpectrum(
        best.lambda2, sum(e.iterations for e in estimates),
        max(e.residual for e in estimates), all(e.converged for e in estimates),
        seed, psl2_order(p) * psl2_order(r), len(steps),
        pair=pair, pairs=len(estimates),
        largest_pair=max(a.dim for a in lefts) * max(b.dim for b in rights),
    )
