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

The paired projective graphs on PSL2(F_p) x PSL2(F_r) are not built at
all: left translations commute with the right action of the unipotent
subgroup U = U_H x U_K, so l2(H x K) splits over the characters psi of U
into the spaces {f : f(x u) = psi(u) f(x)} (Frobenius reciprocity; Terras,
*Fourier Analysis on Finite Groups and Applications*).  On each space the
operator is a twisted Schreier operator on the |H||K|/(p r) coset pairs,
and the diagonal torus permutes the characters in three orbits per
factor, so nine blocks carry the whole spectrum; conjugate characters give
conjugate blocks, which leaves five to nine to solve.

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

from .algebra import _entry_mul, psl2_order, psl2_table
from .f3vectors import shift_overlap_counts
from .groups import GpElement, ResourceBudgetError
from .perms import EXACT_DOMAIN_BUDGET, ExactPerm
from .smallgroups import inverse_index, left_regular_perms


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


# Lanczos basis size: on the character blocks at p = 7 to 43, 16 vectors take
# 7-27% fewer applications and about 10% less time than 12; ARPACK's default
# of 20 costs memory for no further speed
_LANCZOS_VECTORS = 16


def lambda2_estimate(op, iterations=2000, tolerance=1e-8, seed=0) -> SpectrumEstimate:
    """Largest eigenvalue of a self-adjoint operator (a CayleyGraph or a
    CharacterBlock) off its constants, by implicitly restarted Lanczos on
    the half-shifted operator x -> P(x + A Px)/2, started from a seeded
    vector; iterations caps the restarts.  P removes the mean when
    op.deflate is set and is the identity otherwise; op.dtype is real or
    complex (a complex Hermitian block goes through ARPACK's complex Arnoldi).

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


# -- unipotent-character blocks of the paired projective graphs -------------

# Blocks are solved only up to the largest measured size, p = 43 with
# 1,020,096 coset pairs: 392 s and a 582 MB peak on 2 vCPUs.  Solving takes
# about 530 bytes a coset pair past the imports (p = 37: 574,560 pairs,
# 356 MB), so the next admissible prime, p = 61 with 4,173,840 pairs, would
# need about 2.2 GB and is unmeasured.
CHARACTER_BLOCK_BUDGET = 1_100_000


def _coset_count(q: int) -> int:
    """|PSL2(F_q)| / q, the number of cosets of the unipotent subgroup."""
    return (q * q - 1) // 2


def check_character_block_budget(p: int, r: int) -> None:
    """Refuse a pair whose character blocks pass CHARACTER_BLOCK_BUDGET
    coset pairs, before any table is built."""
    points = _coset_count(p) * _coset_count(r)
    if points > CHARACTER_BLOCK_BUDGET:
        raise ResourceBudgetError(
            f"a character block at p={p}, r={r} has {points:,} coset pairs, past "
            f"the measured budget of {CHARACTER_BLOCK_BUDGET:,}"
        )


def _coset_coordinates(a, b, c, d, q):
    """Coset of x U and phase parameter t with x = rep * [[1, t], [0, 1]],
    for entry arrays of PSL2(F_q) elements given by either sign.

    A coset xU is the first column (a, c) up to sign.  It is numbered
    (a - 1) q + c for a in 1..(q-1)/2, and (q-1)/2 q + c - 1 for a = 0 and
    c in 1..(q-1)/2.  Its representative is [[a, 0], [c, 1/a]], or
    [[0, -1/c], [c, 0]] when a = 0, so t = b/a, or d/c when a = 0; both
    ratios are unchanged by the sign.
    """
    a, b, c, d = a % q, b % q, c % q, d % q
    half = (q - 1) // 2
    inv = np.array([0] + [pow(x, -1, q) for x in range(1, q)])
    neg = np.where(a != 0, a, c) > half
    a_up, c_up = (np.where(neg, (q - x) % q, x) for x in (a, c))
    coset = np.where(a_up != 0, (a_up - 1) * q + c_up, half * q + c_up - 1)
    t = np.where(a != 0, b * inv[a], d * inv[c]) % q
    return coset, t


def _coset_action(q, elements) -> list:
    """Per element s of PSL2(F_q), the arrays (dest, t) with
    s rep_j = rep_dest[j] [[1, t[j]], [0, 1]], over the (q^2 - 1)/2 cosets
    of the unipotent subgroup."""
    entries = psl2_table(q).entries
    coset, t = _coset_coordinates(*entries, q)
    reps = entries[:, t == 0]
    reps = reps[:, np.argsort(coset[t == 0])]
    return [_coset_coordinates(*_entry_mul(s.entries(), reps), q) for s in elements]


def _torus_orbit_representatives(q: int) -> tuple:
    """0, 1 and a non-square mod q: the torus scales a character k of U by
    the nonzero squares, so these meet every orbit.  The non-square is -1
    whenever -1 is one (q = 3 mod 4)."""
    if q % 4 == 3:
        return (0, 1, q - 1)
    return (0, 1, next(x for x in range(2, q) if pow(x, (q - 1) // 2, q) == q - 1))


def _conjugate_representative(k: int, q: int) -> int:
    # -k is in the orbit of k when -1 is a square; otherwise -1 is the
    # chosen non-square and negation swaps it with 1
    return (q - k) % q if q % 4 == 3 else k


def character_orbit_representatives(p: int, r: int) -> list:
    """One character (k, k') of U_H x U_K per orbit of the diagonal torus
    (nine orbits), less the orbits of conjugate characters: the block of
    (-k, -k') is the entrywise conjugate of that of (k, k') and has the same
    spectrum.  That leaves 5 blocks when p and r are 3 mod 4, 6 when one
    is, and 9 when neither is."""
    reps = []
    for k in _torus_orbit_representatives(p):
        for k2 in _torus_orbit_representatives(r):
            if (_conjugate_representative(k, p), _conjugate_representative(k2, r)) not in reps:
                reps.append((k, k2))
    return reps


class CharacterBlock:
    """The adjacency operator on {f : f(x u) = psi(u) f(x)} for the
    character psi(u_t, u_t') = exp(2 pi i (k t / p + k' t' / r)) of
    U_H x U_K, in the values of f on the coset-pair representatives:
    (B f)_j = (1/degree) sum_s phase_s[j] f(dest_s[j]).

    It is Hermitian, and isometric to the restriction of the flat operator
    up to the factor |U|.  Only the trivial character's block holds the
    constants; it is real and deflated.
    """

    def __init__(self, character, destinations, phases=None):
        self.character = character
        self.degree, self.size = destinations.shape
        self.deflate = phases is None
        self.dtype = np.float64 if phases is None else np.complex128
        self._destinations = destinations
        self._phases = phases

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = v[self._destinations]
        if self._phases is not None:
            out *= self._phases
        return out.sum(axis=0) / self.degree


def pair_character_blocks(p: int, r: int, elements, characters=None):
    """Yield the CharacterBlock of each character (k, k') (by default
    character_orbit_representatives) for left translation on
    PSL2(F_p) x PSL2(F_r) by the pair elements and their inverses;
    ResourceBudgetError past CHARACTER_BLOCK_BUDGET.

    The destination arrays are built once and shared; each block adds
    only its phase vectors.
    """
    check_character_block_budget(p, r)
    steps = [s for el in elements for s in (el, el.inverse())]
    left = _coset_action(p, [s.left for s in steps])
    right = _coset_action(r, [s.right for s in steps])
    n_right = _coset_count(r)
    destinations = np.stack([(dl[:, None] * n_right + dr[None, :]).ravel()
                             for (dl, _), (dr, _) in zip(left, right)])
    for k, k2 in characters or character_orbit_representatives(p, r):
        phases = None
        if k or k2:
            phases = np.stack([np.multiply.outer(np.exp(2j * np.pi * k * tl / p),
                                                 np.exp(2j * np.pi * k2 * tr / r)).ravel()
                               for (_, tl), (_, tr) in zip(left, right)])
        yield CharacterBlock((k, k2), destinations, phases)


# -- boundary ratios --------------------------------------------------------

def boundary_ratio_explicit(mask: np.ndarray, right_translations: dict) -> dict:
    """max over generators of |Tg symdiff T| / |domain| for an explicit
    subset mask; right_translations maps names to the permutations
    x -> x g."""
    n = len(mask)
    if int(mask.sum()) * 2 > n:
        raise ValueError("the witness set must fill at most half the domain")
    per = {}
    for name, rt in right_translations.items():
        mask_tg = mask[rt.inverse().images]
        per[name] = Fraction(int(np.count_nonzero(mask ^ mask_tg)), n)
    return {"per_generator": per, "max": max(per.values())}


def boundary_ratio_slab(p: int, elements: dict) -> dict:
    """Same ratio for the slab T = S(p) x H(p) under right translation by
    G(p) elements, computed exactly at any p: each matrix slice
    contributes |S symdiff (S + w)| with w the vector part, so the ratio
    is that count over 3^p."""
    per = {}
    n = 3**p
    for name, g in elements.items():
        if not isinstance(g, GpElement):
            raise TypeError("slab boundary ratios act by G(p) elements")
        counts = shift_overlap_counts(p, g.a)
        per[name] = Fraction(counts["only_s"] + counts["only_shift"], n)
    return {"per_generator": per, "max": max(per.values())}


# -- Kazhdan constants on small groups --------------------------------------

def kazhdan_bounds(table: np.ndarray, gens, direct=True, seed=0, restarts=8,
                   maxiter=400) -> dict:
    """Spectral sandwich and an optional direct minimization.

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
    mean-zero xi by constrained optimization with random restarts.  The
    sandwich is validated by tests, not assumed.
    """
    n = len(table)
    if n > 2000:
        raise ValueError("direct Kazhdan bounds are for groups of order <= 2000")
    gens = list(gens)
    graph = CayleyGraph(
        [ExactPerm(pm) for pm in left_regular_perms(table, gens).values()]
    )
    vals = np.linalg.eigvalsh(graph.dense_adjacency())
    lambda2 = float(vals[-2])
    gap = 1.0 - lambda2
    out = {
        "lambda2": lambda2,
        "gap": gap,
        "lower": sqrt(max(gap, 0.0) / len(gens)),
        "upper": sqrt(2.0 * len(gens) * max(gap, 0.0)),
    }
    if direct:
        out["direct"] = _kazhdan_direct(table, gens, seed=seed, restarts=restarts,
                                        maxiter=maxiter)
    return out


def _objective(xi, rep_arrays):
    return max(float(np.linalg.norm(xi[arr] - xi)) for arr in rep_arrays)


def _kazhdan_direct(table, gens, seed=0, restarts=8, maxiter=400) -> float:
    from scipy import optimize

    n = len(table)
    # pi(g) xi [x] = xi[g^-1 x]: gather arrays of the inverse translations
    rep = list(left_regular_perms(
        table, [inverse_index(table, g) for g in gens]).values())
    rng = np.random.default_rng(seed)
    best = float("inf")

    def project(xi):
        xi = xi - xi.mean()
        nrm = np.linalg.norm(xi)
        return xi / nrm if nrm > 1e-12 else None

    for _ in range(restarts):
        x0 = rng.standard_normal(n)
        xi0 = project(x0)
        if xi0 is None:
            continue
        t0 = _objective(xi0, rep)
        z0 = np.concatenate([xi0, [t0]])

        cons = [
            {"type": "eq", "fun": lambda z: np.sum(z[:n])},
            {"type": "eq", "fun": lambda z: np.sum(z[:n] ** 2) - 1.0},
        ]
        for arr in rep:
            cons.append(
                {
                    "type": "ineq",
                    "fun": (lambda a: lambda z: z[n] ** 2 - np.sum((z[:n][a] - z[:n]) ** 2))(arr),
                }
            )
        cons.append({"type": "ineq", "fun": lambda z: z[n]})
        res = optimize.minimize(
            lambda z: z[n], z0, constraints=cons, method="SLSQP",
            options={"maxiter": maxiter, "ftol": 1e-12},
        )
        xi = project(res.x[:n])
        if xi is not None:
            best = min(best, _objective(xi, rep))
        best = min(best, t0)
    return best


def verify_amplification(table: np.ndarray, gens, trials=1000, seed=0,
                         kappa=None, slack=1e-9):
    """Check (kappa/2) max over the whole group of the displacement of a
    random vector against the max over the generators, in the left regular
    representation.  Returns (ok, witness)."""
    n = len(table)
    if kappa is None:
        kappa = kazhdan_bounds(table, gens)["direct"]
    rep_all = list(left_regular_perms(
        table, [inverse_index(table, g) for g in range(n)]).values())
    rep_gens = list(left_regular_perms(
        table, [inverse_index(table, g) for g in gens]).values())
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        xi = rng.standard_normal(n)
        lhs = 0.5 * kappa * _objective(xi, rep_all)
        rhs = _objective(xi, rep_gens)
        if lhs > rhs + slack:
            return False, {"xi": xi, "lhs": lhs, "rhs": rhs}
    return True, None


def _undecorated_images(family) -> list:
    eta = family["eta"]
    return [eta.image(f"a{i}") for i in range(1, family.m - 2)]


def tau_family_graph(family) -> CayleyGraph:
    """Cayley graph of H(p) x K on the paired images of the undecorated
    left generators: the expander side of the dichotomy.  The flat graph
    is the oracle for tau_family_lambda2."""
    return pair_product_cayley(psl2_table(family.p), psl2_table(family.r_p),
                               _undecorated_images(family))


def tau_family_lambda2(family, seed=0) -> SpectrumEstimate:
    """lambda2 of tau_family_graph(family) as the maximum over the
    unipotent-character blocks of character_orbit_representatives, without
    building the graph, each block solved to lambda2_estimate's default
    tolerance of 1e-8.

    The iteration count is the total number of operator applications,
    the residual the largest block residual, and the estimate is converged
    only if every block is: an unconverged block could hide a larger
    eigenvalue.  The size is |H| |K|, the vertex count of the flat graph.
    """
    p, r = family.p, family.r_p
    blocks = [lambda2_estimate(block, seed=seed)
              for block in pair_character_blocks(p, r, _undecorated_images(family))]
    return SpectrumEstimate(
        max(b.lambda2 for b in blocks), sum(b.iterations for b in blocks),
        max(b.residual for b in blocks), all(b.converged for b in blocks), seed,
        psl2_order(p) * psl2_order(r), blocks[0].degree,
    )
