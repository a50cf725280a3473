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


def check_pair_budget(left_order: int, right_order: int) -> None:
    """Refuse a product Cayley graph whose flat step arrays would pass the
    exact-domain budget, before any step is built."""
    size = left_order * right_order
    if size > EXACT_DOMAIN_BUDGET:
        raise ResourceBudgetError(
            f"a Cayley graph on {left_order:,} x {right_order:,} = {size:,} vertices "
            f"is past the exact budget of {EXACT_DOMAIN_BUDGET:,} points"
        )


def pair_product_cayley(table_left, table_right, elements) -> CayleyGraph:
    """Cayley graph of a product of two enumerated groups under left
    translation by the given pair elements, on the flat index
    left * |right group| + right; ResourceBudgetError past the exact
    budget."""
    n_right = len(table_right)
    check_pair_budget(len(table_left), n_right)
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


# Lanczos basis size: ARPACK's default of 20 vectors costs memory and no speed
_LANCZOS_VECTORS = 12


def lambda2_estimate(graph: CayleyGraph, iterations=2000, tolerance=1e-8,
                     seed=0) -> SpectrumEstimate:
    """Largest nontrivial adjacency eigenvalue by implicitly restarted
    Lanczos on the mean-deflated, half-shifted operator x -> P(x + A Px)/2,
    started from a seeded mean-zero vector; iterations caps the restarts.

    The reported eigenvalue and residual ||A v - lambda v|| come from one
    last product with the unshifted operator on the normalized mean-zero
    Ritz vector, and the estimate is converged when that residual meets
    the tolerance.  The iteration count is the number of operator
    applications.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    n = graph.size
    applications = 0

    def shifted(x):
        nonlocal applications
        applications += 1
        w = 0.5 * (x + graph.matvec(x - x.mean()))
        w -= w.mean()
        return w

    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v -= v.mean()
    v /= np.linalg.norm(v)
    w = shifted(v)
    first_res = 2.0 * float(np.linalg.norm(w - float(v @ w) * v))
    if float(np.linalg.norm(w)) < 1e-14:
        # the shifted operator annihilates the complement: every
        # nontrivial eigenvalue of A is -1
        return SpectrumEstimate(-1.0, applications, 0.0, True, seed, n, graph.degree,
                                first_res)
    op = LinearOperator((n, n), matvec=shifted, dtype=np.float64)
    # ARPACK stops at ||B v - theta v|| <= tol * theta with theta <= 1, and
    # the residual in A is twice the one in B: a quarter leaves headroom
    try:
        _, vectors = eigsh(op, k=1, which="LA", v0=v, ncv=min(_LANCZOS_VECTORS, n),
                           tol=tolerance / 4, maxiter=iterations)
    except ArpackNoConvergence as exc:
        vectors = exc.eigenvectors
    if vectors.shape[1]:
        v = vectors[:, 0] - vectors[:, 0].mean()
        v /= np.linalg.norm(v)
    av = graph.matvec(v)
    applications += 1
    lam = float(v @ av)
    res = float(np.linalg.norm(av - lam * v))
    return SpectrumEstimate(lam, applications, res, res <= tolerance, seed, n,
                            graph.degree, first_res)


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


def tau_family_graph(family) -> CayleyGraph:
    """Cayley graph of H(p) x K on the paired images of the undecorated
    left generators: the expander side of the dichotomy."""
    from .algebra import psl2_table

    eta = family["eta"]
    table_h = psl2_table(family.p)
    table_k = psl2_table(family.r_p)
    undecorated = [f"a{i}" for i in range(1, family.m - 2)]
    return pair_product_cayley(table_h, table_k, [eta.image(g) for g in undecorated])
