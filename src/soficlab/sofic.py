"""Almost-multiplicative permutation actions of F_m x F_k and the tools
that measure how far they are from homomorphisms.

The main construction acts on G(p).  Undecorated left generators act by
left multiplication through their G(p) images and right generators by
inverse right multiplication, so on pairs of words without the letter t
the action is an exact homomorphism and all defect is carried by t.  The
letter t acts by the three-piece involution: translate the skew slab
T = S(p) x H(p) forward by a fixed element (a0, h0), translate the
disjoint shifted slab back, fix everything else.

The product-domain variant decorates every generator with an exact
projective permutation on a second factor K; that factor is a genuine
homomorphism in both coordinates, so it contributes zero defect while
making nontrivial elements move almost every point.

Also here: branched covers between permutation models (lifting along a
fiber map, extracting fiber cocycles) and induction of a model from a
finite-index subgroup through a Schreier coset system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import PSL2Element, psl2_order, psl2_table
from .f3vectors import (
    ApVector,
    a_shift_vector,
    coords_matrix,
    decode_indices,
    encode_coords,
    h_position_perm,
    shifted_index_map,
    sp_mask,
)
from .groups import (
    GpElement,
    HomFamily,
    ResourceBudgetError,
    build_hom_specs,
    hom_eval,
    lambda_gen_names,
    sigma_gen_names,
)
from .perms import (
    EXACT_DOMAIN_BUDGET,
    DHEstimate,
    ExactPerm,
    FlatDomain,
    ImplicitPerm,
    ProductPerm,
    d_hamming,
)
from .words import ProductWord, ReducedWord, random_reduced_word


# -- the G(p) domain and its permutations ---------------------------------

class GpPairDomain:
    """G(p) as index pairs (vector index, matrix index); used where the
    flat domain is too large to enumerate."""

    def __init__(self, p: int):
        self.p = p
        self.h_order = psl2_order(p)
        self.size = 3**p * self.h_order

    def sample(self, rng, n):
        a = rng.integers(0, 3**self.p, size=n, dtype=np.int64)
        h = rng.integers(0, self.h_order, size=n, dtype=np.int64)
        return (a, h)

    def points_equal(self, x, y):
        return (x[0] == y[0]) & (x[1] == y[1])

    def identity_perm(self):
        return ImplicitPerm(self, lambda pts: pts, lambda pts: pts)

    def __eq__(self, other):
        return isinstance(other, GpPairDomain) and self.p == other.p

    def __repr__(self):
        return f"GpPairDomain(p={self.p})"


class GpContext:
    """Builders for the permutations of G(p) that the model's generators
    induce.

    Each builder makes one batch map on index pairs (a_idx, h_idx) of any
    common broadcast shape.  Exact mode applies the map once to the grid
    of all pairs and keeps the result as a dense, validated ExactPerm on
    the flat index a_idx * |H| + h_idx; implicit mode keeps the map and
    its inverse as an ImplicitPerm on GpPairDomain.
    """

    def __init__(self, p: int, exact: bool):
        if 3**p > np.iinfo(np.int64).max:
            raise ResourceBudgetError(
                f"A({p}) has 3^{p} vectors, past the int64 index range"
            )
        self.p = p
        self.exact = exact
        self.table = psl2_table(p)
        self.h_order = len(self.table)
        if exact:
            if 3**p * self.h_order > EXACT_DOMAIN_BUDGET:
                raise ValueError(f"G({p}) is too large for exact mode")
            self.domain = FlatDomain(3**p * self.h_order)
            self.coords = coords_matrix(p)
            self.mask_s = sp_mask(self.coords)
            self.grid = (np.arange(3**p, dtype=np.int64)[:, None],
                         np.arange(self.h_order, dtype=np.int64)[None, :])
        else:
            self.domain = GpPairDomain(p)
        # row i: the position permutation of the i-th matrix
        self.positions = np.array(
            [h_position_perm(h) for h in self.table.elements], dtype=np.uint8
        )

    def _perm(self, forward, backward):
        if not self.exact:
            return ImplicitPerm(self.domain, forward, backward)
        a_idx, h_idx = forward(self.grid)
        return ExactPerm((a_idx * self.h_order + h_idx).ravel(), domain=self.domain)

    def left_mult(self, g: GpElement):
        """x -> g x."""
        return self._perm(self._left_fn(g), self._left_fn(g.inverse()))

    def _left_fn(self, g: GpElement):
        src = self.positions[self.table.index(g.h)]
        v = np.array(g.a.coords, dtype=np.uint8)
        h_row = self.table.left_mul_perm(g.h)

        def fn(pts):
            a_idx, h_idx = pts
            coords = decode_indices(a_idx, self.p)
            return (encode_coords((v + coords[..., src]) % 3), h_row[h_idx])

        return fn

    def right_mult_inv(self, g: GpElement):
        """x -> x g^(-1)."""
        return self._perm(self._right_fn(g.inverse()), self._right_fn(g))

    def _right_fn(self, g: GpElement):
        """x -> x g: (a, h) -> (a + h.w, h u) for g = (w, u)."""
        shifts = np.array(g.a.coords, dtype=np.uint8)[self.positions]
        h_col = self.table.right_mul_perm(g.h)

        def fn(pts):
            a_idx, h_idx = pts
            coords = decode_indices(a_idx, self.p)
            return (encode_coords((coords + shifts[h_idx]) % 3), h_col[h_idx])

        return fn

    def t_perm(self, a0: ApVector, h0: PSL2Element):
        """The slab involution: left-translate T by (a0, h0), translate the
        shifted slab back, fix the rest."""
        if (h0 * h0).is_identity():
            raise ValueError("the translating matrix part must not square to e")
        if self.exact:
            mask_shift = self.mask_s[shifted_index_map(self.coords, -a0)]
            if np.any(self.mask_s & mask_shift):
                raise ValueError("slab and shifted slab are not disjoint")
        a0v = np.array(a0.coords, dtype=np.uint8)
        neg_a0v = np.array((-a0).coords, dtype=np.uint8)
        src_f = self.positions[self.table.index(h0)]
        src_b = self.positions[self.table.index(h0.inverse())]
        row_f = self.table.left_mul_perm(h0)
        row_b = self.table.left_mul_perm(h0.inverse())

        def fn(pts):
            a_idx, h_idx = pts
            coords = decode_indices(a_idx, self.p)
            shifted_back = (coords + neg_a0v) % 3
            m_s = sp_mask(coords)
            m_back = sp_mask(shifted_back)
            fwd = encode_coords((a0v + coords[..., src_f]) % 3)
            back = encode_coords(shifted_back[..., src_b])
            new_a = np.where(m_s, fwd, np.where(m_back, back, a_idx))
            new_h = np.where(m_s, row_f[h_idx], np.where(m_back, row_b[h_idx], h_idx))
            return (new_a, new_h)

        # the slab map is an involution
        return self._perm(fn, fn)

    def slab_mask(self) -> np.ndarray:
        """Indicator of T = S(p) x H(p) on the flat index (exact mode)."""
        return np.repeat(self.mask_s, self.h_order)


# The benchmark's tracer wraps right_mult_inv through this name's class dict.
ExactGpContext = GpContext


# -- asymptotic homomorphisms ---------------------------------------------

def eval_word(images: dict, word: ReducedWord, domain, names=None):
    """The permutation of a word: the images of its letters (inverted for
    negative letters) composed in order, the identity for the empty word.
    With names given, a letter outside them raises a KeyError."""
    acc = None
    for g, s in word.letters:
        if names is not None and g not in names:
            raise KeyError(f"letter {g!r} is not in {names}")
        img = images[g] if s == 1 else images[g].inverse()
        acc = img if acc is None else acc.compose(img)
    return acc if acc is not None else domain.identity_perm()


@dataclass
class AsymptoticHom:
    """Generator images for F_m x F_k acting on a common domain.

    A pair of words evaluates as the left word map composed after the
    right word map; both factors are word maps of their generator images,
    so restricted to pairs without the letter t the evaluation is an exact
    homomorphism.
    """

    domain: object
    left_names: tuple
    right_names: tuple
    images: dict
    family: HomFamily = None
    mode: str = "exact"
    meta: dict = field(default_factory=dict)

    def image(self, name: str):
        return self.images[name]

    def eval(self, pw: ProductWord):
        left = eval_word(self.images, pw.left, self.domain, self.left_names)
        if pw.right.is_identity():
            return left
        right = eval_word(self.images, pw.right, self.domain, self.right_names)
        if pw.left.is_identity():
            return right
        return left.compose(right)


def build_sigma(p, m, k, family: HomFamily = None, mode: str = None) -> AsymptoticHom:
    """The G(p) model: left generators act by left multiplication, right
    generators by inverse right multiplication, t by the slab involution
    with a0 = (0,0,1,...,1) and h0 the image of [[1,1],[0,1]]."""
    if mode is None:
        mode = "exact" if 3**p * psl2_order(p) <= EXACT_DOMAIN_BUDGET else "implicit"
    ctx = GpContext(p, exact=(mode == "exact"))
    if family is None:
        family = build_hom_specs(p, m, k)
    a0 = a_shift_vector(p)
    h0 = PSL2Element(1, 1, 0, 1, p)
    images = {}
    phi, rho = family["phi"], family["rho"]
    for name in sigma_gen_names(m)[:-1]:
        images[name] = ctx.left_mult(phi.image(name))
    images["t"] = ctx.t_perm(a0, h0)
    for name in lambda_gen_names(k):
        images[name] = ctx.right_mult_inv(rho.image(name))
    return AsymptoticHom(
        domain=ctx.domain,
        left_names=sigma_gen_names(m),
        right_names=lambda_gen_names(k),
        images=images,
        family=family,
        mode=mode,
        meta={"a0": a0.coords, "h0": h0.entries(), "context": ctx},
    )


def build_tilde_sigma(p, m, k, family: HomFamily = None, mode: str = None) -> AsymptoticHom:
    """The product-domain model on G(p) x K: the first factor is the G(p)
    model, the second is exact in both coordinates (left translation by
    the K-images of left generators, inverse right translation by the
    zeta images of right generators), so the K factor never contributes
    defect."""
    if family is None:
        family = build_hom_specs(p, m, k)
    sigma = build_sigma(p, m, k, family=family, mode=mode)
    r_p = family.r_p
    kt = psl2_table(r_p)
    k_domain = FlatDomain(len(kt))
    psi, zeta = family["psi"], family["zeta"]
    images = {}
    for name in sigma.left_names:
        arr = kt.left_mul_perm(psi.image(name))
        images[name] = ProductPerm(
            sigma.images[name], ExactPerm(arr, domain=k_domain)
        )
    for name in sigma.right_names:
        arr = kt.right_mul_perm(zeta.image(name).inverse())
        images[name] = ProductPerm(
            sigma.images[name], ExactPerm(arr, domain=k_domain)
        )
    domain = images["t"].domain
    return AsymptoticHom(
        domain=domain,
        left_names=sigma.left_names,
        right_names=sigma.right_names,
        images=images,
        family=family,
        mode=sigma.mode,
        meta=dict(sigma.meta),
    )


def hom_defect(sigma: AsymptoticHom, u: ProductWord, v: ProductWord,
               mode="exact", samples=None, seed=None) -> DHEstimate:
    """d_H(sigma(u) o sigma(v), sigma(uv))."""
    lhs = sigma.eval(u).compose(sigma.eval(v))
    rhs = sigma.eval(u * v)
    return d_hamming(lhs, rhs, mode=mode, samples=samples, seed=seed)


# -- the four-condition report --------------------------------------------

def _lambda_words_bfs(k: int, max_len: int):
    """Reduced words over b1..bk in breadth-first order, identity skipped."""
    gens = lambda_gen_names(k)
    frontier = [ReducedWord()]
    for _ in range(max_len):
        new = []
        for w in frontier:
            for g in gens:
                for s in (1, -1):
                    w2 = w * ReducedWord.gen(g, s)
                    if len(w2) == len(w) + 1:
                        new.append(w2)
                        yield w2
        frontier = new


def four_condition_report(p, m, k, sigma: AsymptoticHom = None, word_search_len=8,
                       n_word_pairs=100, seed=7, exact_defect_cap=40,
                       threshold=Fraction(1, 243)) -> dict:
    """Exact four-condition report for an enumerable G(p) model.

    (1) zero defect on word pairs without t;
    (2) fixed-point fraction of the t image;
    (3) search for a right word whose commutator with t has large defect,
        scoring words by the exact slab displacement 2|T \\ T r(h)| / |G|
        (evaluated per slice: |T \\ T(w,u)| = |H| * |S \\ (S+w)|) and
        checking the exact defect against that lower bound on a sample;
    (4) the minimum over slice pairs of the displaced fraction of each
        A(p)-slice under the t image.
    """
    if sigma is None:
        sigma = build_sigma(p, m, k)
    if sigma.mode != "exact":
        raise ResourceBudgetError("the four-condition report needs the exact mode")
    ctx: GpContext = sigma.meta["context"]
    family = sigma.family
    import random as _random

    rng = _random.Random(seed)
    report = {"p": p, "seed": seed}

    # (1): exact homomorphism away from t
    left_names = [n for n in sigma.left_names if n != "t"]
    worst = Fraction(0)
    for _ in range(n_word_pairs):
        u = ProductWord(
            random_reduced_word(rng, left_names, rng.randint(0, 4)),
            random_reduced_word(rng, list(sigma.right_names), rng.randint(0, 4)),
        )
        v = ProductWord(
            random_reduced_word(rng, left_names, rng.randint(0, 4)),
            random_reduced_word(rng, list(sigma.right_names), rng.randint(0, 4)),
        )
        worst = max(worst, hom_defect(sigma, u, v).value)
    report["cond1_defect_max"] = worst
    report["cond1_pairs"] = n_word_pairs

    # (2): fixed fraction of the t image
    t_image: ExactPerm = sigma.images["t"]
    report["cond2_fixed_fraction"] = t_image.fixed_fraction()

    # (3): word search using the exact displacement lower bound
    rho = family["rho"]
    mask_s = ctx.mask_s
    n_a = len(mask_s)
    t_arr = t_image

    def lower_bound(word):
        g = hom_eval(rho, word)
        minus_w = -g.a
        in_shift = mask_s[shifted_index_map(ctx.coords, minus_w)]
        moved = int(np.count_nonzero(mask_s & ~in_shift))
        return Fraction(2 * moved, n_a), g

    def exact_commutator_defect(g):
        right = ctx.right_mult_inv(g)
        lhs = t_arr.compose(right)
        rhs = right.compose(t_arr)
        return d_hamming(lhs, rhs).value

    best = (Fraction(0), None)
    tested = []
    witness = None
    searched = 0
    for word in _lambda_words_bfs(k, word_search_len):
        searched += 1
        lb, g = lower_bound(word)
        if lb > best[0]:
            best = (lb, word)
        if len(tested) < exact_defect_cap or (lb >= threshold and witness is None):
            defect = exact_commutator_defect(g)
            tested.append(
                {"word": repr(word), "lower_bound": lb, "defect": defect,
                 "respects_bound": defect >= lb}
            )
            if lb >= threshold and witness is None and defect >= threshold:
                witness = tested[-1]
        if witness is not None and searched >= exact_defect_cap:
            break
        if searched > 20000:
            break
    report["cond3_max_lower_bound"] = best[0]
    report["cond3_best_word"] = repr(best[1])
    report["cond3_witness"] = witness
    report["cond3_tested"] = tested
    report["cond3_words_searched"] = searched

    # (4): slice displacement matrix of the t image
    h_order = ctx.h_order
    idx = np.arange(ctx.domain.size, dtype=np.int64)
    overlap = np.zeros((h_order, h_order), dtype=np.int64)
    np.add.at(overlap, (idx % h_order, t_arr.images % h_order), 1)
    min_displaced = Fraction(2 * n_a - 2 * int(overlap.max()), n_a)
    report["cond4_min_displacement"] = min_displaced
    return report


def slab_right_translate_count(ctx: GpContext, g: GpElement) -> int:
    """Brute-force |T \\ T g| over the flat domain; the slicewise identity
    |T \\ T(w,u)| = |H| * |S \\ (S+w)| is unit-tested against this."""
    mask_t = ctx.slab_mask()
    right = ctx.right_mult_inv(g)  # x -> x g^(-1)
    mask_tg = mask_t[right.images]  # x in Tg  <=>  x g^(-1) in T
    return int(np.count_nonzero(mask_t & ~mask_tg))


# -- branched covers -------------------------------------------------------

@dataclass
class BranchedCover:
    """A fiber map theta: X -> Y that is onto and d-to-one."""

    theta: np.ndarray
    n_base: int
    fiber_size: int
    fibers: np.ndarray  # (n_base, d), rows ascending
    fiber_rank: np.ndarray  # position of each x within its fiber

    @staticmethod
    def build(theta) -> "BranchedCover":
        theta = np.asarray(theta, dtype=np.int64)
        n = len(theta)
        n_base = int(theta.max()) + 1 if n else 0
        counts = np.bincount(theta, minlength=n_base)
        if n_base == 0 or np.any(counts == 0):
            raise ValueError("fiber map is not onto its base")
        if np.any(counts != counts[0]):
            raise ValueError("fiber map is not constant-to-one")
        d = int(counts[0])
        order = np.lexsort((np.arange(n), theta))
        fibers = order.reshape(n_base, d)
        rank = np.empty(n, dtype=np.int64)
        rank[fibers.ravel()] = np.tile(np.arange(d), n_base)
        return BranchedCover(theta, n_base, d, fibers, rank)


def random_cover(rng, n_base: int, d: int) -> BranchedCover:
    theta = np.repeat(np.arange(n_base, dtype=np.int64), d)
    rng.shuffle(theta)
    return BranchedCover.build(theta)


def lift_branched_cover(sigma: ExactPerm, tau: ExactPerm, cover: BranchedCover) -> ExactPerm:
    """A permutation sigma' with theta o sigma' = tau o theta exactly and
    d_H(sigma', sigma) <= d_H(theta o sigma, tau o theta).

    Within each fiber pair, points already mapped compatibly keep their
    sigma image; the rest are completed to a bijection by matching the
    remaining sources and targets in increasing index order.
    """
    theta = cover.theta
    if len(theta) != sigma.size:
        raise ValueError("cover and permutation domain sizes differ")
    if tau.size != cover.n_base:
        raise ValueError("base permutation does not act on the base")
    sp = sigma.images
    ok = theta[sp] == tau.images[theta]
    out = np.where(ok, sp, -1)
    for y in range(cover.n_base):
        src = cover.fibers[y]
        good = ok[src]
        if np.all(good):
            continue
        dst = cover.fibers[tau.images[y]]
        used = np.isin(dst, sp[src[good]], assume_unique=True)
        out[src[~good]] = dst[~used]
    return ExactPerm(out, domain=sigma.domain)


def extract_almost_cocycle(sigma_map: dict, tau_map: dict, cover: BranchedCover,
                           pairs=()) -> dict:
    """Fiber permutations c(g, y) for each labeled permutation, plus the
    fraction of base points violating the cocycle identity for each
    labeled triple (g, h, gh).

    Every sigma_map entry must intertwine exactly with its tau_map entry
    through the cover (lift first if it does not).
    """
    theta, fibers, rank = cover.theta, cover.fibers, cover.fiber_rank
    c = {}
    for name, perm in sigma_map.items():
        tau = tau_map[name]
        if not np.array_equal(theta[perm.images], tau.images[theta]):
            raise ValueError(f"{name!r} does not commute with the cover exactly")
        c[name] = rank[perm.images[fibers]]
    defects = {}
    for (g, h, gh) in pairs:
        tau_h = tau_map[h].images
        composed = c[g][tau_h][np.arange(cover.n_base)[:, None], c[h]]
        bad = np.any(c[gh] != composed, axis=1)
        defects[(g, h, gh)] = Fraction(int(np.count_nonzero(bad)), cover.n_base)
    return {"c": c, "cocycle_defect": defects}


def cocycle_reconstruct(c_g: np.ndarray, tau_g: ExactPerm, cover: BranchedCover) -> ExactPerm:
    """The permutation (y, z) -> (tau_g y, c_g(y) z), on the cover's domain."""
    images = np.empty(len(cover.theta), dtype=np.int64)
    src = cover.fibers
    dst = cover.fibers[tau_g.images]
    for y in range(cover.n_base):
        images[src[y]] = dst[y][c_g[y]]
    return ExactPerm(images)


# -- induction through a coset system --------------------------------------

class WordMap:
    """A free-group homomorphism into a symmetric group: images of free
    generators, evaluated along words."""

    def __init__(self, images: dict):
        self.images = dict(images)
        first = next(iter(self.images.values()))
        self.domain = first.domain

    def eval(self, word: ReducedWord):
        return eval_word(self.images, word, self.domain)


class SchreierSystem:
    """Coset section and rewriting data for a transitive action of free
    generators on cosets 0..n-1 with 0 the subgroup itself.

    The section comes from a breadth-first spanning tree, so it is
    prefix-closed and sends the trivial coset to the empty word.  Each
    non-tree pair (generator, coset) is a free generator of the subgroup;
    cocycle values rewrite into exactly these letters.
    """

    def __init__(self, gen_perms: dict, section=None):
        self.gen_perms = {g: np.asarray(pm, dtype=np.int64) for g, pm in gen_perms.items()}
        self.n = len(next(iter(self.gen_perms.values())))
        for g, pm in self.gen_perms.items():
            if sorted(pm.tolist()) != list(range(self.n)):
                raise ValueError(f"action of {g!r} is not a permutation")
        self.inv_perms = {g: np.argsort(pm) for g, pm in self.gen_perms.items()}
        self._build_tree()
        if section is not None:
            self._validate_section(section)
            self.section = list(section)
        # a pair (g, i) rewrites to nothing exactly when its cocycle value
        # is freely trivial; everything else is a free generator
        self.trivial_pairs = set()
        for g in self.gen_perms:
            for i in range(self.n):
                word = self.cocycle_in_ambient(ReducedWord.gen(g), i)
                if word.is_identity():
                    self.trivial_pairs.add((g, i))

    def _build_tree(self):
        self.section = [None] * self.n
        self.section[0] = ReducedWord()
        queue = [0]
        while queue:
            j = queue.pop(0)
            for g, pm in self.gen_perms.items():
                for s, action in ((1, pm), (-1, self.inv_perms[g])):
                    i = int(action[j])
                    if self.section[i] is None:
                        self.section[i] = ReducedWord.gen(g, s) * self.section[j]
                        queue.append(i)
        if any(w is None for w in self.section):
            raise ValueError("coset action is not transitive")

    def _validate_section(self, section):
        if len(section) != self.n:
            raise ValueError("invalid section: wrong length")
        if not section[0].is_identity():
            raise ValueError("invalid section: trivial coset must map to e")
        for i, w in enumerate(section):
            if self.act(w, 0) != i:
                raise ValueError(f"invalid section: word for coset {i} lands elsewhere")
            if w.letters and ReducedWord(w.letters[1:]) not in section:
                raise ValueError("invalid section: not prefix-closed")

    def act(self, word: ReducedWord, i: int) -> int:
        for g, s in reversed(word.letters):
            i = int(self.gen_perms[g][i]) if s == 1 else int(self.inv_perms[g][i])
        return i

    def schreier_generators(self):
        """Names of the free generators of the subgroup: the nontrivial pairs."""
        out = []
        for g in sorted(self.gen_perms):
            for i in range(self.n):
                if (g, i) not in self.trivial_pairs:
                    out.append(self._letter_name(g, i))
        return out

    @staticmethod
    def _letter_name(g, i):
        return f"{g}|{i}"

    def cocycle(self, word: ReducedWord, i: int) -> ReducedWord:
        """c(word, i) = s(word . i)^(-1) word s(i), rewritten over the
        subgroup's free generators."""
        j = i
        out = []
        for g, s in reversed(word.letters):
            if s == 1:
                if (g, j) not in self.trivial_pairs:
                    out.append((self._letter_name(g, j), 1))
                j = int(self.gen_perms[g][j])
            else:
                j2 = int(self.inv_perms[g][j])
                if (g, j2) not in self.trivial_pairs:
                    out.append((self._letter_name(g, j2), -1))
                j = j2
        return ReducedWord(tuple(reversed(out)))

    def cocycle_in_ambient(self, word: ReducedWord, i: int) -> ReducedWord:
        """The same cocycle value as a word in the ambient generators."""
        j = self.act(word, i)
        return self.section[j].inverse() * word * self.section[i]


class InducedHom:
    """The induced model on cosets x fiber: a word sends (i, x) to
    (word . i, sigma(c(word, i)) x)."""

    def __init__(self, schreier: SchreierSystem, sigma0: WordMap):
        self.schreier = schreier
        self.sigma0 = sigma0
        self.fiber_size = sigma0.domain.size
        self.domain = FlatDomain(schreier.n * self.fiber_size)

    def eval(self, word: ReducedWord) -> ExactPerm:
        n, x = self.schreier.n, self.fiber_size
        images = np.empty(n * x, dtype=np.int64)
        base = np.arange(x, dtype=np.int64)
        for i in range(n):
            target = self.schreier.act(word, i)
            inner = self.sigma0.eval(self.schreier.cocycle(word, i))
            images[i * x : (i + 1) * x] = target * x + inner.apply(base)
        return ExactPerm(images, domain=self.domain)

    def restriction_to_trivial_coset(self, word: ReducedWord) -> ExactPerm:
        """For subgroup words (those fixing coset 0): the induced action on
        the 0-block, which must equal sigma on the rewritten word."""
        if self.schreier.act(word, 0) != 0:
            raise ValueError("word does not lie in the subgroup")
        big = self.eval(word)
        block = big.images[: self.fiber_size]
        return ExactPerm(block, domain=self.sigma0.domain)


def induce_approximation(gen_perms: dict, sigma0_images: dict, section=None) -> InducedHom:
    """Induce a model of the ambient free group from one of a finite-index
    subgroup presented through a transitive coset action.

    sigma0_images maps each Schreier generator name (see
    SchreierSystem.schreier_generators) to a permutation; missing names
    raise a KeyError naming the unrewritable value.
    """
    schreier = SchreierSystem(gen_perms, section=section)
    needed = set(schreier.schreier_generators())
    missing = needed - set(sigma0_images)
    if missing:
        raise KeyError(f"no images for subgroup generators: {sorted(missing)}")
    return InducedHom(schreier, WordMap(sigma0_images))
