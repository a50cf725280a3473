"""Almost-multiplicative permutation actions of F_m x F_k and the tools
that measure how far they are from homomorphisms.

The main construction acts on G(p).  Undecorated left generators act by
left multiplication through their G(p) images and right generators by
inverse right multiplication, so on pairs of words without the letter t
the action is an exact homomorphism and all defect is carried by t.  The
letter t acts by the three-piece involution: translate the skew slab
T = S(p) x H(p) forward by a fixed element (a0, h0), translate the
disjoint shifted slab back, fix everything else.

The product model on G(p) x K decorates every generator with an exact
permutation of a second factor K = PSL2(F_r).  It acts coordinatewise, so
it is the pair of its two factor models, and it is built and read that
way: the K model (build_tilde_sigma) is a genuine homomorphism in both
coordinates, and a value of the product is the product of the factors'
values (a fixed fraction f_G * f_K, a distance 1 - (1 - d_G)(1 - d_K)).
So K contributes zero defect while making nontrivial elements move
almost every point.

Also here: branched covers between permutation models (lifting along a
fiber map, extracting fiber cocycles) and induction of a model from a
finite-index subgroup through a Schreier coset system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .algebra import PSL2Element, psl2_order, psl2_table
from .f3vectors import (
    ApVector,
    a_shift_vector,
    act_rows,
    decode_indices,
    empty_points,
    encode_coords,
    f3_add,
    h_position_perm,
    permutation_tables,
    permute_coords,
    put_points,
    shift_overlap_counts,
    sp_mask,
    sp_shift_diff_exact,
    take_points,
    vector_points,
    vectors_equal,
)
from .groups import (
    GenerationCheckError,
    GpElement,
    HomFamily,
    HomSpec,
    ResourceBudgetError,
    hom_eval,
    lambda_gen_names,
    sigma_gen_names,
)
from .perms import (
    EXACT_DOMAIN_BUDGET,
    SAMPLE_BLOCK,
    DHEstimate,
    ExactPerm,
    FlatDomain,
    ImplicitPerm,
    commutator_defects,
    d_hamming,
    materialize,
)
from .words import ProductWord, ReducedWord, evaluate


# -- the G(p) domain and its permutations ---------------------------------

DECODE_BLOCK = 1 << 14


def _built_on_first_call(make):
    """make()'s batch map, built when it is first applied: exact models
    never apply their images' inverses, so they never build them."""
    build = cache(make)
    return lambda pts: build()(pts)


class GpContext:
    """G(p) as the domain of the model's permutations, with builders for
    the permutations its generators induce.

    A batch of points is a pair (vectors, h_idx): a (..., 2) uint64 array
    of A(p) vectors as bit-planes (see f3vectors) and an int64 array of
    PSL2 indices whose leading shapes broadcast together; the flat index of
    a pair is a_idx * |H| + h_idx.  Each builder makes one batch map:
    fixed coordinate permutations run as byte tables, shifts as bit-plane
    sums mod 3, and S(p) tests as popcounts.  A left map reads its
    coordinate permutation from h_position_perm of its one matrix, and a
    right map's shifts h.w, one per matrix h, move only supp(w)
    (f3vectors.act_rows), so no table of every matrix's positions is
    built.  Every builder returns the map and its inverse as an
    ImplicitPerm on this domain; an exact model is these maps enumerated
    once by perms.materialize.
    """

    def __init__(self, p: int):
        if 3**p > np.iinfo(np.int64).max:
            raise ResourceBudgetError(
                f"A({p}) has 3^{p} vectors, past the int64 index range"
            )
        self.p = p
        self.table = psl2_table(p)
        self.h_order = psl2_order(p)
        self.size = 3**p * self.h_order

    def sample(self, rng, n):
        a = rng.integers(0, 3**self.p, size=n, dtype=np.int64)
        h = rng.integers(0, self.h_order, size=n, dtype=np.int64)
        # decoded in blocks, so that the decoder's temporaries stay in cache
        points = empty_points((n,))
        for start in range(0, n, DECODE_BLOCK):
            rows = slice(start, start + DECODE_BLOCK)
            points[rows] = decode_indices(a[rows], self.p)
        return (points, h)

    def index(self, points):
        """The flat indices of a batch of points."""
        vectors, h_idx = points
        return encode_coords(vectors, self.p) * self.h_order + h_idx

    def blocks(self):
        """(flat rows, points) covering the domain in flat-index order: blocks
        of vectors, each broadcast against all matrices."""
        h_idx = np.arange(self.h_order, dtype=np.int64)[None, :]
        n_a = 3**self.p
        step = max(1, SAMPLE_BLOCK // self.h_order)
        for start in range(0, n_a, step):
            stop = min(start + step, n_a)
            vectors = decode_indices(np.arange(start, stop, dtype=np.int64), self.p)
            yield slice(start * self.h_order, stop * self.h_order), (vectors[:, None], h_idx)

    def points_equal(self, x, y):
        return vectors_equal(x[0], y[0]) & (x[1] == y[1])

    def identity_perm(self):
        return ImplicitPerm(self, lambda pts: pts, lambda pts: pts)

    def __eq__(self, other):
        return isinstance(other, GpContext) and self.p == other.p

    def __repr__(self):
        return f"GpContext(p={self.p})"

    def left_mult(self, g: GpElement):
        """x -> g x."""
        return ImplicitPerm(self, self._left_fn(g),
                            _built_on_first_call(lambda: self._left_fn(g.inverse())))

    def _left_fn(self, g: GpElement):
        tables = permutation_tables(h_position_perm(g.h))
        v = vector_points(g.a)
        h_row = self.table.left_mul_perm(g.h)

        def fn(pts):
            points, h_idx = pts
            return (f3_add(permute_coords(points, tables), v), h_row[h_idx])

        return fn

    def right_mult_inv(self, g: GpElement):
        """x -> x g^(-1)."""
        return ImplicitPerm(self, self._right_fn(g.inverse()),
                            _built_on_first_call(lambda: self._right_fn(g)))

    def _right_fn(self, g: GpElement):
        """x -> x g: (a, h) -> (a + h.w, h u) for g = (w, u)."""
        shifts = act_rows(self.table.entries, g.a)  # row h: h.w
        h_col = self.table.right_mul_perm(g.h)

        def fn(pts):
            points, h_idx = pts
            return (f3_add(points, take_points(shifts, h_idx)), h_col[h_idx])

        return fn

    def t_perm(self, a0: ApVector, h0: PSL2Element):
        """The slab involution for g0 = (a0, h0): x -> g0 x on T, x -> g0^-1 x
        on the shifted slab g0 T = (S + a0) x H, fixing the rest."""
        if (h0 * h0).is_identity():
            raise GenerationCheckError("the translating matrix part must not square to e")
        p = self.p
        if shift_overlap_counts(a0)["both"]:
            raise GenerationCheckError("slab and shifted slab are not disjoint")
        g0 = GpElement(a0, h0)
        forward, back = self._left_fn(g0), self._left_fn(g0.inverse())
        neg_a0v = vector_points(-a0)

        def fn(pts):
            points, h_idx = pts
            shape = np.broadcast_shapes(points.shape[:-1], np.shape(h_idx))
            # S and S + a0 are disjoint, so the two writes never overlap
            in_s = np.nonzero(np.broadcast_to(sp_mask(points, p), shape))
            in_shift = np.nonzero(np.broadcast_to(sp_mask(f3_add(points, neg_a0v), p),
                                                  shape))
            points = np.broadcast_to(points, shape + (2,))
            new_pts, new_h = empty_points(shape), np.array(np.broadcast_to(h_idx, shape))
            new_pts[...] = points
            for rows, translate in ((in_s, forward), (in_shift, back)):
                moved, moved_h = translate((take_points(points, rows), new_h[rows]))
                put_points(new_pts, rows, moved)
                new_h[rows] = moved_h
            return (new_pts, new_h)

        # the slab map is an involution
        return ImplicitPerm(self, fn, fn)


# The benchmark's tracer wraps right_mult_inv through this name's class dict.
ExactGpContext = GpContext


# -- asymptotic homomorphisms ---------------------------------------------

@dataclass
class AsymptoticHom:
    """Generator images for F_m x F_k acting on a common domain.

    A pair of words evaluates as the left word map composed after the
    right word map; both factors are word maps of their generator images,
    so restricted to pairs without the letter t the evaluation is an exact
    homomorphism.
    """

    domain: object
    images: dict
    family: HomFamily
    mode: str

    @property
    def left_names(self):
        return sigma_gen_names(self.family.m)

    @property
    def right_names(self):
        return lambda_gen_names(self.family.k)

    def eval(self, pw: ProductWord, then: ProductWord = None):
        """sigma(pw), or sigma(pw) o sigma(then), as one chain of letter
        images from left to right, so that every composition gathers
        through a generator image and never through a composed word."""
        left = {name: self.images[name] for name in self.left_names}
        right = {name: self.images[name] for name in self.right_names}
        acc = None
        for pair in (pw,) if then is None else (pw, then):
            acc = evaluate(pair.right, right.__getitem__,
                           evaluate(pair.left, left.__getitem__, acc))
        return acc if acc is not None else self.domain.identity_perm()

    def apply(self, pw: ProductWord, points):
        """sigma(pw) at a batch of points: the letter images act from the
        right end of the pair (right word first), apply for positive letters
        and apply_inverse for negative ones, so no word image is built."""
        for g, s in reversed(pw.left.letters + pw.right.letters):
            image = self.images[g]
            points = image.apply(points) if s == 1 else image.apply_inverse(points)
        return points


def build_sigma(family: HomFamily) -> AsymptoticHom:
    """The G(p) model of the family's level and ranks: left generators act
    by left multiplication, right generators by inverse right
    multiplication, t by the slab involution with a0 = (0,0,1,...,1) and
    h0 the image of [[1,1],[0,1]].  The model is exact (enumerated) when
    G(p) has at most EXACT_DOMAIN_BUDGET points and implicit otherwise."""
    p = family.p
    ctx = GpContext(p)
    images = {}
    phi, rho = family["phi"], family["rho"]
    for name in sigma_gen_names(family.m)[:-1]:
        images[name] = ctx.left_mult(phi.image(name))
    images["t"] = ctx.t_perm(a_shift_vector(p), PSL2Element(1, 1, 0, 1, p))
    for name in lambda_gen_names(family.k):
        images[name] = ctx.right_mult_inv(rho.image(name))
    mode = "exact" if ctx.size <= EXACT_DOMAIN_BUDGET else "implicit"
    if mode == "exact":
        images = {name: materialize(perm) for name, perm in images.items()}
    return AsymptoticHom(domain=images["t"].domain, images=images, family=family,
                         mode=mode)


def build_tilde_sigma(family: HomFamily) -> AsymptoticHom:
    """The K factor of the product model on G(p) x K, with K = PSL2(F_r):
    an exact homomorphism on the |K| points of K, where left generators act
    by left translation by their psi images and right generators by
    inverse right translation by their zeta images, so it never
    contributes defect."""
    kt = psl2_table(family.r_p)
    psi, zeta = family["psi"], family["zeta"]
    images = {}
    for name in sigma_gen_names(family.m):
        images[name] = ExactPerm(kt.left_mul_perm(psi.image(name)))
    for name in lambda_gen_names(family.k):
        images[name] = ExactPerm(kt.right_mul_perm(zeta.image(name).inverse()))
    return AsymptoticHom(domain=FlatDomain(len(kt)), images=images, family=family,
                         mode="exact")


def hom_defect(sigma: AsymptoticHom, u: ProductWord, v: ProductWord,
               samples=None, seed=None) -> DHEstimate:
    """d_H(sigma(u) o sigma(v), sigma(uv)): exact, or estimated from the
    given number of seeded samples."""
    lhs = sigma.eval(u, then=v)
    rhs = sigma.eval(u * v)
    mode = "exact" if samples is None else "sampled"
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


# The condition-3 word search stops after this many words; the report
# says whether it did.
WORD_SEARCH_CAP = 20_000
# The search runs over right words of at most this length, and computes
# the exact commutator defect of at least this many of them.
WORD_SEARCH_LEN = 8
EXACT_DEFECT_CAP = 40
# The defect a commutator witness and the slice displacement must reach.
DEFECT_THRESHOLD = Fraction(1, 243)


def four_condition_report(sigma: AsymptoticHom) -> dict:
    """Exact four-condition report for an enumerable G(p) model.

    (1) zero defect on word pairs without t: each side is a chain of
        letter images with exact inverses, so this holds on every such
        pair exactly when each t-free left letter's image commutes with
        each right letter's image; the maximum commutator defect over
        these generator pairs is reported;
    (2) fixed-point fraction of the t image;
    (3) search for a right word whose commutator with t has large defect,
        scoring words by the exact slab displacement 2|T \\ T r(h)| / |G|
        (per slice |T \\ T(w,u)| = |H| * |S \\ (S+w)|, by sp_shift_diff_exact)
        and checking the exact defect against that lower bound on a sample;
        the search covers at most WORD_SEARCH_CAP words.  The exact defect
        is read on supp(t) alone (perms.commutator_defects): t o r and
        r o t agree off supp(t) and r^-1(supp(t)), so
        d_H = (#{x in supp(t) : t(r(x)) != r(t(x))}
               + |supp(t)| - #{x in supp(t) : r(x) in supp(t)}) / |G|,
        with r applied letter by letter to supp(t) and t(supp(t));
    (4) the minimum over slice pairs of the displaced fraction of each
        A(p)-slice under the t image.
    """
    if sigma.mode != "exact":
        raise ResourceBudgetError("the four-condition report needs the exact mode")
    family = sigma.family
    p = family.p
    report = {"p": p}

    # (1): exact homomorphism away from t
    left = [sigma.images[n] for n in sigma.left_names if n != "t"]
    right = [sigma.images[n] for n in sigma.right_names]
    report["cond1_defect_max"] = max(d_hamming(a * b, b * a).value
                                     for a in left for b in right)
    report["cond1_pairs"] = len(left) * len(right)

    # (2): fixed fraction of the t image
    t_image: ExactPerm = sigma.images["t"]
    report["cond2_fixed_fraction"] = t_image.fixed_fraction()

    # (3): word search using the exact displacement lower bound
    rho = family["rho"]
    n_a = 3**p

    def lower_bound(word):
        return Fraction(sp_shift_diff_exact(hom_eval(rho, word).a), n_a)

    defect_against_t = commutator_defects(t_image)

    def exact_commutator_defect(word):
        w = ProductWord(right=word)
        return defect_against_t(lambda pts: sigma.apply(w, pts))

    best = (Fraction(0), None)
    tested = []
    witness = None
    searched = 0
    cap_reached = False
    for word in _lambda_words_bfs(family.k, WORD_SEARCH_LEN):
        searched += 1
        lb = lower_bound(word)
        if lb > best[0]:
            best = (lb, word)
        if len(tested) < EXACT_DEFECT_CAP or (lb >= DEFECT_THRESHOLD and witness is None):
            defect = exact_commutator_defect(word)
            tested.append(
                {"word": repr(word), "lower_bound": lb, "defect": defect,
                 "respects_bound": defect >= lb}
            )
            if lb >= DEFECT_THRESHOLD and witness is None and defect >= DEFECT_THRESHOLD:
                witness = tested[-1]
        if witness is not None and searched >= EXACT_DEFECT_CAP:
            break
        if searched >= WORD_SEARCH_CAP:
            cap_reached = True
            break
    report["cond3_max_lower_bound"] = best[0]
    report["cond3_best_word"] = repr(best[1])
    report["cond3_witness"] = witness
    report["cond3_tested"] = tested
    report["cond3_words_searched"] = searched
    report["cond3_word_cap"] = WORD_SEARCH_CAP
    report["cond3_cap_reached"] = cap_reached

    # (4): slice displacement matrix of the t image
    h_order = psl2_order(p)
    idx = np.arange(sigma.domain.size, dtype=np.int64)
    overlap = np.zeros((h_order, h_order), dtype=np.int64)
    np.add.at(overlap, (idx % h_order, t_image.images % h_order), 1)
    min_displaced = Fraction(2 * n_a - 2 * int(overlap.max()), n_a)
    report["cond4_min_displacement"] = min_displaced
    return report


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

    Points already mapped compatibly keep their sigma image.  Each fiber
    pair has as many incompatible sources as unhit targets, so one pass
    reads both from the ascending fiber rows in row-major order and
    matches them pair for pair, in increasing index order.
    """
    theta = cover.theta
    if len(theta) != sigma.size:
        raise ValueError("cover and permutation domain sizes differ")
    if tau.size != cover.n_base:
        raise ValueError("base permutation does not act on the base")
    sp = sigma.images
    ok = theta[sp] == tau.images[theta]
    out = np.where(ok, sp, -1)
    used = np.zeros(len(theta), dtype=bool)
    used[sp[ok]] = True
    dst = cover.fibers[tau.images]
    out[cover.fibers[~ok[cover.fibers]]] = dst[~used[dst]]
    return ExactPerm(out)


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
    images[cover.fibers] = np.take_along_axis(cover.fibers[tau_g.images], c_g, axis=1)
    return ExactPerm(images)


# -- induction through a coset system --------------------------------------

class SchreierSystem:
    """Coset section and rewriting data for a transitive action of free
    generators on cosets 0..n-1 with 0 the subgroup itself.

    The section comes from a breadth-first spanning tree, so it is
    prefix-closed and sends the trivial coset to the empty word.  Each
    non-tree pair (generator, coset) is a free generator of the subgroup;
    cocycle values rewrite into exactly these letters.
    """

    def __init__(self, gen_perms: dict):
        self.gen_perms = {g: np.asarray(pm, dtype=np.int64) for g, pm in gen_perms.items()}
        self.n = len(next(iter(self.gen_perms.values())))
        for g, pm in self.gen_perms.items():
            if sorted(pm.tolist()) != list(range(self.n)):
                raise ValueError(f"action of {g!r} is not a permutation")
        self.inv_perms = {g: np.argsort(pm) for g, pm in self.gen_perms.items()}
        self._build_tree()
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

    def __init__(self, schreier: SchreierSystem, sigma0: HomSpec):
        self.schreier = schreier
        self.sigma0 = sigma0
        self.fiber_size = sigma0.images[0].size
        self.domain = FlatDomain(schreier.n * self.fiber_size)

    def eval(self, word: ReducedWord) -> ExactPerm:
        n, x = self.schreier.n, self.fiber_size
        images = np.empty(n * x, dtype=np.int64)
        base = np.arange(x, dtype=np.int64)
        for i in range(n):
            target = self.schreier.act(word, i)
            cocycle = self.schreier.cocycle(word, i)
            inner = hom_eval(self.sigma0, cocycle).apply(base) if len(cocycle) else base
            images[i * x : (i + 1) * x] = target * x + inner
        return ExactPerm(images)

    def restriction_to_trivial_coset(self, word: ReducedWord) -> ExactPerm:
        """For subgroup words (those fixing coset 0): the induced action on
        the 0-block, which must equal sigma on the rewritten word."""
        if self.schreier.act(word, 0) != 0:
            raise ValueError("word does not lie in the subgroup")
        big = self.eval(word)
        block = big.images[: self.fiber_size]
        return ExactPerm(block)


def induce_approximation(gen_perms: dict, sigma0_images: dict) -> InducedHom:
    """Induce a model of the ambient free group from one of a finite-index
    subgroup presented through a transitive coset action.

    sigma0_images maps each Schreier generator name (see
    SchreierSystem.schreier_generators) to a permutation; missing names
    raise a KeyError naming the unrewritable value.
    """
    schreier = SchreierSystem(gen_perms)
    needed = set(schreier.schreier_generators())
    missing = needed - set(sigma0_images)
    if missing:
        raise KeyError(f"no images for subgroup generators: {sorted(missing)}")
    images = tuple(sigma0_images.values())
    sigma0 = HomSpec("sigma0", tuple(sigma0_images), images, f"Sym({images[0].size})")
    return InducedHom(schreier, sigma0)
