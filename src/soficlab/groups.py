"""Finite semidirect-product groups and the homomorphisms onto them.

The central objects are G(p) = A(p) x| PSL2(F_p) (the 1-count-skew group
acting on the zero-sum vectors) and its product with a second projective
group over the next prime.  Free groups map onto these through a fixed
free family in PSL2(Z): with A = [[1,2],[0,1]] and B = [[1,0],[2,1]] the
conjugates w_i = B^i A B^-i are a free family, and every homomorphism
built here assigns generators images derived from reductions of the w_i
modulo p and r(p), decorated with zero-sum vectors on a few generators.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    PSL2Element,
    mat_inv_det1,
    mat_mul,
    mat_pow,
    next_prime,
    psl2_order,
    psl2_table,
    reduce_word_mod,
)
from .f3vectors import (
    ApVector,
    ap_index,
    ap_unindex,
    h_act,
    invariant_closure_dim,
    v1_vector,
    v2_vector,
    v_vector,
)
from .words import ReducedWord

SANOV_A = ((1, 2), (0, 1))
SANOV_B = ((1, 0), (2, 1))


class GenerationCheckError(ValueError):
    """A construction hypothesis failed; the message names the check."""


class ResourceBudgetError(RuntimeError):
    """A computation was refused for its size: a closure's ambient group
    exceeded its configured element budget, or a G(p) needs vector
    indices past the int64 range (3^p > 2^63 - 1: every admissible p
    from 43 on)."""


def free_family_matrix(i: int):
    """The i-th member (i >= 1) of the free family B^i A B^-i in SL2(Z)."""
    bi = mat_pow(SANOV_B, i)
    return mat_mul(mat_mul(bi, SANOV_A), mat_inv_det1(bi))


class GpElement:
    """Element (a, h) of A(p) x| PSL2(F_p) with the product
    (a, h)(a', h') = (a + h.a', hh')."""

    __slots__ = ("a", "h")

    def __init__(self, a: ApVector, h: PSL2Element):
        if a.p != h.q:
            raise ValueError("parameter mismatch between vector and matrix parts")
        self.a = a
        self.h = h

    @property
    def p(self):
        return self.h.q

    @staticmethod
    def identity(p: int) -> "GpElement":
        return GpElement(ApVector.zero(p), PSL2Element.identity(p))

    def __mul__(self, other: "GpElement") -> "GpElement":
        if self.p != other.p:
            raise ValueError("parameter mismatch")
        return GpElement(self.a + h_act(self.h, other.a), self.h * other.h)

    def inverse(self) -> "GpElement":
        hinv = self.h.inverse()
        return GpElement(-h_act(hinv, self.a), hinv)

    def is_identity(self) -> bool:
        return self.a.is_zero() and self.h.is_identity()

    def __eq__(self, other):
        return isinstance(other, GpElement) and self.a == other.a and self.h == other.h

    def __hash__(self):
        return hash((self.a, self.h))

    def __repr__(self):
        return f"Gp({self.a!r}, {self.h!r})"


def gp_mul(x: GpElement, y: GpElement) -> GpElement:
    return x * y


class PairElement:
    """Element of a direct product, multiplied componentwise.  Used both
    for G(p) x K(p) and for PSL2(F_p) x PSL2(F_r)."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def __mul__(self, other: "PairElement") -> "PairElement":
        return PairElement(self.left * other.left, self.right * other.right)

    def inverse(self) -> "PairElement":
        return PairElement(self.left.inverse(), self.right.inverse())

    def is_identity(self) -> bool:
        return self.left.is_identity() and self.right.is_identity()

    def __eq__(self, other):
        return (
            isinstance(other, PairElement)
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self):
        return hash((self.left, self.right))

    def __repr__(self):
        return f"({self.left!r}, {self.right!r})"


class GpIndexer:
    """Bijective index on G(p): index(a, h) = ap_index(a) * |H| + h_index."""

    def __init__(self, p: int):
        self.p = p
        self.table = psl2_table(p)
        self.h_order = len(self.table)
        self.size = 3**p * self.h_order

    def index(self, g: GpElement) -> int:
        return ap_index(g.a) * self.h_order + self.table.index(g.h)

    def unindex(self, i: int) -> GpElement:
        ai, hi = divmod(i, self.h_order)
        return GpElement(ap_unindex(ai, self.p), self.table[hi])


@dataclass(frozen=True)
class HomSpec:
    """Generator-image table for a homomorphism from a free group."""

    name: str
    gen_names: tuple
    images: tuple
    target: str

    def __post_init__(self):
        if len(self.gen_names) != len(self.images):
            raise ValueError("one image per generator is required")

    def image(self, gen: str):
        try:
            return self.images[self.gen_names.index(gen)]
        except ValueError:
            raise KeyError(f"unknown generator {gen!r} for {self.name}") from None


def hom_eval(spec: HomSpec, word: ReducedWord):
    """Image of a word: the product of generator images along its letters."""
    imgs = {g: img for g, img in zip(spec.gen_names, spec.images)}
    acc = None
    for g, s in word.letters:
        if g not in imgs:
            raise KeyError(f"unknown generator {g!r} for {spec.name}")
        step = imgs[g] if s == 1 else imgs[g].inverse()
        acc = step if acc is None else acc * step
    if acc is None:
        ident = _identity_like(spec.images[0])
        return ident
    return acc


def _identity_like(element):
    if isinstance(element, PairElement):
        return PairElement(_identity_like(element.left), _identity_like(element.right))
    if isinstance(element, GpElement):
        return GpElement.identity(element.p)
    if isinstance(element, PSL2Element):
        return PSL2Element.identity(element.q)
    raise TypeError(f"no identity known for {type(element)!r}")


def _factors(g):
    """The PSL2 parts of a closure generator: g itself, or both parts of
    a PairElement."""
    return (g.left, g.right) if isinstance(g, PairElement) else (g,)


class Closure:
    """Breadth-first closure of PSL2Elements, or of PairElements of two,
    on the flat index of their ambient group (a pair's index is
    left * |K| + right).

    The search starts at the identity and steps by right multiplication
    with g1, g1^-1, g2, g2^-1, ... in that order, so every level is found
    in the order an element-by-element search meets it.  len() is the
    number of elements reached; closure[element] rebuilds the word of the
    search path to element over the generator names.  Raises
    ResourceBudgetError, before any search array is allocated, when the
    ambient group has more than max_elements elements.
    """

    def __init__(self, generators, names=(), order_bound=None, max_elements=2_000_000):
        self.letters = [(name, s) for name in names for s in (1, -1)]
        self.tables = [psl2_table(f.q) for f in _factors(generators[0])]
        self.shape = tuple(len(t) for t in self.tables)
        n = math.prod(self.shape)
        if n > max_elements:
            raise ResourceBudgetError(
                f"closure in a group of order {n} exceeds the budget of "
                f"{max_elements} elements"
            )
        steps = []
        for g in generators:
            forward = [t.right_mul_perm(f) for t, f in zip(self.tables, _factors(g))]
            backward = [np.empty_like(m) for m in forward]
            for m, inv in zip(forward, backward):
                inv[m] = np.arange(len(m))
            steps += [forward, backward]
        self.parent = np.full(n, -1, dtype=np.int64)
        self.step = np.zeros(n, dtype=np.int64)
        frontier = np.array([self._index([PSL2Element.identity(t.q) for t in self.tables])])
        self.parent[frontier] = frontier
        self.order = 1
        while frontier.size and (order_bound is None or self.order < order_bound):
            coords = np.unravel_index(frontier, self.shape)
            # candidates x-major: row x holds x g1, x g1^-1, x g2, ...
            cand = np.stack([np.ravel_multi_index([m[c] for m, c in zip(maps, coords)],
                                                  self.shape)
                             for maps in steps], axis=1).ravel()
            fresh = np.flatnonzero(self.parent[cand] < 0)
            _, first = np.unique(cand[fresh], return_index=True)
            keep = fresh[np.sort(first)]
            new = cand[keep]
            self.parent[new] = frontier[keep // len(steps)]
            self.step[new] = keep % len(steps)
            self.order += len(new)
            frontier = new

    def _index(self, parts) -> int:
        return int(np.ravel_multi_index([t.index(f) for t, f in zip(self.tables, parts)],
                                        self.shape))

    def __len__(self):
        return self.order

    def __getitem__(self, element) -> ReducedWord:
        i = self._index(_factors(element))
        if self.parent[i] < 0:
            raise KeyError(element)
        letters = []
        while self.parent[i] != i:
            letters.append(self.letters[self.step[i]])
            i = self.parent[i]
        return ReducedWord(tuple(reversed(letters)))


def bfs_closure_order(generators, order_bound=None, max_elements=2_000_000) -> int:
    """Order of the subgroup the generators generate (see Closure); the
    search stops once order_bound elements are reached.  0 for no
    generators."""
    generators = list(generators)
    return len(Closure(generators, (), order_bound, max_elements)) if generators else 0


def bfs_closure_with_words(named_generators: dict, max_elements=2_000_000) -> Closure:
    """Full closure with one witnessing word per element (see Closure)."""
    return Closure(list(named_generators.values()), named_generators, None, max_elements)


@dataclass
class HomFamily:
    """All homomorphism specs at one parameter point, plus metadata."""

    p: int
    r_p: int
    m: int
    k: int
    specs: dict
    v1: ApVector = None
    v2: ApVector = None
    checks: dict = field(default_factory=dict)

    def __getitem__(self, name: str) -> HomSpec:
        return self.specs[name]


def sigma_gen_names(m: int):
    """Generator names of the left factor F_m: a1..a(m-1) then t."""
    return tuple(f"a{i}" for i in range(1, m)) + ("t",)


def lambda_gen_names(k: int):
    return tuple(f"b{j}" for j in range(1, k + 1))


def build_hom_specs(p, m, k, v1=None, v2=None, check=True) -> HomFamily:
    """Construct the whole family of generator-image tables at level p.

    Free generators receive the free family w_i = B^i A B^-i as matrix
    avatars: a_i and b_i get w_i, and t gets w_m.  Reduction of avatars
    mod p and mod r(p) gives the two projective quotients; the vector
    decorations on a_(m-2), a_(m-1) and b_k produce the maps onto G(p).

    With check=True each generation hypothesis is verified on the
    projective factors (cheap at any p here) and a named
    GenerationCheckError is raised on failure.
    """
    if m < 5:
        raise GenerationCheckError(
            f"m = {m} < 5: the construction needs at least two undecorated "
            "left generators plus two decorated ones and a spare letter"
        )
    if k < 3:
        raise GenerationCheckError(
            f"k = {k} < 3: the construction needs at least two undecorated "
            "right generators plus the decorated one"
        )
    from .f3vectors import _check_p

    _check_p(p)
    r_p = next_prime(p)
    v1 = v1 if v1 is not None else v1_vector(p)
    v2 = v2 if v2 is not None else v2_vector(p)
    if v1.is_zero() or v2.is_zero():
        raise ValueError("decoration vectors must be nonzero")

    n_avatars = max(m, k)
    mats = {i: free_family_matrix(i) for i in range(1, n_avatars + 1)}

    def xi(i):
        return reduce_word_mod([mats[i]], p)

    def psi(i):
        return reduce_word_mod([mats[i]], r_p)

    sg = sigma_gen_names(m)
    lg = lambda_gen_names(k)
    avatar_index = {f"a{i}": i for i in range(1, m)}
    avatar_index["t"] = m
    for j in range(1, k + 1):
        avatar_index[f"b{j}"] = j

    xi_sigma = HomSpec("xi", sg, tuple(xi(avatar_index[g]) for g in sg), f"H{p}")
    psi_sigma = HomSpec("psi", sg, tuple(psi(avatar_index[g]) for g in sg), f"K{r_p}")
    eta = HomSpec(
        "eta",
        sg,
        tuple(PairElement(xi(avatar_index[g]), psi(avatar_index[g])) for g in sg),
        f"H{p}xK{r_p}",
    )

    gamma = sg[:-1]  # a1..a(m-1)
    zero = ApVector.zero(p)

    def phi_img(name):
        i = avatar_index[name]
        if name == f"a{m - 2}":
            return GpElement(v1, xi(i))
        if name == f"a{m - 1}":
            return GpElement(v2, xi(i))
        return GpElement(zero, xi(i))

    phi = HomSpec("phi", gamma, tuple(phi_img(g) for g in gamma), f"G{p}")
    phi_tilde = HomSpec(
        "phi_tilde",
        gamma,
        tuple(PairElement(phi_img(g), psi(avatar_index[g])) for g in gamma),
        f"G{p}xK{r_p}",
    )

    vp = v_vector(p)

    def rho_img(name):
        j = avatar_index[name]
        if name == f"b{k}":
            return GpElement(h_act(xi(j), vp), xi(j))
        return GpElement(zero, xi(j))

    rho = HomSpec("rho", lg, tuple(rho_img(g) for g in lg), f"G{p}")

    def zeta_img(name):
        if name == f"b{k}":
            return PSL2Element.identity(r_p)
        return psi(avatar_index[name])

    zeta = HomSpec("zeta", lg, tuple(zeta_img(g) for g in lg), f"K{r_p}")
    rho_tilde = HomSpec(
        "rho_tilde",
        lg,
        tuple(PairElement(rho_img(g), zeta_img(g)) for g in lg),
        f"G{p}xK{r_p}",
    )

    family = HomFamily(
        p=p,
        r_p=r_p,
        m=m,
        k=k,
        v1=v1,
        v2=v2,
        specs={
            "xi": xi_sigma,
            "psi": psi_sigma,
            "eta": eta,
            "phi": phi,
            "rho": rho,
            "zeta": zeta,
            "phi_tilde": phi_tilde,
            "rho_tilde": rho_tilde,
        },
    )
    if check:
        run_generation_checks(family)
    return family


def run_generation_checks(family: HomFamily):
    """Verify every generation hypothesis on the projective factors.

    The product-level statements follow: the two factors are simple of
    different orders, so a subgroup of the product surjecting onto both
    factors is the full product.  Failures name the check and suggest that
    p is too small.
    """
    p, r_p, m, k = family.p, family.r_p, family.m, family.k
    checks = {}

    def require(name, gens, order, q):
        got = bfs_closure_order(gens, order_bound=order)
        checks[name] = {"order": got, "expected": order, "pass": got == order}
        if got != order:
            raise GenerationCheckError(
                f"p = {p} too small: check {name!r} reached {got} of {order}"
            )

    xi = family["xi"]
    psi = family["psi"]
    undecorated_left = [f"a{i}" for i in range(1, m - 2)]
    undecorated_right = [f"b{j}" for j in range(1, k)]
    require(
        "xi-left-undecorated-generates-H",
        [xi.image(g) for g in undecorated_left],
        psl2_order(p),
        p,
    )
    require(
        "psi-left-undecorated-generates-K",
        [psi.image(g) for g in undecorated_left],
        psl2_order(r_p),
        r_p,
    )
    require(
        "xi-right-undecorated-generates-H",
        [family["rho"].image(g).h for g in undecorated_right],
        psl2_order(p),
        p,
    )
    require(
        "zeta-undecorated-generates-K",
        [family["zeta"].image(g) for g in undecorated_right],
        psl2_order(r_p),
        r_p,
    )
    if psl2_order(p) == psl2_order(r_p):
        raise GenerationCheckError("factor orders coincide; pick a larger r(p)")
    family.checks.update(checks)
    return checks


# -- surjectivity certificates -------------------------------------------

@dataclass
class SurjectivityCertificate:
    ok: bool
    target: str
    route: str
    details: dict

    def __bool__(self):
        return self.ok


def _gp_part(img):
    return img.left if isinstance(img, PairElement) else img


def verify_surjectivity(spec: HomSpec, family: HomFamily, route="auto") -> SurjectivityCertificate:
    """Certify that a generator-image table generates its whole target.

    For G(p): (i) the matrix parts of all images must generate PSL2(F_p)
    (breadth-first closure), and (ii) some product with trivial matrix
    part must carry a nonzero vector whose invariant closure is all of
    A(p).  The product is found explicitly: a decorated generator times a
    word in undecorated ones cancelling its matrix part.

    For the product target the same two steps run with the pair of matrix
    parts (direct route); if the undecorated images do not generate the
    full product of factors, falls back to a quotient-order argument on
    the factors (both factors simple-or-monolithic of distinct orders).
    """
    p = family.p
    target = spec.target
    if target == f"G{p}":
        return _verify_onto_gp(spec, family)
    if target == f"G{p}xK{family.r_p}":
        if route == "factor-quotients":
            return _verify_onto_gtilde_goursat(spec, family, None)
        direct = _verify_onto_gtilde_direct(spec, family)
        if direct.ok or route == "direct":
            return direct
        return _verify_onto_gtilde_goursat(spec, family, direct)
    raise ValueError(f"unsupported target {target!r}")


def _split_by_decoration(spec: HomSpec):
    zero_gens, decorated = {}, {}
    for g, img in zip(spec.gen_names, spec.images):
        if _gp_part(img).a.is_zero():
            zero_gens[g] = img
        else:
            decorated[g] = img
    return zero_gens, decorated


def _matrix_part(img):
    """The PSL2 part of a G(p) element, or the pair of PSL2 parts of a
    G(p) x K element."""
    return PairElement(img.left.h, img.right) if isinstance(img, PairElement) else img.h


def _witness(spec, zero_gens, decorated, words) -> dict:
    """The first decorated image times the undecorated word that cancels
    its matrix part: the product is a pure vector, recorded with the
    dimension of its invariant closure."""
    name, img = next(iter(decorated.items()))
    cancel = words[_matrix_part(img).inverse()]
    zero_part = HomSpec("zero-part", tuple(zero_gens), tuple(zero_gens.values()), spec.target)
    witness = img * hom_eval(zero_part, cancel)
    assert _matrix_part(witness).is_identity()
    vector = _gp_part(witness).a
    return {"witness_generator": name, "cancelling_word": repr(cancel),
            "witness_vector": vector.coords, "closure_dim": invariant_closure_dim(vector)}


def _verify_onto_gp(spec: HomSpec, family: HomFamily) -> SurjectivityCertificate:
    p = family.p
    h_order = psl2_order(p)
    details = {}
    all_h = bfs_closure_order([img.h for img in spec.images], order_bound=h_order)
    details["h_part_order"] = all_h
    if all_h != h_order:
        return SurjectivityCertificate(False, spec.target, "matrix-parts", details)

    zero_gens, decorated = _split_by_decoration(spec)
    if not decorated:
        details["reason"] = "all vector parts zero: image lies in the matrix factor"
        return SurjectivityCertificate(False, spec.target, "no-decoration", details)

    words = bfs_closure_with_words({g: _matrix_part(img) for g, img in zero_gens.items()})
    if len(words) != h_order:
        details["reason"] = "undecorated images do not generate the matrix factor"
        details["undecorated_order"] = len(words)
        return SurjectivityCertificate(False, spec.target, "undecorated", details)

    details.update(_witness(spec, zero_gens, decorated, words))
    return SurjectivityCertificate(details["closure_dim"] == p, spec.target,
                                   "trivial-matrix-part-witness", details)


def _verify_onto_gtilde_direct(spec, family) -> SurjectivityCertificate:
    p = family.p
    pair_order = psl2_order(p) * psl2_order(family.r_p)
    details = {}
    zero_gens, decorated = _split_by_decoration(spec)
    if not decorated:
        details["reason"] = "all vector parts zero"
        return SurjectivityCertificate(False, spec.target, "no-decoration", details)
    try:
        words = bfs_closure_with_words({g: _matrix_part(img) for g, img in zero_gens.items()})
    except ResourceBudgetError:
        words = {}
    details["undecorated_pair_order"] = len(words)
    if len(words) != pair_order:
        return SurjectivityCertificate(False, spec.target, "direct", details)

    details.update(_witness(spec, zero_gens, decorated, words))
    return SurjectivityCertificate(details["closure_dim"] == p, spec.target, "direct", details)


def _verify_onto_gtilde_goursat(spec, family, direct_attempt) -> SurjectivityCertificate:
    """Factorwise route: the G(p) part must be onto G(p), the second part
    onto K; the only common quotient of the two factors is trivial because
    the candidate quotient orders differ, so the image is the product."""
    p, r_p = family.p, family.r_p
    details = {}
    if direct_attempt is not None:
        details["direct_attempt"] = direct_attempt.details
    left_spec = HomSpec(
        spec.name + "-left", spec.gen_names, tuple(i.left for i in spec.images), f"G{p}"
    )
    left_cert = _verify_onto_gp(left_spec, family)
    details["left_factor"] = left_cert.details
    k_order = psl2_order(r_p)
    right_order = bfs_closure_order(
        [i.right for i in spec.images if not i.right.is_identity()],
        order_bound=k_order,
    )
    details["right_factor_order"] = right_order
    gp_order = 3**p * psl2_order(p)
    quotient_orders_left = {1, psl2_order(p), gp_order}
    details["common_quotient_possible"] = k_order in quotient_orders_left
    ok = (
        left_cert.ok
        and right_order == k_order
        and k_order not in quotient_orders_left
    )
    return SurjectivityCertificate(ok, spec.target, "factor-quotients", details)


# -- serialization --------------------------------------------------------

def _element_to_json(el):
    if isinstance(el, PSL2Element):
        return {"kind": "psl2", "q": el.q, "m": list(el.entries())}
    if isinstance(el, GpElement):
        return {"kind": "gp", "p": el.p, "a": list(el.a.coords), "h": _element_to_json(el.h)}
    if isinstance(el, PairElement):
        return {
            "kind": "pair",
            "left": _element_to_json(el.left),
            "right": _element_to_json(el.right),
        }
    raise TypeError(f"cannot serialize {type(el)!r}")


def _element_from_json(obj):
    kind = obj["kind"]
    if kind == "psl2":
        return PSL2Element(*obj["m"], obj["q"])
    if kind == "gp":
        h = _element_from_json(obj["h"])
        return GpElement(ApVector(obj["p"], obj["a"]), h)
    if kind == "pair":
        return PairElement(_element_from_json(obj["left"]), _element_from_json(obj["right"]))
    raise ValueError(f"unknown element kind {kind!r}")


HOMSPEC_FORMAT_VERSION = 1


def hom_family_to_json(family: HomFamily) -> str:
    doc = {
        "format": "soficlab-homspec",
        "version": HOMSPEC_FORMAT_VERSION,
        "p": family.p,
        "r_p": family.r_p,
        "m": family.m,
        "k": family.k,
        "v1": list(family.v1.coords),
        "v2": list(family.v2.coords),
        "homs": {
            name: {
                "target": s.target,
                "gens": list(s.gen_names),
                "images": [_element_to_json(i) for i in s.images],
            }
            for name, s in sorted(family.specs.items())
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def hom_family_from_json(text: str) -> HomFamily:
    doc = json.loads(text)
    if doc.get("format") != "soficlab-homspec":
        raise ValueError("not a homspec document")
    if doc.get("version") != HOMSPEC_FORMAT_VERSION:
        raise ValueError(f"unsupported homspec version {doc.get('version')}")
    p = doc["p"]
    specs = {
        name: HomSpec(
            name,
            tuple(h["gens"]),
            tuple(_element_from_json(i) for i in h["images"]),
            h["target"],
        )
        for name, h in doc["homs"].items()
    }
    return HomFamily(
        p=p,
        r_p=doc["r_p"],
        m=doc["m"],
        k=doc["k"],
        specs=specs,
        v1=ApVector(p, doc["v1"]),
        v2=ApVector(p, doc["v2"]),
    )
