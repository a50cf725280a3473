"""Dense multiplication tables for small finite groups.

These groups are oracles for the partition and spectral machinery, so
they are built plainly: tables by composing permutations, and subgroup
closures by multiplying by the generating set only, over a boolean mask.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np


def cyclic_table(n: int) -> np.ndarray:
    i = np.arange(n)
    return (i[:, None] + i[None, :]) % n


def table_from_permutations(perms) -> tuple:
    """Close a set of permutations (tuples) under composition and return
    (elements, table) with elements[0] the identity."""
    n = len(perms[0])
    ident = tuple(range(n))

    def compose(p, q):  # p after q
        return tuple(p[q[i]] for i in range(n))

    elements = {ident}
    frontier = [ident]
    gens = [tuple(p) for p in perms]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = compose(g, x)
                if y not in elements:
                    elements.add(y)
                    new.append(y)
        frontier = new
    elements = sorted(elements)
    elements.remove(ident)
    elements = [ident] + elements
    index = {e: i for i, e in enumerate(elements)}
    m = len(elements)
    table = np.empty((m, m), dtype=np.int64)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            table[i, j] = index[compose(a, b)]
    return elements, table


def symmetric_table(n: int) -> tuple:
    return table_from_permutations(list(permutations(range(n))))


def identity_index(table: np.ndarray) -> int:
    n = len(table)
    for e in range(n):
        if np.array_equal(table[e], np.arange(n)):
            return e
    raise ValueError("table has no identity")


def inverse_index(table: np.ndarray, g: int) -> int:
    e = identity_index(table)
    return int(np.where(table[g] == e)[0][0])


def subgroup_closure(table: np.ndarray, seed) -> frozenset:
    """{e} and seed closed under right multiplication by seed: in a finite
    group, the subgroup that seed generates."""
    gens = np.fromiter(seed, dtype=np.int64)
    member = np.zeros(len(table), dtype=bool)
    member[identity_index(table)] = True
    member[gens] = True
    frontier = np.flatnonzero(member)
    while len(frontier):
        reached = np.zeros_like(member)
        reached[table[frontier[:, None], gens]] = True
        frontier = np.flatnonzero(reached & ~member)
        member |= reached
    return frozenset(np.flatnonzero(member).tolist())


def all_subgroups(table: np.ndarray):
    """Every subgroup, by closing each known subgroup with each element
    (generator-only closures).  Meant for orders up to a couple hundred."""
    n = len(table)
    e = identity_index(table)
    found = {frozenset({e})}
    frontier = [frozenset({e})]
    while frontier:
        new = []
        for h in frontier:
            for g in range(n):
                if g in h:
                    continue
                h2 = subgroup_closure(table, h | {g})
                if h2 not in found:
                    found.add(h2)
                    new.append(h2)
        frontier = new
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def left_coset_ids(table: np.ndarray, subgroup) -> np.ndarray:
    """Coset id per element for the left cosets gH; ids are 0..index-1 in
    order of least representative."""
    n = len(table)
    sub = sorted(subgroup)
    ids = -np.ones(n, dtype=np.int64)
    next_id = 0
    for g in range(n):
        if ids[g] >= 0:
            continue
        for h in sub:
            ids[table[g, h]] = next_id
        next_id += 1
    return ids


def left_regular_perms(table: np.ndarray, gens):
    """Left translation permutations x -> g x for the given generators."""
    return {g: table[g, :].copy() for g in gens}
