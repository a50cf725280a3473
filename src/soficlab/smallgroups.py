"""Dense multiplication tables for small finite groups.

These groups are oracles for the partition and spectral machinery, so
they are built plainly, as index arrays: the cyclic table by modular
addition, the symmetric one by composing every pair of enumerated
permutations in one gather, and subgroup closures by multiplying by the
generating set only, over a boolean mask.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np


def cyclic_table(n: int) -> np.ndarray:
    i = np.arange(n)
    return (i[:, None] + i[None, :]) % n


def symmetric_table(n: int) -> np.ndarray:
    """Cayley table of S_n on its n! permutations in lexicographic order,
    identity first: table[i, j] is the index of perm_i after perm_j."""
    perms = np.array(list(permutations(range(n))), dtype=np.int64)
    # perm_i after perm_j is perm_i[perm_j], and the base-n keys of the
    # lexicographic enumeration ascend
    weights = n ** np.arange(n - 1, -1, -1)
    return np.searchsorted(perms @ weights, perms[:, perms] @ weights)


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
    """Every subgroup, by closing each known subgroup H with one element g
    of each left coset gH other than H (generator-only closures): H u {g}
    and H u {gk} generate the same subgroup for k in H.  Meant for orders
    up to a couple hundred."""
    n = len(table)
    e = identity_index(table)
    found = {frozenset({e})}
    frontier = [frozenset({e})]
    while frontier:
        new = []
        for h in frontier:
            members = np.fromiter(h, dtype=np.int64)
            covered = np.zeros(n, dtype=bool)
            covered[members] = True
            for g in range(n):
                if covered[g]:
                    continue
                covered[table[g, members]] = True
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

