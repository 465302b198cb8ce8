"""Exhaustive ground truth at toy scale.

Used by the tests only: exact odd clique-expansion existence by
enumerating 2-colorings, and exact minimum connectors by subset
enumeration. Everything is deterministic so failures reproduce.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from oddcluster.graph import Graph, GraphError, is_connected

BRUTE_N_CAP = 12
SEARCH_NODE_LIMIT = 5_000_000  # branch-set search nodes per has_odd_expansion call


class BudgetExceeded(RuntimeError):
    """Instance larger than the oracle's enumeration caps."""


@dataclass(frozen=True)
class OracleBudget:
    max_n: int = 9
    max_t: int = 4


def has_odd_expansion(g: Graph, t: int, budget: OracleBudget | None = None) -> bool:
    """Exact test: does g contain t vertex-disjoint branch sets, each connected
    through bichromatic edges of some global 2-coloring, pairwise linked by a
    monochromatic edge?

    Enumerates the 2^(n-1) colorings with vertex 0's color fixed (swapping
    colors changes nothing). Per coloring, candidates are the subsets
    connected in the bichromatic subgraph; a backtracking search then looks
    for t disjoint candidates with all pairwise monochromatic links.
    """
    budget = budget or OracleBudget()
    if g.n > budget.max_n:
        raise BudgetExceeded(f"n={g.n} above cap {budget.max_n}")
    if t > budget.max_t:
        raise BudgetExceeded(f"t={t} above cap {budget.max_t}")
    if t < 1:
        raise GraphError("t must be >= 1")
    n = g.n
    if t > n:
        return False
    if t == 1:
        return True

    adj = [0] * n
    for u, v in g.edges():
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    nodes = [0]
    for bits in range(1 << max(0, n - 1)):
        coloring = bits << 1  # vertex 0 fixed to color 0
        same = [0] * n
        diff = [0] * n
        for v in range(n):
            cv = (coloring >> v) & 1
            m = adj[v]
            while m:
                b = m & -m
                m ^= b
                w = b.bit_length() - 1
                if (coloring >> w) & 1 == cv:
                    same[v] |= b
                else:
                    diff[v] |= b
        candidates = []
        reaches = []
        for mask in range(1, 1 << n):
            if _bit_connected(mask, diff):
                candidates.append(mask)
                r = 0
                m = mask
                while m:
                    b = m & -m
                    m ^= b
                    r |= same[b.bit_length() - 1]
                reaches.append(r)
        if _pick_branch_sets(candidates, reaches, t, nodes):
            return True
    return False


def _bit_connected(mask: int, adj: list[int]) -> bool:
    low = mask & -mask
    seen = low
    frontier = low
    while frontier:
        nxt = 0
        m = frontier
        while m:
            b = m & -m
            m ^= b
            nxt |= adj[b.bit_length() - 1]
        nxt &= mask & ~seen
        seen |= nxt
        frontier = nxt
    return seen == mask


def _pick_branch_sets(
    candidates: list[int], reaches: list[int], t: int, nodes: list[int]
) -> bool:
    chosen: list[tuple[int, int]] = []  # (mask, monochromatic reach)

    def rec(start: int) -> bool:
        nodes[0] += 1
        if nodes[0] > SEARCH_NODE_LIMIT:
            raise BudgetExceeded(f"search node limit {SEARCH_NODE_LIMIT} hit")
        if len(chosen) == t:
            return True
        for idx in range(start, len(candidates)):
            mask = candidates[idx]
            ok = True
            for cmask, creach in chosen:
                if mask & cmask or not (creach & mask):
                    ok = False
                    break
            if ok:
                chosen.append((mask, reaches[idx]))
                if rec(idx + 1):
                    return True
                chosen.pop()
        return False

    return rec(0)


def min_connector_bruteforce(g: Graph, terminals: Iterable[int]) -> frozenset[int]:
    """Smallest, then lexicographically first, connected superset of the terminals.

    Supersets are enumerated by increasing size and within one size in
    ascending order of their sorted vertex lists.
    """
    if g.n > BRUTE_N_CAP:
        raise BudgetExceeded(f"n={g.n} above cap {BRUTE_N_CAP}")
    terms = sorted(set(terminals))
    if not terms:
        raise GraphError("terminals must be nonempty")
    for t in terms:
        if not 0 <= t < g.n:
            raise GraphError(f"terminal {t} out of range")
    others = [v for v in range(g.n) if v not in set(terms)]
    for extra in range(len(others) + 1):
        for combo in itertools.combinations(others, extra):
            w = frozenset(terms).union(combo)
            if is_connected(g, w):
                return w
    raise GraphError("terminals are not in one connected component")
