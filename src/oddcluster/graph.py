"""Immutable simple-graph core: construction and traversal primitives.

`bfs` is the construction side's one breadth-first search over induced
subgraphs: from a root, inside a vertex set, neighbors in ascending order.
Its parent map, in visit order, gives the reached set, the visit order,
tree edges and depth parity. Components and connectivity below are built
on it. `spanner.cross_bfs(host, H, A, B)` walks side-crossing edges only,
from the minimum vertex of H.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable

Edge = tuple[int, int]
MAX_VERTICES = 10**7  # 100x the 10^5 scale target; the adjacency sets cost ~240 B a vertex


class GraphError(ValueError):
    """Malformed graph data or a violated call precondition."""


class InvariantViolation(RuntimeError):
    """An internal guarantee failed; indicates a bug rather than bad input."""


def norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph on vertex ids 0..n-1, immutable once built.

    Self-loops, duplicate edges, out-of-range endpoints and more than
    MAX_VERTICES vertices are rejected. Neighbor lists are kept sorted,
    which makes every traversal in this package deterministic.
    """

    __slots__ = ("n", "m", "_nbrs", "_sets")

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        if n > MAX_VERTICES:  # checked before anything is allocated
            raise GraphError(f"vertex count {n} above the limit of {MAX_VERTICES}")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if v in adj[u]:
                raise GraphError(f"duplicate edge ({u},{v})")
            adj[u].add(v)
            adj[v].add(u)
        for v in range(n):  # in place: each set is freed as its frozen copy is made
            adj[v] = frozenset(adj[v])
        self.n = n
        self.m = sum(map(len, adj)) // 2
        self._nbrs = tuple(tuple(sorted(a)) for a in adj)
        self._sets = tuple(adj)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in ascending order."""
        return self._nbrs[v]

    def adj(self, v: int) -> frozenset[int]:
        return self._sets[v]

    def neighborhood(self, vertices: Iterable[int]) -> set[int]:
        """Every neighbor of some vertex in `vertices`, in one C-level union."""
        return set().union(*map(self._sets.__getitem__, vertices))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._sets[u]

    def degree(self, v: int) -> int:
        return len(self._nbrs[v])

    def edges(self) -> list[Edge]:
        """All edges as (u, v) with u < v, sorted."""
        return [(u, v) for u in range(self.n) for v in self._nbrs[u] if u < v]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._nbrs == other._nbrs

    def __hash__(self) -> int:
        return hash((self.n, self._nbrs))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class TreeSubgraph:
    """A tree inside a host graph: its vertex set plus the |V|-1 edges."""

    vertices: frozenset[int]
    edges: frozenset[Edge]


def _checked_set(g: Graph, within: Iterable[int]) -> frozenset[int]:
    ws = frozenset(within)
    if ws and (min(ws) < 0 or max(ws) >= g.n):
        v = next(v for v in ws if not 0 <= v < g.n)
        raise GraphError(f"vertex {v} out of range for n={g.n}")
    return ws


def bfs(g: Graph, root: int, within: AbstractSet[int]) -> dict[int, int]:
    """Breadth-first search from `root`: the parent of every vertex reached,
    in visit order, with the root as its own parent.

    Neighbors are visited in ascending order, and the search enters only
    vertices of `within`.
    """
    parent = {root: root}
    order = [root]
    for x in order:
        for y in g.neighbors(x):
            if y in within and y not in parent:
                parent[y] = x
                order.append(y)
    return parent


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Maximal connected pieces of g, ordered by their minimum vertex."""
    out: list[frozenset[int]] = []
    unseen = set(range(g.n))
    for s in range(g.n):
        if s in unseen:
            comp = frozenset(bfs(g, s, unseen))
            unseen -= comp
            out.append(comp)
    return out


def is_connected(g: Graph, within: Iterable[int]) -> bool:
    ws = _checked_set(g, within)
    return not ws or len(bfs(g, min(ws), ws)) == len(ws)


def induced_edge_count(g: Graph, vertices: Iterable[int]) -> int:
    vs = frozenset(vertices)
    return sum(len(g.adj(v) & vs) for v in vs) // 2
