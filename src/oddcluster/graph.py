"""Immutable simple-graph core: construction, traversal and parity primitives."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

Edge = tuple[int, int]


class GraphError(ValueError):
    """Malformed graph data or a violated call precondition."""


class InvariantViolation(RuntimeError):
    """An internal guarantee failed; indicates a bug rather than bad input."""


def norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph on vertex ids 0..n-1, immutable once built.

    Self-loops, duplicate edges and out-of-range endpoints are rejected.
    Neighbor lists are kept sorted, which makes every traversal in this
    package deterministic.
    """

    __slots__ = ("n", "m", "_nbrs", "_sets")

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        seen: set[Edge] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            key = norm_edge(u, v)
            if key in seen:
                raise GraphError(f"duplicate edge ({u},{v})")
            seen.add(key)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in seen:
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.m = len(seen)
        self._nbrs = tuple(tuple(sorted(a)) for a in adj)
        self._sets = tuple(frozenset(a) for a in adj)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in ascending order."""
        return self._nbrs[v]

    def adj(self, v: int) -> frozenset[int]:
        return self._sets[v]

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
    for v in ws:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} out of range for n={g.n}")
    return ws


def connected_components(
    g: Graph,
    within: Iterable[int] | None = None,
    allowed: Callable[[int, int], bool] | None = None,
) -> list[frozenset[int]]:
    """Maximal connected pieces of the (restricted) vertex set, optionally
    using only the edges (x, y) the `allowed` predicate accepts.

    Pieces are ordered by their minimum contained vertex.
    """
    pool = frozenset(range(g.n)) if within is None else _checked_set(g, within)
    out: list[frozenset[int]] = []
    unseen = set(pool)
    for s in sorted(pool):
        if s not in unseen:
            continue
        unseen.discard(s)
        comp = {s}
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in g.neighbors(x):
                if y in unseen and (allowed is None or allowed(x, y)):
                    unseen.discard(y)
                    comp.add(y)
                    queue.append(y)
        out.append(frozenset(comp))
    return out


def is_connected(g: Graph, within: Iterable[int] | None = None) -> bool:
    return len(connected_components(g, within)) <= 1


def induced_edge_count(g: Graph, vertices: Iterable[int]) -> int:
    vs = frozenset(vertices)
    return sum(len(g.adj(v) & vs) for v in vs) // 2


def spanning_tree(
    g: Graph,
    within: Iterable[int],
    allowed: Callable[[int, int], bool] | None = None,
) -> TreeSubgraph:
    """Deterministic BFS tree covering `within`.

    Rooted at the minimum vertex, neighbors visited in ascending order,
    optionally restricted to edges the `allowed` predicate accepts.
    """
    ws = _checked_set(g, within)
    if not ws:
        raise GraphError("within must be nonempty")
    root = min(ws)
    seen = {root}
    edges: set[Edge] = set()
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for y in g.neighbors(x):
            if y in ws and y not in seen and (allowed is None or allowed(x, y)):
                seen.add(y)
                edges.add(norm_edge(x, y))
                queue.append(y)
    if seen != ws:
        raise GraphError("restricted subgraph on `within` is disconnected")
    return TreeSubgraph(ws, frozenset(edges))
