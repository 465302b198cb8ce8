"""Immutable simple-graph core: construction and traversal primitives.

Each vertex keeps its neighbors as one sorted tuple, and nothing else.
Construction is bulk, over one flat list of endpoints (`Graph.from_ends`):
per-vertex lists, filled edge by edge and sorted into tuples, then two
checks on the tuples. An endpoint at or past n, or below -n, fails as an
index while the lists fill; one in -n..-1 is stored in its partner's
tuple, which then starts below 0; and a loop or a repeated edge makes a
tuple longer than its set of distinct entries. A failed check rescans the
edges in order for the first bad one.

`bfs` is the construction side's one breadth-first search over induced
subgraphs: from a root, inside a vertex set, neighbors in ascending order.
Its parent map, in visit order, gives the reached set, the visit order,
tree edges and depth parity, and `is_connected` is built on it.
`component_walk` is the one walk that finds a component: a level at a
time, it gives the root's piece and, when the piece is bipartite, its
depth-parity split. `connected_components` lists the pieces of
`component_walks`, and `run_color` hands each walk to `decompose`, which
decomposes its piece and reads part 1 from it.
`touching` is the one scan for the vertices with a neighbor in a set.
`spanner.cross_bfs(host, H, A, B)` walks side-crossing edges only, from min(H).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress
from operator import itemgetter, not_
from typing import AbstractSet, Collection, Iterable, Iterator, NamedTuple

Edge = tuple[int, int]
# 100x the 10^5 scale target; building peaks at ~88 B a vertex (10^6 edgeless: 84 MiB)
MAX_VERTICES = 10**7  # and a vertex of degree d keeps a tuple of 40 + 8d B


class GraphError(ValueError):
    """Malformed graph data or a violated call precondition."""


class InvariantViolation(RuntimeError):
    """An internal guarantee failed; indicates a bug rather than bad input."""


def norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def first_bad_edge(n: int, ends: list[int]) -> int:
    """The index of the first edge, edge i from ends[2i] to ends[2i+1], that
    is out of range, a loop or a repeat, for a list a bulk check has failed."""
    seen: set[Edge] = set()
    for i, (u, v) in enumerate(zip(ends[::2], ends[1::2])):
        e = norm_edge(u, v)
        if not (0 <= u < n and 0 <= v < n) or u == v or e in seen:
            return i
        seen.add(e)
    raise InvariantViolation("a bulk edge check failed, but no edge fails it")


def _raise_first_offender(n: int, ends: list[int]) -> None:
    """Raise for the first edge that is out of range, a loop or a repeat."""
    i = first_bad_edge(n, ends)
    u, v = ends[2 * i], ends[2 * i + 1]
    if not (0 <= u < n and 0 <= v < n):
        raise GraphError(f"edge ({u},{v}) out of range for n={n}")
    raise GraphError(f"self-loop at vertex {u}" if u == v else f"duplicate edge ({u},{v})")


class Graph:
    """Simple undirected graph on vertex ids 0..n-1, immutable once built.

    Self-loops, duplicate edges, out-of-range endpoints and more than
    MAX_VERTICES vertices are rejected, naming the first bad edge. Each
    vertex's neighbors form one sorted tuple, which makes every traversal in
    this package deterministic; degree-0 vertices share the empty tuple.
    """

    __slots__ = ("n", "m", "_nbrs")

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        self._build(n, [x for u, v in edges for x in (u, v)])

    @classmethod
    def from_ends(cls, n: int, ends: list[int]) -> Graph:
        """Graph(n, edges) with edge i from ends[2i] to ends[2i+1], and no tuple per edge."""
        g = cls.__new__(cls)
        g._build(n, ends)
        return g

    def _build(self, n: int, ends: list[int]) -> None:
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        if n > MAX_VERTICES:  # checked before any vertex is allocated
            raise GraphError(f"vertex count {n} above the limit of {MAX_VERTICES}")
        lists: list[list[int]] = [[] for _ in range(n)]
        pairs = iter(ends)
        try:  # an endpoint at or past n, or below -n, is no index of `lists`
            for u, v in zip(pairs, pairs):
                lists[u].append(v)
                lists[v].append(u)
        except IndexError:
            _raise_first_offender(n, ends)
        nbrs = tuple([tuple(a.sort() or a) for a in lists])
        # an endpoint in -n..-1 indexed a list from its end, and its partner's
        # tuple starts with it; a loop at u lists u twice in u's tuple, a repeated
        # edge uv lists v twice: either way a throwaway set of that tuple is shorter
        least = min(map(itemgetter(0), filter(None, nbrs)), default=0)
        if least < 0 or sum(map(len, map(set, nbrs))) != len(ends):
            _raise_first_offender(n, ends)
        self._nbrs = nbrs
        self.n = n
        self.m = len(ends) // 2

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in ascending order; GraphError unless 0 <= v < n."""
        if v >= 0:  # a negative index would wrap around to another vertex
            try:
                return self._nbrs[v]
            except IndexError:
                pass
        raise GraphError(f"vertex {v} out of range for n={self.n}")

    def neighborhood(self, vertices: Iterable[int]) -> set[int]:
        """Every neighbor of some vertex in `vertices`, in one C-level union.
        Unchecked: every id must be in 0..n-1."""
        return set().union(*map(self._nbrs.__getitem__, vertices))

    def has_edge(self, u: int, v: int) -> bool:
        """Whether uv is an edge: False for any other pair, ids outside 0..n-1 included."""
        nbrs = self._nbrs[u] if 0 <= u < self.n else ()
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def edges(self) -> list[Edge]:
        """All edges as (u, v) with u < v, sorted."""
        return [(u, v) for u in range(self.n) for v in self._nbrs[u] if u < v]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._nbrs == other._nbrs

    def __hash__(self) -> int:
        return hash((self.n, self._nbrs))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class TreeSubgraph(NamedTuple):
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


class Walk(NamedTuple):
    """The piece of a region that holds a root, and its split into the two
    depth-parity classes, the root's first, when the piece is bipartite."""

    piece: frozenset[int]
    sides: tuple[frozenset[int], frozenset[int]] | None


def component_walk(g: Graph, root: int, within: AbstractSet[int] | None = None) -> Walk:
    """Walk the piece holding `root` of the region `within` (all of g when
    None) a breadth-first level at a time, 2-coloring it by depth parity.

    An edge inside a level closes an odd cycle, so each level is tested for
    one first. From the first such level on, the walk finishes the piece as
    plain reachability, one edge at a time, and `sides` is None. (On a
    2-core machine with CPython 3.11 that timed about 20% faster than whole
    levels of set algebra on sparse pieces of a few thousand vertices; the
    levels won only near 10^5.)
    While it still 2-colors, every vertex after the root must list a
    reached vertex of the other parity: the edge it was reached by. A
    neighbor tuple that lists none is a bug, raised as the growth's extend
    check would raise it, and the growth, fed the same tuples, checks any
    other fault. A root outside `within` raises GraphError.
    """
    if within is not None and root not in within:
        raise GraphError(f"root {root} is not in the region")
    mine, other = {root}, set()  # reached vertices: the current level's parity, the other one
    level: AbstractSet[int] = mine
    while level:
        tuples = list(map(g.neighbors, level))
        reach = set().union(*tuples)
        if not mine.isdisjoint(reach):  # an edge inside the level
            break
        if other and any(map(other.isdisjoint, tuples)):  # past the root, each needs an edge back
            raise InvariantViolation("move failed to increase crossing edges")
        if within is not None:
            reach &= within
        level = reach - other
        other |= level
        mine, other = other, mine
    else:
        a, b = map(frozenset, (mine, other) if root in mine else (other, mine))
        return Walk(a | b, (a, b))
    mine |= other  # every vertex reached: from the level with the inner edge on, one edge at a time
    order = list(level)
    for x in order:
        for y in g.neighbors(x):
            if y not in mine and (within is None or y in within):
                mine.add(y)
                order.append(y)
    return Walk(frozenset(mine), None)


def component_walks(g: Graph) -> Iterator[Walk]:
    """The walk of each connected piece of g from its minimum vertex, in
    that order, one at a time: a caller that stops early walks no more. A
    piece that holds every vertex not yet walked is the last."""
    seen: set[int] = set()  # the vertices of the pieces walked so far
    for s in range(g.n):
        if s not in seen:
            walk = component_walk(g, s)
            yield walk
            if len(walk.piece) == g.n - len(seen):
                return
            seen |= walk.piece


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Maximal connected pieces of g, ordered by their minimum vertex: the
    pieces of component_walks."""
    return [walk.piece for walk in component_walks(g)]


def touching(g: Graph, xs: Collection[int], ys: AbstractSet[int]) -> Iterator[int]:
    """The vertices of `xs` with a neighbor in `ys`, in the order of `xs`, by
    one C-level scan of their neighbor tuples that stops when the caller does."""
    return compress(xs, map(not_, map(ys.isdisjoint, map(g.neighbors, xs))))


def is_connected(g: Graph, within: Iterable[int]) -> bool:
    ws = _checked_set(g, within)
    return not ws or len(bfs(g, min(ws), ws)) == len(ws)


def induced_edge_count(g: Graph, vertices: Iterable[int]) -> int:
    vs = frozenset(vertices)
    return sum(map(len, map(vs.intersection, map(g.neighbors, vs)))) // 2
