"""Test-only graph checks and reference implementations.

`bipartition_or_odd_cycle` is an independent bipartiteness check with an
odd-cycle witness; the pipeline never needs one. `outcome` turns a call
into its result or its error, for comparing two implementations.
`format_dimacs` writes the DIMACS text that `graph_io.read_dimacs` reads,
for round-trip tests; the pipeline only reads DIMACS. `sparse_gnp` samples
G(n,p) in time linear in n + m, for tests at sizes where the pair loop of
`generators.gnp` is too slow; its edges differ from `gnp`'s for the same
seed. `random_tree`, `sparse_bipartite` (the same skipping over the cross
pairs of a random tree) and `complete_bipartite` build bipartite inputs,
and `BIPARTITE_FAMILIES` collects them, with grids and denser graphs, for
the runs at every t. `partial_ktree`, `triangulated_grid` and `apollonian`
build inputs with no K_{k+2} or K_5 minor, for the runs at the t they
exclude. The `*_reference` functions are earlier versions of pipeline
functions, kept so differential tests can compare the rewrites against
them:

* `connected_components_reference`, `is_connected_reference` and
  `tree_depth_parity_reference`: the deque loops that `graph.bfs`
  replaced, the last being the second BFS, over the component's tree, that
  colored the stuck component in certificate extraction;
* `spanning_tree_reference`: the reference for the trees certificate
  extraction builds, from `spanner.cross_bfs(g, H, A, B)` for each part
  (with a crossing-edge predicate) and from `graph.bfs` for the stuck
  component;
* `cross_components_reference`: the seed's stack-based crossing-subgraph
  traversal, listing every piece by minimum vertex; `spanner.cross_bfs`
  walks only the first, the piece of min(H), which is what
  `cross_connected` tests and what `refine_triple`'s reconnect swaps;
* `max_side_component_reference` and `triple_violation_reference`: the
  side check that traverses from every vertex of the side, and the spanner
  postcondition that runs the BFS connectivity test on every H and sweeps
  every region vertex outside H;
* `maximal_bipartite_part_reference`, `pick_component_reference` and
  `refine_triple_reference`: the versions that rescan the whole region on
  every step and recheck every local-search move from scratch;
* `two_coloring_walk_reference`: the 2-coloring walk that
  `maximal_bipartite_part` ran by itself, a level at a time, before
  `graph.component_walk` became the one walk that finds a component and
  2-colors it;
* `terminals_reference`: per part adjacent to a picked component, the
  least component vertex next to it, found by testing every component
  vertex; decompose scans for these only when it builds a spanner request,
  and the tests hold each request's terminals to it;
* `refine_triple_two_loops`: the local search as one loop per move kind,
  reconnects then extends, each with its own copy of the per-move checks
  and the `MoveEvent`, before every move became one checked step;
* `bounded_bipartition_reference`: the recursive backtracking, one Python
  frame per vertex;
* `minimum_connector_reference`: the connector program with no bound, which
  grows every state over the whole component, the full subset's too, and
  finds terminals in different pieces only when the full subset is empty;
* `decomposition_violation_reference`: the recheck that checks every
  part's local guarantees (`part_fault_reference`), recomputes the
  uncovered components at every prefix and scans every earlier part for
  each of them, cubic in the worst case, and then every pair of parts for
  the records. `full_recheck` is the check the tests hold decompose's
  outputs to: `part_fault_reference` on every part, then
  `decomposition_violation`, which leaves each part's local guarantees to
  the step that built it;
* `decompose_reference`: decompose while it took a vertex set as its
  region and proved it connected lazily, by a raise on a pick with no
  adjacent part and a walk of every leftover piece of a stuck run, before
  it took the walk of a connected piece;
* `parts_adjacent_reference`: the graph scan that tested two parts for
  adjacency, which decompose ran on every pair of a picked component's
  adjacent parts before each part recorded its earlier neighbors;
  `with_records` uses it to give hand-built or random parts the records
  decompose gives its own;
* `build_auxiliary_reference` and `verify_coloring_reference`: the part
  graph read off every edge of g, and the coloring verifier that sorts
  every monochromatic component and scans every one for its defect.

* `graph_reference` and `read_edgelist_reference`: the per-edge `Graph`
  construction, which checked each edge and added it to two growing sets,
  and the line loop that parsed every edge-list text into one tuple per
  edge; `graph_layout` is what they must match in the bulk versions: n, m
  and every neighbor tuple.

The references call each other rather than the rewritten functions, so a
differential test compares two independent computations. The exceptions
are `spanner_general_path`, made of the pipeline's own connector, split and
local search: build_spanner without its postcondition, and the reference
for the one-vertex parts that decompose makes without it; and
`bipartite_growth`, the pipeline's own local search grown from the
region's minimum vertex: the reference for the first parts that
maximal_bipartite_part finds by its 2-coloring walk, without the growth;
and `decompose_reference`, which calls the pipeline's pick, spanner and
recheck, so that only decompose's own steps differ; and
`refine_triple_two_loops`, which calls the pipeline's crossing walk and
counts, so that only the shape of the move loop differs. `region_walk`
walks a region from its minimum vertex, the walk decompose takes, and
`first_part` runs maximal_bipartite_part on that walk as decompose does:
the tests reach the function only through it. `load_workloads` loads the
benchmark's input generator from `perfbench/workloads.py`, and
`spanner_requests` records every request decompose sends build_spanner.
"""

from __future__ import annotations

import heapq
import importlib
import math
import random
import re
import types
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import AbstractSet, Callable, Iterable

import pytest

from oddcluster import generators as gen
from oddcluster.coloring import ClusteredColoring, ColoringRejection, ColoringReport
from oddcluster.decompose import (
    DecomposeOutcome,
    Decomposition,
    Part,
    StuckState,
    decomposition_violation,
    maximal_bipartite_part,
    pick_component,
)
from oddcluster.graph import (
    MAX_VERTICES,
    Edge,
    Graph,
    GraphError,
    InvariantViolation,
    TreeSubgraph,
    Walk,
    _checked_set,
    bfs,
    component_walk,
    induced_edge_count,
    norm_edge,
    touching,
)
from oddcluster.spanner import (
    TERMINAL_CAP,
    MoveEvent,
    OnMove,
    SpannerRequest,
    Triple,
    bounded_bipartition,
    build_spanner,
    count_cross_edges,
    cross_bfs,
    max_side_component,
    minimum_connector,
    refine_triple,
)


@dataclass(frozen=True)
class OddClosedWalk:
    """Closed walk of odd edge count; first and last entries coincide."""

    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1


def outcome(fn, *args, **kwargs):
    """What a call returns, or the GraphError or InvariantViolation it
    raises, for differential tests."""
    try:
        return fn(*args, **kwargs)
    except (GraphError, InvariantViolation) as exc:
        return type(exc), str(exc)


def sparse_gnp(n: int, p: float, seed: int = 0) -> Graph:
    """G(n,p) for 0 < p < 1 by geometric skipping (Batagelj and Brandes 2005):
    the gap to the next kept pair in the order (0,1), (0,2), (1,2), (0,3), ...
    is geometric, so one draw per edge suffices."""
    rng = random.Random(seed)
    log_q = math.log(1.0 - p)
    edges = []
    v, w = 1, -1
    while v < n:
        w += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((w, v))
    return Graph(n, edges)


def random_tree(n: int, seed: int = 0) -> Graph:
    """A random recursive tree: each vertex after 0 joins a uniform earlier one."""
    rng = random.Random(seed)
    return Graph(n, [(rng.randrange(v), v) for v in range(1, n)])


def sparse_bipartite(n: int, p: float, seed: int = 0) -> Graph:
    """A random recursive tree plus each pair across its two depth-parity
    classes kept with probability p, 0 < p < 1: connected and bipartite.
    The family of `generators.connected_bipartite`, sampled in time linear
    in n + m by the geometric skipping of `sparse_gnp` over the cross
    pairs, in the order (x0,y0), (x0,y1), ...; its edges differ for the
    same seed."""
    rng = random.Random(seed)
    parent = [0] + [rng.randrange(v) for v in range(1, n)]
    odd = [False] * n
    for v in range(1, n):
        odd[v] = not odd[parent[v]]
    xs = [v for v in range(n) if not odd[v]]
    ys = [v for v in range(n) if odd[v]]
    edges = {(parent[v], v) for v in range(1, n)}
    log_q = math.log(1.0 - p)
    k = -1
    while True:
        k += 1 + int(math.log(1.0 - rng.random()) / log_q)
        if k >= len(xs) * len(ys):
            return Graph(n, sorted(edges))
        edges.add(norm_edge(xs[k // len(ys)], ys[k % len(ys)]))


def partial_ktree(n: int, k: int, keep: float, seed: int = 0) -> Graph:
    """A random k-tree on n vertices, each edge then kept with probability
    `keep`, the labels shuffled. The k-tree starts from a clique on min(n,
    k+1) vertices, and each later vertex joins every vertex of a uniform
    k-clique made so far. Its treewidth is at most k, so it has no K_{k+2}
    minor."""
    rng = random.Random(seed)
    label = list(range(n))
    rng.shuffle(label)
    edges = [(u, v) for v in range(min(n, k + 1)) for u in range(v)]
    cliques = [tuple(u for u in range(k + 1) if u != w) for w in range(k + 1)] if n > k else []
    for v in range(k + 1, n):
        clique = rng.choice(cliques)
        edges.extend((u, v) for u in clique)
        cliques.extend(clique[:i] + clique[i + 1:] + (v,) for i in range(k))
    return Graph(n, [(label[u], label[v]) for u, v in edges if rng.random() < keep])


def triangulated_grid(s: int) -> Graph:
    """The s x s grid with the diagonal from each cell's top-left to its
    bottom-right corner: planar, so it has no K_5 minor."""
    edges = []
    for r in range(s):
        for c in range(s):
            v = r * s + c
            if c + 1 < s:
                edges.append((v, v + 1))
            if r + 1 < s:
                edges.append((v, v + s))
                if c + 1 < s:
                    edges.append((v, v + s + 1))
    return Graph(s * s, edges)


def apollonian(n: int, seed: int = 0) -> Graph:
    """A random Apollonian network on n >= 3 vertices: a triangle, then each
    later vertex placed in a uniform face, joined to its three corners, and
    splitting it into three. Planar, so it has no K_5 minor."""
    rng = random.Random(seed)
    edges = [(0, 1), (0, 2), (1, 2)]
    faces = [(0, 1, 2)]
    for v in range(3, n):
        i = rng.randrange(len(faces))
        a, b, c = faces[i]
        edges += (a, v), (b, v), (c, v)
        faces[i] = (a, b, v)
        faces += (a, c, v), (b, c, v)
    return Graph(n, edges)


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}; for a <= b it has a plain K_{a+1} minor: contract a-1
    edges of a matching, and keep one more vertex on each side."""
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


# Bipartite inputs by id, each built by a call with no arguments: grids,
# trees, random connected bipartite graphs from sparse to dense (the dense
# ones and K_{12,12} have plain K_t minors for every t up to 8, and even
# larger ones), and one disconnected input. None has an odd K_t expansion
# for t >= 3, as such an expansion holds an odd cycle.
BIPARTITE_FAMILIES: dict[str, Callable[[], Graph]] = {
    "edge": lambda: Graph(2, [(0, 1)]),
    "cycle-6": lambda: gen.cycle(6),
    "grid-3x3": lambda: gen.grid(3, 3),
    "grid-100x100": lambda: gen.grid(100, 100),
    "grid-20x500": lambda: gen.grid(20, 500),
    "tree-10000": lambda: random_tree(10**4, 1),
    "sparse-bipartite-10000-deg6": lambda: sparse_bipartite(10**4, 8 / 10**4, 2),
    "sparse-bipartite-10000-deg20": lambda: sparse_bipartite(10**4, 36 / 10**4, 3),
    "connected-bipartite-2000-p0.01": lambda: gen.connected_bipartite(2000, 0.01, 4),
    "connected-bipartite-300-p0.5": lambda: gen.connected_bipartite(300, 0.5, 5),
    "complete-bipartite-12-12": lambda: complete_bipartite(12, 12),
    "random-bipartite-2000-disconnected": lambda: gen.random_bipartite(2000, 0.0005, 6),
}


def bipartite_growth(g: Graph, within: Iterable[int] | None = None) -> Part:
    """Part 1 as refine_triple's extend search grows it from H = A = {r},
    r = min(region), under side bound 1, one heap pop at a time: what
    maximal_bipartite_part ran on every region before its 2-coloring walk,
    and still runs on a region that is not bipartite."""
    pool = frozenset(range(g.n)) if within is None else frozenset(within)
    seed = frozenset((min(pool),))
    grown = refine_triple(SpannerRequest(g, pool, seed, 1), Triple(seed, seed, frozenset(), 0))
    return Part(1, grown.h_vertices, grown.side_a, grown.side_b)


def region_walk(g: Graph, region: Iterable[int] | None = None) -> Walk:
    """component_walk of the region (all of g when None) from its minimum
    vertex: the walk to hand decompose. Its piece is the region when the
    region is connected, else the region's piece holding that vertex."""
    pool = None if region is None else frozenset(region)
    return component_walk(g, min(range(g.n) if pool is None else pool), pool)


def first_part(g: Graph, within: Iterable[int] | None = None) -> Part:
    """maximal_bipartite_part on the region's walk (all of g when None), as
    decompose runs it: range-checked and refused when empty, as
    maximal_bipartite_part_reference refuses it."""
    pool = frozenset(range(g.n)) if within is None else _checked_set(g, within)
    if not pool:
        raise GraphError("empty region")
    return maximal_bipartite_part(g, region_walk(g, pool))


@contextmanager
def spanner_requests():
    """Within the block, the list of every request decompose sends build_spanner."""
    sent = []
    decompose_module = importlib.import_module("oddcluster.decompose")  # the package exports a function of that name
    real = decompose_module.build_spanner

    def recording(req, on_move=None):
        sent.append(req)
        return real(req, on_move=on_move)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decompose_module, "build_spanner", recording)
        yield sent


def format_dimacs(g: Graph) -> str:
    out = [f"p edge {g.n} {g.m}"]
    out.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(out) + "\n"


def load_workloads() -> types.ModuleType:
    """`perfbench/workloads.py`, compiled in memory, so nothing is written
    next to the benchmark's files."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def graph_reference(n: int, edges: Iterable[Edge] = ()) -> Graph:
    """A Graph built edge by edge: each edge checked against two growing
    sets, then added to them, and every set sorted into a tuple at the end."""
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    if n > MAX_VERTICES:
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
    g = Graph.__new__(Graph)
    g.n = n
    g.m = sum(map(len, adj)) // 2
    g._nbrs = tuple(tuple(sorted(a)) for a in adj)
    return g


def _int_pair_reference(line: str, context: str) -> Edge:
    """The two numbers of a stripped line of two tokens; a bad one is
    reported by the line as written."""
    parts = line.split()
    try:
        if not all(re.fullmatch("[+-]?[0-9]+", tok) for tok in parts):
            raise ValueError(parts)
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise GraphError(f"bad {context} line: {line!r}") from exc


def read_edgelist_reference(text: str) -> Graph:
    """The line loop: strip every line, drop blanks and `#` comments, split
    each line and parse it into an edge tuple."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError(f"bad header line: {lines[0]!r}")
    n, m = _int_pair_reference(lines[0], "header")
    if len(lines) - 1 != m:
        raise GraphError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        if len(ln.split()) != 2:
            raise GraphError(f"bad edge line: {ln!r}")
        edges.append(_int_pair_reference(ln, "edge"))
    return graph_reference(n, edges)


def graph_layout(g: Graph) -> tuple:
    """n, m and the sorted neighbor tuples: all that a Graph stores."""
    return g.n, g.m, [g.neighbors(v) for v in range(g.n)]


def bipartition_or_odd_cycle(
    g: Graph, within: Iterable[int]
) -> tuple[frozenset[int], frozenset[int]] | OddClosedWalk:
    """Two-color the connected induced subgraph on `within`, or witness failure.

    On success returns (side_a, side_b) with side_a holding the minimum
    vertex and every induced edge crossing sides. On failure returns a
    simple cycle of odd length as an OddClosedWalk.
    """
    ws = frozenset(within)
    if not ws:
        raise GraphError("within must be nonempty")
    if not is_connected_reference(g, ws):
        raise GraphError("within does not induce a connected subgraph")
    root = min(ws)
    parent = {root: root}
    depth = {root: 0}
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for y in g.neighbors(x):
            if y not in ws:
                continue
            if y in depth:
                if depth[y] % 2 == depth[x] % 2:
                    return _odd_cycle(parent, depth, x, y)
            else:
                parent[y] = x
                depth[y] = depth[x] + 1
                queue.append(y)
    side_a = frozenset(v for v in ws if depth[v] % 2 == 0)
    return side_a, ws - side_a


def _odd_cycle(parent: dict[int, int], depth: dict[int, int], x: int, y: int) -> OddClosedWalk:
    # Climb both endpoints to their lowest common ancestor; the two tree
    # paths plus the violating edge form a simple odd cycle.
    px, py = [x], [y]
    a, b = x, y
    while depth[a] > depth[b]:
        a = parent[a]
        px.append(a)
    while depth[b] > depth[a]:
        b = parent[b]
        py.append(b)
    while a != b:
        a = parent[a]
        px.append(a)
        b = parent[b]
        py.append(b)
    walk = px + list(reversed(py))[1:]
    walk.append(x)
    return OddClosedWalk(tuple(walk))


def _checked_set_reference(g: Graph, within: Iterable[int]) -> frozenset[int]:
    ws = frozenset(within)
    for v in ws:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} out of range for n={g.n}")
    return ws


def connected_components_reference(
    g: Graph,
    within: Iterable[int] | None = None,
    allowed: Callable[[int, int], bool] | None = None,
) -> list[frozenset[int]]:
    """Maximal connected pieces of the (restricted) vertex set, optionally
    using only the edges (x, y) the `allowed` predicate accepts.

    Pieces are ordered by their minimum contained vertex.
    """
    pool = frozenset(range(g.n)) if within is None else _checked_set_reference(g, within)
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


def is_connected_reference(g: Graph, within: Iterable[int] | None = None) -> bool:
    return len(connected_components_reference(g, within)) <= 1


def spanning_tree_reference(
    g: Graph,
    within: Iterable[int],
    allowed: Callable[[int, int], bool] | None = None,
) -> TreeSubgraph:
    """Deterministic BFS tree covering `within`.

    Rooted at the minimum vertex, neighbors visited in ascending order,
    optionally restricted to edges the `allowed` predicate accepts.
    """
    ws = _checked_set_reference(g, within)
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


def tree_depth_parity_reference(tree: TreeSubgraph) -> dict[int, int]:
    """Depth parity of every tree vertex, by BFS over the tree's own edges
    from its minimum vertex; the stuck component is colored 1 at parity 0
    and 2 at parity 1."""
    adj: dict[int, list[int]] = {v: [] for v in tree.vertices}
    for u, v in tree.edges:
        adj[u].append(v)
        adj[v].append(u)
    root = min(tree.vertices)
    parity = {root: 0}
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for y in sorted(adj[x]):
            if y not in parity:
                parity[y] = 1 - parity[x]
                queue.append(y)
    return parity


def cross_components_reference(
    host: Graph, h_vertices: Iterable[int], side_a: Iterable[int], side_b: Iterable[int]
) -> list[frozenset[int]]:
    """Components of the crossing subgraph: vertices of H, side-crossing edges only."""
    hs = frozenset(h_vertices)
    sa = frozenset(side_a)
    sb = frozenset(side_b)
    comps = []
    unseen = set(hs)
    for s in sorted(hs):
        if s not in unseen:
            continue
        unseen.discard(s)
        comp = {s}
        stack = [s]
        while stack:
            x = stack.pop()
            opposite = sb if x in sa else sa
            for y in host.neighbors(x):
                if y in opposite and y in unseen:
                    unseen.discard(y)
                    comp.add(y)
                    stack.append(y)
        comps.append(frozenset(comp))
    return comps


def max_side_component_reference(host: Graph, side: Iterable[int]) -> int:
    """Size of the largest component that `side` induces, by a traversal
    from every vertex of the side."""
    return max((len(c) for c in connected_components_reference(host, side)), default=0)


def maximal_bipartite_part_reference(g: Graph, within: Iterable[int] | None = None) -> Part:
    """Grow a connected bipartite induced set from the minimum vertex until no
    adjacent vertex can join without creating an odd cycle.

    Candidates are scanned in ascending order each round. Since the induced
    set stays connected and bipartite, its parity classes never change, so a
    once-rejected vertex stays rejected. Side A holds the root.
    """
    pool = frozenset(range(g.n)) if within is None else frozenset(within)
    if not pool:
        raise GraphError("empty region")
    root = min(pool)
    color = {root: 0}
    while True:
        grown = False
        for v in sorted(pool - color.keys()):
            colored_nbrs = frozenset(g.neighbors(v)) & color.keys()
            if not colored_nbrs:
                continue
            classes = {color[u] for u in colored_nbrs}
            if len(classes) == 1:
                color[v] = 1 - classes.pop()
                grown = True
                break
        if not grown:
            break
    verts = frozenset(color)
    side_a = frozenset(v for v in verts if color[v] == 0)
    return Part(1, verts, side_a, verts - side_a)


def two_coloring_walk_reference(
    g: Graph, pool: frozenset[int]
) -> tuple[frozenset[int], frozenset[int]] | None:
    """The split of min(pool)'s piece of `pool` by depth parity, root's side
    first, or None when a BFS level holds an edge: maximal_bipartite_part's
    inline walk, its loop copied as it was, with None where it went on to
    the growth."""
    root = min(pool)
    mine, other = {root}, set()  # reached vertices: the current level's parity, the other one
    level: AbstractSet[int] = mine
    while level:
        tuples = list(map(g.neighbors, level))
        reach = set().union(*tuples)
        if not mine.isdisjoint(reach):  # an edge inside the level: an odd cycle, so grow
            return None
        if other and any(map(other.isdisjoint, tuples)):  # past the root, each needs an edge into H
            raise InvariantViolation("move failed to increase crossing edges")
        level = pool.intersection(reach) - other
        other |= level
        mine, other = other, mine
    a, b = map(frozenset, (mine, other) if root in mine else (other, mine))
    return a, b


def pick_component_reference(
    g: Graph, parts: Iterable[Part], within: Iterable[int] | None = None
) -> tuple[frozenset[int], list[Part]]:
    """Uncovered component holding the minimum uncovered vertex, plus every
    part adjacent to it in ascending index order."""
    pool = frozenset(range(g.n)) if within is None else frozenset(within)
    parts = list(parts)
    covered: set[int] = set()
    for p in parts:
        covered |= p.vertices
    uncovered = pool - covered
    if not uncovered:
        raise GraphError("nothing left to pick: parts cover the region")
    comp = connected_components_reference(g, uncovered)[0]
    adjacent = [p for p in parts if any(frozenset(g.neighbors(v)) & p.vertices for v in comp)]
    return comp, adjacent


def terminals_reference(g: Graph, comp: AbstractSet[int], adjacent: Iterable[Part]) -> list[int]:
    """Per adjacent part, the minimum component vertex next to it: the
    terminals of the spanner request decompose builds for the component."""
    return [min(v for v in comp if frozenset(g.neighbors(v)) & p.vertices) for p in adjacent]


def minimum_connector_reference(host: Graph, component: Iterable[int], terminals: Iterable[int]) -> frozenset[int]:
    """Smallest vertex set inside `component` containing every terminal whose
    induced subgraph is connected, by the dynamic program with no bound:
    every state is grown over the whole component, the full subset's too.

    Exact dynamic program over (terminal subset, anchor vertex) states with
    unit vertex weights, exponential in the terminal count, hence the cap.
    States carry witness sets; ties fall to the smaller sorted vertex list,
    so the result is deterministic. The component need not be connected;
    GraphError is raised when no connected set inside it holds every
    terminal, which the search finds out without a walk of its own.
    """
    comp = frozenset(component)
    terms = sorted(_checked_set(host, terminals))
    if not terms:
        raise GraphError("terminals must be nonempty")
    if len(terms) > TERMINAL_CAP:
        raise GraphError(f"terminal budget exceeded: {len(terms)} > {TERMINAL_CAP}")
    for t in terms:
        if t not in comp:
            raise GraphError(f"terminal {t} outside component")
    k = len(terms)
    if k == 1:
        return frozenset(terms)

    full = (1 << k) - 1
    # best[mask][v] = (size, sorted tuple, set): the cheapest known connected
    # set containing v and the terminals selected by mask.
    best: list[dict[int, tuple[int, tuple[int, ...], frozenset[int]]]] = [
        {} for _ in range(full + 1)
    ]
    for i, t in enumerate(terms):
        best[1 << i][t] = (1, (t,), frozenset((t,)))

    for mask in range(1, full + 1):
        layer = best[mask]
        # merge complementary sub-connectors anchored at a shared vertex
        sub = (mask - 1) & mask
        while sub:
            rest = mask ^ sub
            if sub < rest:
                for v, (_, _, set1) in best[sub].items():
                    entry = best[rest].get(v)
                    if entry is None:
                        continue
                    union = set1 | entry[2]
                    key = (len(union), tuple(sorted(union)))
                    cur = layer.get(v)
                    if cur is None or key < cur[:2]:
                        layer[v] = (key[0], key[1], union)
            sub = (sub - 1) & mask
        # grow along edges, cheapest-first with lazy deletion
        heap = [(size, tup, v) for v, (size, tup, _) in layer.items()]
        heapq.heapify(heap)
        while heap:
            size, tup, v = heapq.heappop(heap)
            cur = layer.get(v)
            if cur is None or (size, tup) != cur[:2]:
                continue
            vset = cur[2]
            for w in host.neighbors(v):
                if w not in comp:
                    continue
                union = vset if w in vset else vset | {w}
                key = (len(union), tuple(sorted(union)))
                old = layer.get(w)
                if old is None or key < old[:2]:
                    layer[w] = (key[0], key[1], union)
                    heapq.heappush(heap, (key[0], key[1], w))

    final = best[full]
    if not final:  # no connected set inside the component holds every terminal
        raise GraphError("terminals are not connected inside the component")
    winner = min(final.values(), key=lambda e: e[:2])
    return winner[2]


def spanner_general_path(req: SpannerRequest, on_move: OnMove | None = None) -> Triple:
    """Minimum connector, feasible split, then local search: build_spanner
    without its postcondition check."""
    w = minimum_connector(req.host, req.component, req.terminals)
    side_a, side_b = bounded_bipartition(req.host, w, req.bound)
    return refine_triple(req, Triple(w, side_a, side_b, 0), on_move=on_move)


def refine_triple_reference(req: SpannerRequest, start: Triple, on_move: OnMove | None = None) -> Triple:
    """Apply the two improving moves until neither fires, rechecking the
    crossing-edge count, the edges inside H and both side bounds from
    scratch after every move."""
    g = req.host
    h = set(start.h_vertices)
    a = set(start.side_a)
    b = set(start.side_b)
    if (a | b) != h or (a & b):
        raise GraphError("start sides do not partition H")
    if not req.terminals <= start.h_vertices <= req.component:
        raise GraphError("start H must sit between terminals and component")
    if max(max_side_component_reference(g, a), max_side_component_reference(g, b)) > req.bound:
        raise GraphError("start violates the side-component bound")

    cross = count_cross_edges(g, a, b)
    moves = 0
    while True:
        kind = None
        comps = cross_components_reference(g, h, a, b)
        if len(comps) > 1:
            top = min(h)
            x = next(c for c in comps if top in c)
            y = h - x
            # set(): the seed version kept frozensets here, so an extend
            # after a reconnect crashed on a.add
            a, b = set((x & a) | (y & b)), set((x & b) | (y & a))
            kind = "reconnect"
        else:
            for v in sorted(req.component - h):
                nbrs = frozenset(g.neighbors(v))
                if not nbrs & h:
                    continue
                if not nbrs & a:
                    h.add(v)
                    a.add(v)
                    kind = "extend"
                    break
                if not nbrs & b:
                    h.add(v)
                    b.add(v)
                    kind = "extend"
                    break
        if kind is None:
            break
        moves += 1
        new_cross = count_cross_edges(g, a, b)
        if new_cross <= cross:
            raise InvariantViolation("move failed to increase crossing edges")
        inner = induced_edge_count(g, h)
        if new_cross > inner:
            raise InvariantViolation("crossing edges exceeded the edges inside H")
        if max(max_side_component_reference(g, a), max_side_component_reference(g, b)) > req.bound:
            raise InvariantViolation("move broke the side-component bound")
        if on_move is not None:
            on_move(MoveEvent(kind, cross, new_cross, moves, inner))
        cross = new_cross
    return Triple(frozenset(h), frozenset(a), frozenset(b), cross)


def refine_triple_two_loops(req: SpannerRequest, start: Triple, on_move: OnMove | None = None) -> Triple:
    """Apply the two improving moves until neither fires.

    Reconnect: while the crossing subgraph is disconnected, swap the side
    labels on the piece holding the minimum vertex of H against the rest;
    same-side edges between the pieces become crossing edges. That piece is
    the walk `cross_bfs(host, H, A, B)`, which misses a vertex of H exactly
    when the subgraph is disconnected; the start checks range-check H.

    Extend: the smallest outside vertex adjacent to H that misses side A
    (else side B) joins that side; all its edges into H become crossing.

    Both moves strictly increase the crossing-edge count and preserve the
    side-component bound, and crossing edges lie inside H, so the loop ends
    within the edges inside H. Violations of any of these facts raise
    InvariantViolation. The edges inside H are known at no cost: an extended
    vertex brings exactly its gain in edges into H, and a reconnect leaves
    H alone.

    Reconnects run first and recount crossing edges and side components
    from scratch. Extends keep the crossing subgraph connected, so once it
    is connected only extends fire, and each costs O(deg v log n):
    candidates come from a min-heap frontier that each outside neighbor of
    H enters once, and a popped candidate that sees both sides is dropped
    for good, since H and both sides only grow. An extended vertex v has no
    neighbor on its new side, so it is a singleton there and the crossing
    count rises by its number of neighbors in H, counted in the one pass
    that queues its other region neighbors. The per-move checks test these
    facts in O(deg v): no neighbor on the new side, a gain of at least 1, no
    more crossing edges than edges inside H.

    Each loop checks its own moves in its body, with no call per move, in
    one order: a gain of at least 1, the crossing edges against the edges
    inside H, the side bound (for an extend, no neighbor on the new side),
    and only then the `on_move` event.
    """
    g = req.host
    h = set(start.h_vertices)
    a = set(start.side_a)
    b = set(start.side_b)
    if (a | b) != h or (a & b):
        raise GraphError("start sides do not partition H")
    if not req.terminals <= start.h_vertices <= req.component:
        raise GraphError("start H must sit between terminals and component")
    if max_side_component(g, a) > req.bound or max_side_component(g, b) > req.bound:
        raise GraphError("start violates the side-component bound")

    inner = induced_edge_count(g, h)  # edges inside H
    cross = count_cross_edges(g, a, b)
    moves = 0

    while h and len(piece := cross_bfs(g, h, a, b)[0]) < len(h):
        x = set(piece)  # the piece holding min(H)
        y = h - x
        a, b = (x & a) | (y & b), (x & b) | (y & a)
        bound_holds = max(max_side_component(g, a), max_side_component(g, b)) <= req.bound
        new_cross = count_cross_edges(g, a, b)
        moves += 1
        if new_cross <= cross:
            raise InvariantViolation("move failed to increase crossing edges")
        if new_cross > inner:
            raise InvariantViolation("crossing edges exceeded the edges inside H")
        if not bound_holds:
            raise InvariantViolation("move broke the side-component bound")
        if on_move is not None:
            on_move(MoveEvent("reconnect", cross, new_cross, moves, inner))
        cross = new_cross

    region = req.component  # a local: it is read once per neighbor
    frontier = sorted((g.neighborhood(h) & region) - h)  # a sorted list is a heap
    queued = set(frontier)  # every vertex that entered the frontier; H is tested first
    while frontier:
        v = heapq.heappop(frontier)
        nbrs = g.neighbors(v)
        if a.isdisjoint(nbrs):
            side = a
        elif b.isdisjoint(nbrs):
            side = b
        else:
            continue  # sees both sides, and will for good: H only grows
        gain = 0  # v has no neighbor on `side`: its neighbors in H are on the other one
        for w in nbrs:
            if w in h:
                gain += 1
            elif w in region and w not in queued:
                queued.add(w)
                heapq.heappush(frontier, w)
        h.add(v)
        side.add(v)
        inner += gain
        moves += 1
        if gain < 1:
            raise InvariantViolation("move failed to increase crossing edges")
        if cross + gain > inner:
            raise InvariantViolation("crossing edges exceeded the edges inside H")
        if not side.isdisjoint(nbrs):
            raise InvariantViolation("move broke the side-component bound")
        if on_move is not None:
            on_move(MoveEvent("extend", cross, cross + gain, moves, inner))
        cross += gain
    return Triple(frozenset(h), frozenset(a), frozenset(b), cross)


def triple_violation_reference(req: SpannerRequest, triple: Triple) -> str | None:
    """First violated spanner guarantee, or None: a BFS connectivity test on
    H, and a sweep over every region vertex outside H."""
    g = req.host
    h, a, b = triple.h_vertices, triple.side_a, triple.side_b
    if (a | b) != h or (a & b):
        return "sides do not partition H"
    if not req.terminals <= h:
        return "H misses a terminal"
    if not h <= req.component:
        return "H leaves the component"
    if not is_connected_reference(g, h):
        return "H is not connected"
    if triple.cross_edges != count_cross_edges(g, a, b):
        return "crossing edge count is wrong"
    if max(max_side_component_reference(g, a), max_side_component_reference(g, b)) > req.bound:
        return "a same-side component exceeds the bound"
    if len(cross_components_reference(g, h, a, b)) > 1:
        return "crossing subgraph is disconnected"
    for v in sorted(req.component - h):
        nbrs = frozenset(g.neighbors(v))
        if nbrs & h and (not nbrs & a or not nbrs & b):
            return f"outside vertex {v} does not see both sides"
    return None


def bounded_bipartition_reference(
    host: Graph, h_vertices: Iterable[int], bound: int
) -> tuple[frozenset[int], frozenset[int]]:
    """Split `h_vertices` into sides whose same-side components stay within
    `bound`, by recursive backtracking over a BFS order from the minimum
    vertex, depth-parity side first."""
    hs = frozenset(h_vertices)
    if bound < 1:
        raise GraphError("bound must be >= 1")
    if not hs:
        raise GraphError("h_vertices must be nonempty")
    root = min(hs)
    depth = {root: 0}
    order = [root]
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for y in host.neighbors(x):
            if y in hs and y not in depth:
                depth[y] = depth[x] + 1
                order.append(y)
                queue.append(y)
    if len(order) != len(hs):
        raise GraphError("h_vertices does not induce a connected subgraph")

    side: dict[int, int] = {}

    def component_size(v: int) -> int:
        target = side[v]
        seen = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            for y in host.neighbors(x):
                if y in hs and y not in seen and side.get(y) == target:
                    seen.add(y)
                    stack.append(y)
        return len(seen)

    def assign(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        preferred = depth[v] % 2
        for s in (preferred, 1 - preferred):
            side[v] = s
            if component_size(v) <= bound and assign(i + 1):
                return True
            del side[v]
        return False

    if not assign(0):
        raise InvariantViolation(
            "no bounded bipartition exists; h_vertices was not a minimum connector"
        )
    side_a = frozenset(v for v in order if side[v] == 0)
    return side_a, hs - side_a


def decomposition_violation_reference(
    g: Graph, d: Decomposition, within: Iterable[int] | None = None
) -> str | None:
    """First violated decomposition guarantee, recomputed from scratch; None if clean.

    Checks, for every part: sides partition it, it is connected, same-side
    components respect ceil((t-2)/2), and the crossing subgraph is connected.
    Then, for every prefix: uncovered neighbors of the last part see both its
    sides, and every uncovered component touches at most t-2 parts which are
    pairwise adjacent. Last, every part's record `earlier` must hold exactly
    the earlier parts adjacent to it.
    """
    pool = frozenset(range(g.n)) if within is None else frozenset(within)
    bound = (d.t - 1) // 2  # ceil((t-2)/2)
    seen: set[int] = set()
    for i, p in enumerate(d.parts):
        if p.index != i + 1:
            return f"part at position {i} has index {p.index}"
        if (p.side_a & p.side_b) or (p.side_a | p.side_b) != p.vertices:
            return f"part {p.index}: sides do not partition its vertices"
        if p.vertices & seen:
            return f"part {p.index}: overlaps an earlier part"
        seen |= p.vertices
        reason = part_fault_reference(g, p, bound)
        if reason is not None:
            return reason
    if seen != pool:
        return "parts do not cover the region"

    prefix: set[int] = set()
    for p in d.parts:
        prefix |= p.vertices
        rest = pool - prefix
        for v in sorted(rest):
            nbrs = frozenset(g.neighbors(v))
            if nbrs & p.vertices and (not nbrs & p.side_a or not nbrs & p.side_b):
                return f"vertex {v} adjacent to part {p.index} misses a side"
        for comp in connected_components_reference(g, rest):
            touched = [
                q for q in d.parts[: p.index] if any(frozenset(g.neighbors(w)) & q.vertices for w in comp)
            ]
            if len(touched) > d.t - 2:
                return f"a component after part {p.index} touches {len(touched)} parts"
            for j, q1 in enumerate(touched):
                for q2 in touched[j + 1 :]:
                    if not parts_adjacent_reference(g, q1, q2):
                        return (
                            f"parts {q1.index} and {q2.index} touch one component "
                            "but are not adjacent"
                        )
    for i, p in enumerate(d.parts):
        if {q.index for q in d.parts[:i] if parts_adjacent_reference(g, q, p)} != p.earlier:
            return f"part {p.index}: recorded earlier parts differ from those it touches"
    return None


def part_fault_reference(g: Graph, p: Part, bound: int) -> str | None:
    """The first local guarantee that part p breaks, or None: it must be
    connected, each side's components must have at most `bound` vertices,
    and its crossing subgraph must be connected."""
    if not is_connected_reference(g, p.vertices):
        return f"part {p.index}: not connected"
    if max(max_side_component_reference(g, side) for side in (p.side_a, p.side_b)) > bound:
        return f"part {p.index}: same-side component exceeds {bound}"
    if len(cross_components_reference(g, p.vertices, p.side_a, p.side_b)) > 1:
        return f"part {p.index}: crossing subgraph disconnected"
    return None


def full_recheck(g: Graph, d: Decomposition, within: Iterable[int] | None = None) -> str | None:
    """Every part's local guarantees by part_fault_reference, in part order,
    then decomposition_violation, which takes them from the step that built
    each part. The part checks share no code with the pipeline, so they also
    catch a fault in the spanner checks that vouch for decompose's parts.
    Where every part's index, sides and overlap are sound, the verdict is
    decomposition_violation_reference's."""
    bound = (d.t - 1) // 2  # ceil((t-2)/2)
    for p in d.parts:
        reason = part_fault_reference(g, p, bound)
        if reason is not None:
            return reason
    return decomposition_violation(g, d, within)


def parts_adjacent_reference(g: Graph, p: Part, q: Part) -> bool:
    """Whether some vertex of p has a neighbor in q."""
    return any(frozenset(g.neighbors(v)) & q.vertices for v in p.vertices)


def with_records(g: Graph, parts: Iterable[Part]) -> tuple[Part, ...]:
    """The parts, each with `earlier` set to the indices of the parts before
    it that are adjacent to it: the record decompose gives its parts."""
    parts = tuple(parts)
    return tuple(
        p._replace(earlier=frozenset(q.index for q in parts[:i] if parts_adjacent_reference(g, q, p)))
        for i, p in enumerate(parts)
    )


def decompose_reference(
    g: Graph, t: int, within: Iterable[int] | None = None, on_move: OnMove | None = None
) -> DecomposeOutcome:
    """decompose as it was while it took a region and proved it connected
    lazily: a pick with no adjacent part raised, and a stuck run walked
    every piece of the uncovered vertices outside its component for one
    that touches no part. Its code is copied as it was, but for part 1,
    which it takes from first_part, the old `within` path of
    maximal_bipartite_part."""
    if t < 3:
        raise GraphError("t must be >= 3")
    pool = frozenset(range(g.n)) if within is None else frozenset(within)
    if not pool:
        raise GraphError("empty region")
    disconnected = "region must induce a connected subgraph"

    parts = [first_part(g, pool)]
    covered = len(parts[0].vertices) == len(pool)  # part 1 covers the region: no state to keep
    uncovered = set() if covered else set(pool) - parts[0].vertices
    owner = {} if covered else dict.fromkeys(parts[0].vertices, 0)
    pending = deque(sorted(uncovered))
    while uncovered:
        comp, adjacent = pick_component(g, uncovered, pending, owner, parts)
        if not adjacent:
            raise GraphError(disconnected)
        for i, p in enumerate(adjacent):
            for q in adjacent[i + 1 :]:
                if p.index not in q.earlier:
                    raise InvariantViolation(
                        f"adjacent parts {p.index} and {q.index} are not pairwise adjacent"
                    )
        if len(adjacent) >= t - 1:
            rest = uncovered - comp
            while rest:  # each piece of the other uncovered vertices must touch a part
                piece = bfs(g, rest.pop(), rest)
                if owner.keys().isdisjoint(g.neighborhood(piece)):
                    raise GraphError(disconnected)
                rest.difference_update(piece)
            return StuckState(comp, tuple(adjacent), tuple(parts))
        if len(comp) == 1:
            h, a, b = comp, comp, frozenset()
        else:  # per adjacent part, the least component vertex next to it
            terms = frozenset(min(touching(g, comp, p.vertices)) for p in adjacent)
            h, a, b, _ = build_spanner(SpannerRequest(g, comp, terms, (len(terms) + 1) // 2), on_move=on_move)
        owner.update(dict.fromkeys(h, len(parts)))  # the new part's position
        parts.append(Part(len(parts) + 1, h, a, b, frozenset(p.index for p in adjacent)))
        uncovered -= h

    result = Decomposition(t, tuple(parts))
    reason = decomposition_violation(g, result, pool)
    if reason is not None:
        raise InvariantViolation(f"completed decomposition failed recheck: {reason}")
    return result


def build_auxiliary_reference(g: Graph, d: Decomposition) -> Graph:
    """Graph on 0-based part positions, adjacent iff the parts are adjacent
    in g, read off every edge of g; raises InvariantViolation above t-2
    earlier neighbors."""
    owner: dict[int, int] = {}
    for pos, p in enumerate(d.parts):
        for v in p.vertices:
            owner[v] = pos
    pairs: set[tuple[int, int]] = set()
    for u, v in g.edges():
        pu, pv = owner.get(u), owner.get(v)
        if pu is None or pv is None or pu == pv:
            continue
        pairs.add(norm_edge(pu, pv))
    aux = Graph(len(d.parts), sorted(pairs))
    for pos in range(aux.n):
        back = sum(1 for q in aux.neighbors(pos) if q < pos)
        if back > d.t - 2:
            raise InvariantViolation(
                f"part {pos + 1} adjacent to {back} earlier parts, above t-2 = {d.t - 2}"
            )
    return aux


def verify_coloring_reference(
    g: Graph, coloring: ClusteredColoring, t: int
) -> ColoringReport | ColoringRejection:
    """Recompute monochromatic components from scratch, each one sorted and
    scanned for its defect, and check at most 2t-2 colors and no component
    above ceil((t-2)/2). Every vertex must have a color, and no key may lie
    outside the graph."""
    colors = coloring.colors
    for v in range(g.n):
        pair = colors.get(v)
        if pair is None:
            return ColoringRejection(f"vertex {v} is uncolored")
        if not (isinstance(pair, tuple) and len(pair) == 2):
            return ColoringRejection(f"vertex {v} color {pair!r} is malformed")
        hue, side = pair
        if not (isinstance(hue, int) and 1 <= hue <= t - 1 and isinstance(side, int) and side in (1, 2)):
            return ColoringRejection(f"vertex {v} color {pair} out of range")
    if len(colors) > g.n:
        return ColoringRejection(f"coloring has {len(colors)} entries for {g.n} vertices")

    comps: list[list[int]] = []
    unseen = set(range(g.n))
    for s in range(g.n):
        if s not in unseen:
            continue
        unseen.discard(s)
        pair = colors[s]
        comp = [s]
        stack = [s]
        while stack:
            x = stack.pop()
            for y in g.neighbors(x):
                if y in unseen and colors[y] == pair:
                    unseen.discard(y)
                    comp.append(y)
                    stack.append(y)
        comps.append(sorted(comp))

    used = len({colors[v] for v in range(g.n)})
    max_component = max((len(c) for c in comps), default=0)
    max_defect = 0
    for comp in comps:
        members = frozenset(comp)
        inner = max((len(frozenset(g.neighbors(v)) & members) for v in comp), default=0)
        max_defect = max(max_defect, inner)

    if used > 2 * t - 2:
        return ColoringRejection(f"{used} colors used, above the 2t-2 = {2 * t - 2} limit")
    limit = (t - 1) // 2  # ceil((t-2)/2)
    if max_component > limit:
        offender = next(c for c in comps if len(c) > limit)
        return ColoringRejection(
            f"monochromatic component of size {len(offender)} exceeds {limit}",
            tuple(offender),
        )
    return ColoringReport(used, max_component, max_defect)
