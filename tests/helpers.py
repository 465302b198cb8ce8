"""Test-only graph checks and reference implementations.

`bipartition_or_odd_cycle` is an independent bipartiteness check with an
odd-cycle witness; the pipeline never needs one. `outcome` turns a call
into its result or its error, for comparing two implementations.
`format_dimacs` writes the DIMACS text that `graph_io.read_dimacs` reads,
for round-trip tests; the pipeline only reads DIMACS. `sparse_gnp` samples
G(n,p) in time linear in n + m, for tests at sizes where the pair loop of
`generators.gnp` is too slow; its edges differ from `gnp`'s for the same
seed. The `*_reference` functions are earlier versions of pipeline
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
* `bounded_bipartition_reference`: the recursive backtracking, one Python
  frame per vertex;
* `decomposition_violation_reference`: the recheck that recomputes the
  uncovered components at every prefix and scans every earlier part for
  each of them, cubic in the worst case;
* `build_auxiliary_reference` and `verify_coloring_reference`: the part
  graph read off every edge of g, and the coloring verifier that sorts
  every monochromatic component and scans every one for its defect.

The references call each other rather than the rewritten functions, so a
differential test compares two independent computations.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import AbstractSet, Callable, Iterable

from oddcluster.coloring import ClusteredColoring, ColoringRejection, ColoringReport
from oddcluster.decompose import Decomposition, Part, parts_adjacent
from oddcluster.graph import (
    Edge,
    Graph,
    GraphError,
    InvariantViolation,
    TreeSubgraph,
    induced_edge_count,
    norm_edge,
)
from oddcluster.spanner import (
    MoveEvent,
    OnMove,
    SpannerRequest,
    Triple,
    count_cross_edges,
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


def format_dimacs(g: Graph) -> str:
    out = [f"p edge {g.n} {g.m}"]
    out.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(out) + "\n"


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
            colored_nbrs = g.adj(v) & color.keys()
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
    adjacent = [p for p in parts if any(g.adj(v) & p.vertices for v in comp)]
    return comp, adjacent


def terminals_reference(g: Graph, comp: AbstractSet[int], adjacent: Iterable[Part]) -> list[int]:
    """Per adjacent part, the minimum component vertex next to it: the scan
    decompose ran before pick_component returned the terminals."""
    return [min(v for v in comp if g.adj(v) & p.vertices) for p in adjacent]


def refine_triple_reference(req: SpannerRequest, start: Triple, on_move: OnMove | None = None) -> Triple:
    """Apply the two improving moves until neither fires, rechecking the
    crossing-edge count and both side bounds from scratch after every move."""
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

    cap = induced_edge_count(g, req.component)
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
                nbrs = g.adj(v)
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
        if moves > cap:
            raise InvariantViolation("move count exceeded the region's edge count")
        if max(max_side_component_reference(g, a), max_side_component_reference(g, b)) > req.bound:
            raise InvariantViolation("move broke the side-component bound")
        if on_move is not None:
            on_move(MoveEvent(kind, cross, new_cross, moves, cap))
        cross = new_cross
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
        nbrs = g.adj(v)
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
    pairwise adjacent.
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
        if not is_connected_reference(g, p.vertices):
            return f"part {p.index}: not connected"
        sides = (p.side_a, p.side_b)
        if max(max_side_component_reference(g, side) for side in sides) > bound:
            return f"part {p.index}: same-side component exceeds {bound}"
        if len(cross_components_reference(g, p.vertices, p.side_a, p.side_b)) > 1:
            return f"part {p.index}: crossing subgraph disconnected"
    if seen != pool:
        return "parts do not cover the region"

    prefix: set[int] = set()
    for p in d.parts:
        prefix |= p.vertices
        rest = pool - prefix
        for v in sorted(rest):
            nbrs = g.adj(v)
            if nbrs & p.vertices and (not nbrs & p.side_a or not nbrs & p.side_b):
                return f"vertex {v} adjacent to part {p.index} misses a side"
        for comp in connected_components_reference(g, rest):
            touched = [
                q for q in d.parts[: p.index] if any(g.adj(w) & q.vertices for w in comp)
            ]
            if len(touched) > d.t - 2:
                return f"a component after part {p.index} touches {len(touched)} parts"
            for j, q1 in enumerate(touched):
                for q2 in touched[j + 1 :]:
                    if not parts_adjacent(g, q1, q2):
                        return (
                            f"parts {q1.index} and {q2.index} touch one component "
                            "but are not adjacent"
                        )
    return None


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
    above ceil((t-2)/2)."""
    colors = coloring.colors
    for v in range(g.n):
        pair = colors.get(v)
        if pair is None:
            return ColoringRejection(f"vertex {v} is uncolored")
        if not (isinstance(pair, tuple) and len(pair) == 2):
            return ColoringRejection(f"vertex {v} color {pair!r} is malformed")
        hue, side = pair
        if not (isinstance(hue, int) and 1 <= hue <= t - 1) or side not in (1, 2):
            return ColoringRejection(f"vertex {v} color {pair} out of range")

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
        inner = max((len(g.adj(v) & members) for v in comp), default=0)
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
