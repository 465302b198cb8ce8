"""Test-only graph checks and reference implementations.

`bipartition_or_odd_cycle` is an independent bipartiteness check with an
odd-cycle witness; the pipeline never needs one. The `*_reference`
functions are earlier versions of pipeline functions, kept so differential
tests can compare the rewrites against them:

* `cross_components_reference`: the stand-alone crossing-subgraph
  traversal that `spanner.cross_components` replaced with a
  predicate-restricted `connected_components` call;
* `maximal_bipartite_part_reference`, `pick_component_reference` and
  `refine_triple_reference`: the versions that rescan the whole region on
  every step and recheck every local-search move from scratch;
* `bounded_bipartition_reference`: the recursive backtracking, one Python
  frame per vertex.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from oddcluster.decompose import Part
from oddcluster.graph import (
    Graph,
    GraphError,
    InvariantViolation,
    connected_components,
    induced_edge_count,
    is_connected,
)
from oddcluster.spanner import (
    MoveEvent,
    OnMove,
    SpannerRequest,
    Triple,
    count_cross_edges,
    cross_components,
    max_side_component,
)


@dataclass(frozen=True)
class OddClosedWalk:
    """Closed walk of odd edge count; first and last entries coincide."""

    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1


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
    if not is_connected(g, ws):
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
    comp = connected_components(g, uncovered)[0]
    adjacent = [p for p in parts if any(g.adj(v) & p.vertices for v in comp)]
    return comp, adjacent


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
    if max_side_component(g, a) > req.bound or max_side_component(g, b) > req.bound:
        raise GraphError("start violates the side-component bound")

    cap = induced_edge_count(g, req.component)
    cross = count_cross_edges(g, a, b)
    moves = 0
    while True:
        kind = None
        comps = cross_components(g, h, a, b)
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
        if max_side_component(g, a) > req.bound or max_side_component(g, b) > req.bound:
            raise InvariantViolation("move broke the side-component bound")
        if on_move is not None:
            on_move(MoveEvent(kind, cross, new_cross, moves, cap))
        cross = new_cross
    return Triple(frozenset(h), frozenset(a), frozenset(b), cross)


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
