"""Connected spanners with bounded bipartitions.

Given a terminal set inside a connected region of a host graph, build an
induced connected subgraph H containing the terminals together with a split
of V(H) into sides A and B such that:

  1. every component induced by a single side has at most `bound` vertices,
  2. the crossing subgraph on H (edges with one endpoint per side) is
     connected,
  3. every region vertex outside H with a neighbor in H has a neighbor in A
     and a neighbor in B.

The construction is connector + feasible split + local search. Each local
move strictly increases the number of crossing edges, which bounds the
number of moves by the region's induced edge count.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from .graph import (
    Graph,
    GraphError,
    InvariantViolation,
    connected_components,
    induced_edge_count,
    is_connected,
)

TERMINAL_CAP = 12


@dataclass(frozen=True)
class Triple:
    """A connected induced subgraph, its two-sided split, and the crossing-edge count."""

    h_vertices: frozenset[int]
    side_a: frozenset[int]
    side_b: frozenset[int]
    cross_edges: int


@dataclass(frozen=True)
class SpannerRequest:
    """One spanner task: host graph, connected region, terminals, side-component bound."""

    host: Graph
    component: frozenset[int]
    terminals: frozenset[int]
    bound: int


@dataclass(frozen=True)
class MoveEvent:
    """One local-search move, for instrumented runs."""

    kind: str  # "reconnect" or "extend"
    cross_before: int
    cross_after: int
    move_index: int  # 1-based within one refinement
    edge_cap: int  # induced edge count of the region; hard move limit

OnMove = Callable[[MoveEvent], None]


def minimum_connector(host: Graph, component: Iterable[int], terminals: Iterable[int]) -> frozenset[int]:
    """Smallest vertex set inside `component` containing every terminal whose
    induced subgraph is connected.

    Exact dynamic program over (terminal subset, anchor vertex) states with
    unit vertex weights, exponential in the terminal count, hence the cap.
    States carry witness sets; ties fall to the smaller sorted vertex list,
    so the result is deterministic.
    """
    comp = frozenset(component)
    terms = sorted(set(terminals))
    if not terms:
        raise GraphError("terminals must be nonempty")
    if len(terms) > TERMINAL_CAP:
        raise GraphError(f"terminal budget exceeded: {len(terms)} > {TERMINAL_CAP}")
    for t in terms:
        if t not in comp:
            raise GraphError(f"terminal {t} outside component")
    if not is_connected(host, comp):
        raise GraphError("component is not connected")
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
    if not final:
        raise InvariantViolation("connector search found nothing on a connected component")
    winner = min(final.values(), key=lambda e: e[:2])
    return winner[2]


def bounded_bipartition(host: Graph, h_vertices: Iterable[int], bound: int) -> tuple[frozenset[int], frozenset[int]]:
    """Split `h_vertices` into sides whose same-side components stay within `bound`.

    Backtracking over a BFS order from the minimum vertex, trying the
    depth-parity side first, on an explicit stack, so no Python recursion
    depth grows with the input. Minimum connectors always admit such a
    split, so exhaustion means the input was not one (or a bug upstream).
    """
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
        # size of v's same-side component among vertices assigned so far
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

    # Depth-first search over side choices with an explicit stack: tried[i]
    # counts the sides tried for order[i], preferred (depth parity) first.
    tried = [0] * len(order)
    i = 0
    while 0 <= i < len(order):
        v = order[i]
        if tried[i] == 2:
            tried[i] = 0
            i -= 1
            if i >= 0:
                del side[order[i]]
            continue
        side[v] = (depth[v] + tried[i]) % 2
        tried[i] += 1
        if component_size(v) <= bound:
            i += 1
        else:
            del side[v]
    if i < 0:
        raise InvariantViolation(
            "no bounded bipartition exists; h_vertices was not a minimum connector"
        )
    side_a = frozenset(v for v in order if side[v] == 0)
    return side_a, hs - side_a


def count_cross_edges(host: Graph, side_a: Iterable[int], side_b: Iterable[int]) -> int:
    b = frozenset(side_b)
    return sum(len(host.adj(v) & b) for v in side_a)


def cross_components(
    host: Graph, h_vertices: Iterable[int], side_a: Iterable[int], side_b: Iterable[int]
) -> list[frozenset[int]]:
    """Components of the crossing subgraph: vertices of H, side-crossing edges only."""
    sa = frozenset(side_a)
    sb = frozenset(side_b)
    return connected_components(host, h_vertices, lambda x, y: y in (sb if x in sa else sa))


def max_side_component(host: Graph, side: Iterable[int]) -> int:
    return max((len(c) for c in connected_components(host, side)), default=0)


def triple_violation(req: SpannerRequest, triple: Triple) -> str | None:
    """First violated spanner guarantee, or None. Shared with the test suite."""
    g = req.host
    h, a, b = triple.h_vertices, triple.side_a, triple.side_b
    if (a | b) != h or (a & b):
        return "sides do not partition H"
    if not req.terminals <= h:
        return "H misses a terminal"
    if not h <= req.component:
        return "H leaves the component"
    if not is_connected(g, h):
        return "H is not connected"
    if triple.cross_edges != count_cross_edges(g, a, b):
        return "crossing edge count is wrong"
    if max_side_component(g, a) > req.bound or max_side_component(g, b) > req.bound:
        return "a same-side component exceeds the bound"
    if len(cross_components(g, h, a, b)) > 1:
        return "crossing subgraph is disconnected"
    for v in sorted(req.component - h):
        nbrs = g.adj(v)
        if nbrs & h and (not nbrs & a or not nbrs & b):
            return f"outside vertex {v} does not see both sides"
    return None


def refine_triple(req: SpannerRequest, start: Triple, on_move: OnMove | None = None) -> Triple:
    """Apply the two improving moves until neither fires.

    Reconnect: while the crossing subgraph is disconnected, swap the side
    labels on the piece holding the minimum vertex of H against the rest;
    same-side edges between the pieces become crossing edges.

    Extend: the smallest outside vertex adjacent to H that misses side A
    (else side B) joins that side; all its edges into H become crossing.

    Both moves strictly increase the crossing-edge count and preserve the
    side-component bound, so the loop ends within the region's induced edge
    count. Violations of either fact raise InvariantViolation.

    Reconnects run first and recount crossing edges and side components
    from scratch. Extends keep the crossing subgraph connected, so once it
    is connected only extends fire, and each costs O(deg v log n):
    candidates come from a min-heap frontier that each outside neighbor of
    H enters once, and a popped candidate that sees both sides is dropped
    for good, since H and both sides only grow. An extended vertex v has no
    neighbor on its new side, so it is a singleton there and the crossing
    count rises by exactly its number of neighbors on the other side. The
    per-move checks test these facts in O(deg v): no neighbor on the new
    side, a gain of at least 1, at most `cap` moves.
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

    cap = induced_edge_count(g, req.component)
    cross = count_cross_edges(g, a, b)
    moves = 0

    def commit(kind: str, new_cross: int, bound_holds: bool) -> None:
        nonlocal moves, cross
        moves += 1
        if new_cross <= cross:
            raise InvariantViolation("move failed to increase crossing edges")
        if moves > cap:
            raise InvariantViolation("move count exceeded the region's edge count")
        if not bound_holds:
            raise InvariantViolation("move broke the side-component bound")
        if on_move is not None:
            on_move(MoveEvent(kind, cross, new_cross, moves, cap))
        cross = new_cross

    while len(comps := cross_components(g, h, a, b)) > 1:
        top = min(h)
        x = next(c for c in comps if top in c)
        y = h - x
        a, b = set((x & a) | (y & b)), set((x & b) | (y & a))
        bound_holds = max(max_side_component(g, a), max_side_component(g, b)) <= req.bound
        commit("reconnect", count_cross_edges(g, a, b), bound_holds)

    queued = set(h)
    frontier: list[int] = []

    def enqueue_neighbors(x: int) -> None:
        for w in g.neighbors(x):
            if w in req.component and w not in queued:
                queued.add(w)
                heapq.heappush(frontier, w)

    for v in h:
        enqueue_neighbors(v)
    while frontier:
        v = heapq.heappop(frontier)
        nbrs = g.adj(v)
        if not nbrs & a:
            side, other = a, b
        elif not nbrs & b:
            side, other = b, a
        else:
            continue  # sees both sides, and will for good: H only grows
        h.add(v)
        side.add(v)
        commit("extend", cross + len(nbrs & other), not nbrs & side)
        enqueue_neighbors(v)
    return Triple(frozenset(h), frozenset(a), frozenset(b), cross)


def build_spanner(req: SpannerRequest, on_move: OnMove | None = None) -> Triple:
    """Connector, feasible split, then refinement; satisfies all three guarantees."""
    w = minimum_connector(req.host, req.component, req.terminals)
    side_a, side_b = bounded_bipartition(req.host, w, req.bound)
    start = Triple(w, side_a, side_b, count_cross_edges(req.host, side_a, side_b))
    result = refine_triple(req, start, on_move=on_move)
    reason = triple_violation(req, result)
    if reason is not None:
        raise InvariantViolation(f"spanner postcondition failed: {reason}")
    return result
