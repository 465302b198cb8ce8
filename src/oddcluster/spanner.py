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
from dataclasses import dataclass
from typing import AbstractSet, Callable, Iterable

from .graph import (
    Graph,
    GraphError,
    InvariantViolation,
    _checked_set,
    bfs,
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


def bounded_bipartition(host: Graph, h_vertices: Iterable[int], bound: int) -> tuple[frozenset[int], frozenset[int]]:
    """Split `h_vertices` into sides whose same-side components stay within `bound`.

    Backtracking over a BFS order from the minimum vertex, trying the
    depth-parity side first, on an explicit stack, so no Python recursion
    depth grows with the input. A trial's same-side component is one BFS
    inside that side. Minimum connectors always admit such a split, so
    exhaustion means the input was not one (or a bug upstream).
    """
    hs = frozenset(h_vertices)
    if bound < 1:
        raise GraphError("bound must be >= 1")
    if not hs:
        raise GraphError("h_vertices must be nonempty")
    parent = bfs(host, min(hs), hs)
    if len(parent) != len(hs):
        raise GraphError("h_vertices does not induce a connected subgraph")
    order = list(parent)
    parity: dict[int, int] = {}
    for v, p in parent.items():
        parity[v] = 0 if v == p else 1 - parity[p]

    # Depth-first search over side choices with an explicit stack: tried[i]
    # counts the sides tried for order[i], preferred (depth parity) first.
    # A vertex leaves its side whenever the search comes back to it.
    sides: tuple[set[int], set[int]] = (set(), set())
    tried = [0] * len(order)
    i = 0
    while 0 <= i < len(order):
        v = order[i]
        sides[0].discard(v)
        sides[1].discard(v)
        if tried[i] == 2:
            tried[i] = 0
            i -= 1
            continue
        side = sides[(parity[v] + tried[i]) % 2]
        tried[i] += 1
        side.add(v)
        if len(bfs(host, v, side)) <= bound:
            i += 1
    if i < 0:
        raise InvariantViolation(
            "no bounded bipartition exists; h_vertices was not a minimum connector"
        )
    side_a = frozenset(sides[0])
    return side_a, hs - side_a


def count_cross_edges(host: Graph, side_a: Iterable[int], side_b: Iterable[int]) -> int:
    b = frozenset(side_b)
    return sum(len(host.adj(v) & b) for v in side_a)


def cross_bfs(
    host: Graph, h_vertices: Iterable[int], side_a: AbstractSet[int], side_b: AbstractSet[int]
) -> tuple[list[int], list[int]]:
    """Breadth-first search of the crossing subgraph on a nonempty H from its
    minimum vertex: the vertices of that vertex's piece in visit order, and
    the parent of each, the root being its own.

    From x the walk enters an unreached vertex of H (its own copy of H) on
    the side x is not on, among x's neighbors in ascending order: two set
    lookups in the loop, no predicate call per edge. Two lists rather than
    `bfs`'s parent map, because the spanner checks need only the order and
    a list append costs less than a dict store. H is not range-checked.
    """
    unseen = set(h_vertices)
    root = min(unseen)
    unseen.discard(root)
    order = [root]
    parents = [root]
    for x in order:
        other = side_b if x in side_a else side_a
        for y in host.neighbors(x):
            if y in other and y in unseen:
                unseen.discard(y)
                order.append(y)
                parents.append(x)
    return order, parents


def cross_connected(host: Graph, h_vertices: Iterable[int], side_a: AbstractSet[int], side_b: AbstractSet[int]) -> bool:
    """Whether the crossing subgraph on H is connected (the empty one is): H is
    range-checked, and one `cross_bfs` from its minimum vertex reaches all of it."""
    hs = _checked_set(host, h_vertices)
    return not hs or len(cross_bfs(host, hs, side_a, side_b)[0]) == len(hs)


def max_side_component(host: Graph, side: Iterable[int]) -> int:
    """Size of the largest component that `side` induces; 0 when it is empty.

    A vertex with no neighbor on its own side is a component of size 1, so
    a traversal (one `bfs` inside the side) starts only from the vertices
    with a same-side neighbor, found by one union of neighbor sets.
    """
    ws = _checked_set(host, side)
    largest = min(len(ws), 1)
    linked = host.neighborhood(ws) & ws
    while linked:
        comp = bfs(host, linked.pop(), ws)
        linked.difference_update(comp)
        largest = max(largest, len(comp))
    return largest


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
    # the crossing subgraph spans H: when it is connected, so is H
    crossing = cross_connected(g, h, a, b)
    if not crossing and not is_connected(g, h):
        return "H is not connected"
    if triple.cross_edges != count_cross_edges(g, a, b):
        return "crossing edge count is wrong"
    if max_side_component(g, a) > req.bound or max_side_component(g, b) > req.bound:
        return "a same-side component exceeds the bound"
    if not crossing:
        return "crossing subgraph is disconnected"
    # only region vertices adjacent to H can fail; the rest pass vacuously
    for v in sorted((g.neighborhood(h) & req.component) - h):
        nbrs = g.adj(v)
        if nbrs.isdisjoint(a) or nbrs.isdisjoint(b):
            return f"outside vertex {v} does not see both sides"
    return None


def refine_triple(req: SpannerRequest, start: Triple, on_move: OnMove | None = None) -> Triple:
    """Apply the two improving moves until neither fires.

    Reconnect: while the crossing subgraph is disconnected, swap the side
    labels on the piece holding the minimum vertex of H against the rest;
    same-side edges between the pieces become crossing edges. That piece is
    the walk `cross_bfs(host, H, A, B)`, which misses a vertex of H exactly
    when the subgraph is disconnected; the start checks range-check H.

    Extend: the smallest outside vertex adjacent to H that misses side A
    (else side B) joins that side; all its edges into H become crossing.

    Both moves strictly increase the crossing-edge count and preserve the
    side-component bound, so the loop ends within the region's induced edge
    count. Violations of either fact raise InvariantViolation.

    That move cap is counted lazily, and the check stays exact. The edges
    inside H are a lower bound on it, since H stays inside the region, and
    they are known at no cost: an extended vertex brings exactly its gain
    in edges into H, and a reconnect leaves H alone. While the move count
    stays within that bound, it is within the cap too. The region's edges
    are counted, once, only when a MoveEvent needs the cap or the move
    count passes the bound. A correct run never passes it: every move adds
    a crossing edge, and crossing edges lie inside H.

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

    inner = induced_edge_count(g, h)  # edges inside H: a lower bound on the cap
    cap: int | None = None  # the region's induced edge count, once counted
    cross = count_cross_edges(g, a, b)
    moves = 0

    def commit(kind: str, new_cross: int, bound_holds: bool) -> None:
        nonlocal moves, cross, cap
        moves += 1
        if new_cross <= cross:
            raise InvariantViolation("move failed to increase crossing edges")
        if cap is None and (moves > inner or on_move is not None):
            cap = induced_edge_count(g, req.component)
        if cap is not None and moves > cap:
            raise InvariantViolation("move count exceeded the region's edge count")
        if not bound_holds:
            raise InvariantViolation("move broke the side-component bound")
        if on_move is not None:
            on_move(MoveEvent(kind, cross, new_cross, moves, cap))
        cross = new_cross

    while h and len(piece := cross_bfs(g, h, a, b)[0]) < len(h):
        x = set(piece)  # the piece holding min(H)
        y = h - x
        a, b = (x & a) | (y & b), (x & b) | (y & a)
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
        if nbrs.isdisjoint(a):
            side, other = a, b
        elif nbrs.isdisjoint(b):
            side, other = b, a
        else:
            continue  # sees both sides, and will for good: H only grows
        gain = len(nbrs & other)  # v has no neighbor on `side`: all its edges into H
        h.add(v)
        side.add(v)
        inner += gain
        commit("extend", cross + gain, nbrs.isdisjoint(side))
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
