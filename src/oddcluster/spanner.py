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
move strictly increases the number of crossing edges, and those lie inside
H, which bounds the number of moves by the edges inside H.
"""

from __future__ import annotations

import heapq
from typing import AbstractSet, Callable, Iterable, NamedTuple

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


class Triple(NamedTuple):
    """A connected induced subgraph, its two-sided split, and the crossing-edge count."""

    h_vertices: frozenset[int]
    side_a: frozenset[int]
    side_b: frozenset[int]
    cross_edges: int


class SpannerRequest(NamedTuple):
    """One spanner task: host graph, connected region, terminals, side-component bound."""

    host: Graph
    component: frozenset[int]
    terminals: frozenset[int]
    bound: int


class MoveEvent(NamedTuple):
    """One local-search move, for instrumented runs."""

    kind: str  # "reconnect" or "extend"
    cross_before: int
    cross_after: int
    move_index: int  # 1-based within one refinement
    edge_cap: int  # edges inside H after the move; cross_after never exceeds it

OnMove = Callable[[MoveEvent], None]


def minimum_connector(host: Graph, component: Iterable[int], terminals: Iterable[int]) -> frozenset[int]:
    """Smallest vertex set inside `component` containing every terminal whose
    induced subgraph is connected.

    Exact dynamic program over (terminal subset, anchor vertex) states with
    unit vertex weights, exponential in the terminal count, hence the cap.
    States carry witness sets; ties fall to the smaller sorted vertex list,
    so the result is deterministic. The component need not be connected;
    GraphError is raised when no connected set inside it holds every
    terminal.

    A connector in hand bounds the program. One BFS inside the component
    from the least terminal, stopped once it has reached every terminal,
    gives a tree whose paths to the terminals form a connector of `cap`
    vertices, or it proves the terminals apart. A state larger than `cap`
    is never stored, nor one larger than the entry it would replace, and
    the size is tested before the sorted tuple is built. This is exact:
    keys compare size first, and a merged or grown state is never smaller
    than its sources, so a state above `cap` leads only to states above it,
    while the answer, of at most `cap` vertices, and every state it comes
    from are found as without the bound. For the same reason the growth
    phase of the full subset is skipped: no grown state beats the cheapest
    merged one it comes from.
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

    # BFS from the least terminal until every terminal is reached: its tree bounds the answer
    parent = {terms[0]: terms[0]}
    order = [terms[0]]
    missing = set(terms[1:])
    for x in order:
        for y in host.neighbors(x):
            if y in comp and y not in parent:
                parent[y] = x
                order.append(y)
                missing.discard(y)
        if not missing:
            break
    else:
        raise GraphError("terminals are not connected inside the component")
    tree: set[int] = set()
    for t in terms:  # the tree paths to the root, each climbed until it meets the tree
        while t not in tree:
            tree.add(t)
            t = parent[t]
    cap = len(tree)

    full = (1 << k) - 1
    # best[mask][v] = (size, sorted tuple, set): the cheapest known connected
    # set containing v and the terminals selected by mask, of at most cap vertices.
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
                    size = len(union)
                    cur = layer.get(v)
                    if size > cap or (cur is not None and size > cur[0]):
                        continue
                    tup = tuple(sorted(union))
                    if cur is None or (size, tup) < cur[:2]:
                        layer[v] = (size, tup, union)
            sub = (sub - 1) & mask
        if mask == full:
            break
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
                grown = size + (w not in vset)
                old = layer.get(w)
                if grown > cap or (old is not None and grown > old[0]):
                    continue
                union = vset | {w} if grown > size else vset
                wtup = tuple(sorted(union)) if grown > size else tup  # the same set: the same tuple
                if old is None or (grown, wtup) < old[:2]:
                    layer[w] = (grown, wtup, union)
                    heapq.heappush(heap, (grown, wtup, w))

    winner = min(best[full].values(), key=lambda e: e[:2])
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
    return sum(map(len, map(b.intersection, map(host.neighbors, side_a))))


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
    with a same-side neighbor, found by one union of neighbor tuples.
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
    # a region vertex outside H fails iff it has a neighbor on exactly one side
    blind = ((g.neighborhood(a) ^ g.neighborhood(b)) & req.component) - h
    if blind:
        return f"outside vertex {min(blind)} does not see both sides"
    return None


def refine_triple(req: SpannerRequest, start: Triple, on_move: OnMove | None = None) -> Triple:
    """Make improving moves, one checked step each, until none fires. The
    start's crossing edges are counted here: its `cross_edges` is not read.

    Reconnect, while the crossing subgraph is disconnected: swap the side
    labels on the piece holding the minimum vertex of H against the rest;
    same-side edges between the pieces become crossing edges. That piece is
    the walk `cross_bfs(host, H, A, B)`, which misses a vertex of H exactly
    when the subgraph is disconnected; the start checks range-check H.
    Crossing edges and side components are recounted from scratch.

    Extend, once it is connected: the smallest outside vertex adjacent to H
    that misses side A (else side B) joins that side; all its edges into H
    become crossing. An extend keeps the crossing subgraph connected, so
    after the first one the walk is not made again, and each extend costs
    O(deg v log n): candidates come from a min-heap frontier, built before
    the loop since a reconnect leaves H alone, that each outside neighbor
    of H enters once, and a popped candidate that sees both sides is
    dropped for good, since H and both sides only grow. An extended vertex
    v has no neighbor on its new side, so it is a singleton there, and its
    gain in crossing edges is its number of neighbors in H, counted in the
    one pass that queues its other region neighbors.

    After either move the step runs the only copy of the checks, with no
    call per move: a gain of at least 1, no more crossing edges than edges
    inside H, the side bound (for an extend, in O(deg v): no neighbor on the
    new side), and only then the `on_move` event. A failed check raises
    InvariantViolation. The edges inside H are known at no cost: an
    extended vertex brings exactly its gain in edges into H, and a
    reconnect leaves H alone. Since every move adds a crossing edge, they
    bound the move count too.
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
    region = req.component  # a local: it is read once per neighbor
    frontier = sorted((g.neighborhood(h) & region) - h)  # a sorted list is a heap
    queued = set(frontier)  # every vertex that entered the frontier; H is tested first
    joined = False  # whether the crossing subgraph is known to be connected

    while True:
        if not joined and h and len(piece := cross_bfs(g, h, a, b)[0]) < len(h):
            kind = "reconnect"
            x = set(piece)  # the piece holding min(H)
            y = h - x
            a, b = (x & a) | (y & b), (x & b) | (y & a)
            broken = max(max_side_component(g, a), max_side_component(g, b)) > req.bound
            gain = count_cross_edges(g, a, b) - cross
        else:
            kind = "extend"
            joined = True
            side = None
            while side is None and frontier:
                v = heapq.heappop(frontier)
                nbrs = g.neighbors(v)
                if a.isdisjoint(nbrs):
                    side = a
                elif b.isdisjoint(nbrs):
                    side = b
                # else v sees both sides, and will for good: H only grows
            if side is None:
                break
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
            broken = not side.isdisjoint(nbrs)
        moves += 1
        if gain < 1:
            raise InvariantViolation("move failed to increase crossing edges")
        if cross + gain > inner:
            raise InvariantViolation("crossing edges exceeded the edges inside H")
        if broken:
            raise InvariantViolation("move broke the side-component bound")
        if on_move is not None:
            on_move(MoveEvent(kind, cross, cross + gain, moves, inner))
        cross += gain
    return Triple(frozenset(h), frozenset(a), frozenset(b), cross)


def build_spanner(req: SpannerRequest, on_move: OnMove | None = None) -> Triple:
    """Connector, feasible split, then refinement; satisfies all three guarantees."""
    w = minimum_connector(req.host, req.component, req.terminals)
    side_a, side_b = bounded_bipartition(req.host, w, req.bound)
    result = refine_triple(req, Triple(w, side_a, side_b, 0), on_move=on_move)
    reason = triple_violation(req, result)
    if reason is not None:
        raise InvariantViolation(f"spanner postcondition failed: {reason}")
    return result
