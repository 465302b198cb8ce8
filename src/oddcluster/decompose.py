"""Iterative decomposition into bipartition-structured parts.

A run either covers the whole region with parts H_1..H_l, each carrying a
split (A_i, B_i) with small same-side components, a connected crossing
subgraph, and both-side attachment for later vertices, or it halts the
moment some uncovered component touches t-1 earlier parts. The halted state
is exactly what certificate extraction needs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations, compress
from operator import not_
from typing import AbstractSet, Iterable, Sequence, Union

from .graph import Graph, GraphError, InvariantViolation, _checked_set, bfs, is_connected
from .spanner import (
    OnMove,
    SpannerRequest,
    Triple,
    build_spanner,
    cross_connected,
    max_side_component,
    refine_triple,
)


@dataclass(frozen=True)
class Part:
    """One decomposition piece: 1-based construction index, vertices, and sides."""

    index: int
    vertices: frozenset[int]
    side_a: frozenset[int]
    side_b: frozenset[int]


@dataclass(frozen=True)
class Decomposition:
    """Completed run: ordered parts covering the region."""

    t: int
    parts: tuple[Part, ...]


@dataclass(frozen=True)
class StuckState:
    """Halted run: an uncovered component adjacent to at least t-1 parts."""

    component: frozenset[int]
    adjacent_parts: tuple[Part, ...]
    parts: tuple[Part, ...]


DecomposeOutcome = Union[Decomposition, StuckState]


def parts_adjacent(g: Graph, p: Part, q: Part) -> bool:
    small, large = (p, q) if len(p.vertices) <= len(q.vertices) else (q, p)
    return any(g.adj(v) & large.vertices for v in small.vertices)


def maximal_bipartite_part(g: Graph, within: Iterable[int] | None = None) -> Part:
    """Grow a connected bipartite induced set from the minimum vertex until no
    adjacent vertex can join without creating an odd cycle.

    This is refine_triple's extend search for the one terminal r = min(region)
    and bound 1, from H = A = {r}: a candidate whose neighbors in H all lie on
    one side joins the other, so H stays bipartite, and the per-move checks
    apply. With one vertex in H no reconnect fires. Side A holds the root.
    """
    pool = frozenset(range(g.n)) if within is None else _checked_set(g, within)
    if not pool:
        raise GraphError("empty region")
    seed = frozenset((min(pool),))
    grown = refine_triple(SpannerRequest(g, pool, seed, 1), Triple(seed, seed, frozenset(), 0))
    return Part(1, grown.h_vertices, grown.side_a, grown.side_b)


def pick_component(
    g: Graph,
    uncovered: AbstractSet[int],
    pending: deque[int],
    owner: dict[int, int],
    parts: Sequence[Part],
) -> tuple[frozenset[int], list[Part], list[int]]:
    """Component of `uncovered` holding its minimum vertex, every part
    adjacent to it in ascending index order, and per adjacent part its
    terminal: the minimum component vertex next to that part.

    The caller keeps the state across calls: `uncovered`, the region minus
    the parts; `pending`, a sorted queue holding every uncovered vertex,
    whose covered head is dropped here, so the minimum is found by a cursor
    that only moves forward; `owner`, the position in `parts` of every
    covered vertex. One BFS walks the component alone; its covered
    neighbors are the boundary, and the adjacent parts are their owners.
    Each terminal takes one C-level scan of the component's neighbor sets.
    """
    while pending and pending[0] not in uncovered:
        pending.popleft()
    if not pending:
        raise GraphError("nothing left to pick: parts cover the region")
    comp = frozenset(bfs(g, pending[0], uncovered))
    boundary = g.neighborhood(comp) & owner.keys()  # its covered neighbors
    adjacent = [parts[i] for i in sorted(set(map(owner.__getitem__, boundary)))]
    terminals = [  # per part, the least component vertex with a neighbor in it
        min(compress(comp, map(not_, map(p.vertices.isdisjoint, map(g.adj, comp)))))
        for p in adjacent
    ]
    return comp, adjacent, terminals


def decompose(
    g: Graph,
    t: int,
    within: Iterable[int] | None = None,
    on_move: OnMove | None = None,
) -> DecomposeOutcome:
    """Build parts until the region is covered, or halt with a StuckState
    when a component sees t-1 earlier parts.

    The region must induce a connected subgraph; its vertices are
    range-checked once, here, so pick_component need not. A completed run
    proves it connected without a walk: part 1 is connected, and every later
    part is connected and holds a terminal next to an earlier part, so the
    parts, which cover the region, form a connected union. A picked
    component that touches no part proves the region disconnected; only a
    stuck run, which covers less, walks the region before it returns.

    Every picked component's adjacent parts must be pairwise adjacent; a
    miss is a bug, not an input problem. A completed run is rechecked from
    scratch by decomposition_violation before it is returned.
    """
    if t < 3:
        raise GraphError("t must be >= 3")
    pool = frozenset(range(g.n)) if within is None else _checked_set(g, within)
    if not pool:
        raise GraphError("empty region")
    disconnected = "region must induce a connected subgraph"

    parts = [maximal_bipartite_part(g, pool)]
    owner = dict.fromkeys(parts[0].vertices, 0)
    uncovered = set(pool) - parts[0].vertices
    pending = deque(sorted(uncovered))
    while uncovered:
        comp, adjacent, terminals = pick_component(g, uncovered, pending, owner, parts)
        if not adjacent:
            raise GraphError(disconnected)
        for i, p in enumerate(adjacent):
            for q in adjacent[i + 1 :]:
                if not parts_adjacent(g, p, q):
                    raise InvariantViolation(
                        f"adjacent parts {p.index} and {q.index} are not pairwise adjacent"
                    )
        if len(adjacent) >= t - 1:
            if not is_connected(g, pool):
                raise GraphError(disconnected)
            return StuckState(comp, tuple(adjacent), tuple(parts))
        terms = frozenset(terminals)
        req = SpannerRequest(g, comp, terms, (len(terms) + 1) // 2)
        triple = build_spanner(req, on_move=on_move)
        owner.update(dict.fromkeys(triple.h_vertices, len(parts)))  # the new part's position
        parts.append(Part(len(parts) + 1, triple.h_vertices, triple.side_a, triple.side_b))
        uncovered -= triple.h_vertices

    result = Decomposition(t, tuple(parts))
    reason = decomposition_violation(g, result, pool)
    if reason is not None:
        raise InvariantViolation(f"completed decomposition failed recheck: {reason}")
    return result


def decomposition_violation(
    g: Graph, d: Decomposition, within: Iterable[int] | None = None
) -> str | None:
    """First violated decomposition guarantee, recomputed from scratch; None if clean.

    Checks, for every part: sides partition it, it is connected, same-side
    components respect ceil((t-2)/2), and the crossing subgraph is connected.
    Then, for every prefix H_1..H_k: uncovered neighbors of H_k see both its
    sides, and every uncovered component touches at most t-2 parts which are
    pairwise adjacent. The first failure in that order is reported: by
    prefix, side checks before component checks, then by vertex or by the
    component's minimum vertex.

    The per-part and cover checks come first, so the parts are disjoint,
    connected and cover the region: the rest after prefix k is the union of
    the whole parts k+1..l, and its components are unions of whole parts.
    One pass from the last part to the first grows the rest. Its vertices
    that see one side of H_k only are the symmetric difference of N(A_k)
    and N(B_k) within it; the parts holding their union are the later parts
    adjacent to H_k. A component of the rest touches the same parts at every
    prefix where it exists, as its outside neighbors are all covered, so one
    check, at the earliest, decides them all: the parts are added back from
    last to first into a union-find over part indices, and each component is
    checked just before it merges with the part being added back. Part 1 is
    never added back; the components left are those after it.
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
        # the crossing subgraph spans the part: when it is connected, so is the part
        crossing = cross_connected(g, p.vertices, p.side_a, p.side_b)
        if not crossing and not is_connected(g, p.vertices):
            return f"part {p.index}: not connected"
        if max_side_component(g, p.side_a) > bound or max_side_component(g, p.side_b) > bound:
            return f"part {p.index}: same-side component exceeds {bound}"
        if not crossing:
            return f"part {p.index}: crossing subgraph disconnected"
    if seen != pool:
        return "parts do not cover the region"

    owner: dict[int, int] = {}  # the part holding each vertex of the rest: its keys are the rest
    later: dict[int, set[int]] = {}  # per part: the later parts adjacent to it
    touched: dict[int, set[int]] = {p.index: set() for p in d.parts}  # earlier parts adjacent: per part, then per root
    first = None  # (prefix, message) of the first failure found so far
    for p in reversed(d.parts):
        sees_a = sees_b = set()
        if owner:  # else the rest is empty: nothing after the last part
            sees_a = g.neighborhood(p.side_a) & owner.keys()
            sees_b = g.neighborhood(p.side_b) & owner.keys()
        if sees_a != sees_b:
            first = (p.index, f"vertex {min(sees_a ^ sees_b)} adjacent to part {p.index} misses a side")
        later[p.index] = set(map(owner.__getitem__, sees_a | sees_b))
        for j in later[p.index]:
            touched[j].add(p.index)
        owner.update(dict.fromkeys(p.vertices, p.index))

    parent: dict[int, int] = {}
    low: dict[int, int] = {}  # per root: the component's minimum vertex

    def find(k: int) -> int:
        while parent[k] != k:
            parent[k] = parent[parent[k]]  # path halving
            k = parent[k]
        return k

    def first_failure(roots: Iterable[int], k: int) -> str | None:
        # components whose earliest prefix is k, checked by minimum vertex
        for r in sorted(roots, key=low.__getitem__):
            if len(touched[r]) > d.t - 2:
                return f"a component after part {k} touches {len(touched[r])} parts"
            for a, b in combinations(sorted(touched[r]), 2):
                if b not in later[a]:
                    return f"parts {a} and {b} touch one component but are not adjacent"
        return None

    for p in reversed([q for q in d.parts[1:] if q.vertices]):  # an empty part is in no component
        k = p.index
        roots = {find(j) for j in later[k]}
        reason = first_failure(roots, k)
        if reason is not None and (first is None or k < first[0]):  # a side check at k comes first
            first = (k, reason)
        parent[k] = k
        low[k] = min(p.vertices)
        for b in roots:
            a = find(k)
            if len(touched[a]) < len(touched[b]):
                a, b = b, a
            parent[b] = a
            touched[a] |= touched.pop(b)
            low[a] = min(low[a], low.pop(b))
        touched[find(k)].discard(k)
    reason = first_failure(low, 1)  # the roots left: the components after part 1
    if reason is not None and (first is None or 1 < first[0]):
        first = (1, reason)
    return None if first is None else first[1]


def decomposition_to_json(d: Decomposition) -> dict:
    return {
        "t": d.t,
        "parts": [
            {
                "index": p.index,
                "H": sorted(p.vertices),
                "A": sorted(p.side_a),
                "B": sorted(p.side_b),
            }
            for p in d.parts
        ],
    }
