"""Iterative decomposition into bipartition-structured parts.

A run either covers the whole region with parts H_1..H_l, each carrying a
split (A_i, B_i) with small same-side components, a connected crossing
subgraph, and both-side attachment for later vertices, or it halts the
moment some uncovered component touches t-1 earlier parts. The halted state
is exactly what certificate extraction needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable, Union

from .graph import Graph, GraphError, InvariantViolation, bfs, connected_components, is_connected
from .spanner import (
    OnMove,
    SpannerRequest,
    Triple,
    build_spanner,
    cross_components,
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
    pool = frozenset(range(g.n)) if within is None else frozenset(within)
    if not pool:
        raise GraphError("empty region")
    root = min(pool)
    if root < 0 or max(pool) >= g.n:
        raise GraphError(f"region vertex out of range for n={g.n}")
    seed = frozenset((root,))
    grown = refine_triple(SpannerRequest(g, pool, seed, 1), Triple(seed, seed, frozenset(), 0))
    return Part(1, grown.h_vertices, grown.side_a, grown.side_b)


def pick_component(
    g: Graph, uncovered: AbstractSet[int], parts: Iterable[Part]
) -> tuple[frozenset[int], list[Part]]:
    """Component of `uncovered` holding its minimum vertex, plus every part
    adjacent to it in ascending index order.

    `uncovered` is the region minus the parts, kept by the caller. One BFS
    walks that component alone; its neighbors outside it are the boundary,
    and a part is adjacent when it holds one of them.
    """
    if not uncovered:
        raise GraphError("nothing left to pick: parts cover the region")
    start = min(uncovered)
    if start < 0 or max(uncovered) >= g.n:
        raise GraphError(f"region vertex out of range for n={g.n}")
    comp = frozenset(bfs(g, start, uncovered))
    boundary = set().union(*map(g.adj, comp)) - uncovered
    return comp, [p for p in parts if not boundary.isdisjoint(p.vertices)]


def decompose(
    g: Graph,
    t: int,
    within: Iterable[int] | None = None,
    on_move: OnMove | None = None,
) -> DecomposeOutcome:
    """Build parts until the region is covered, or halt with a StuckState
    when a component sees t-1 earlier parts.

    The region must induce a connected subgraph (callers split disconnected
    graphs beforehand). Every picked component's adjacent parts must be
    pairwise adjacent; a miss is a bug, not an input problem. A completed
    run is rechecked from scratch by decomposition_violation before it is
    returned.
    """
    if t < 3:
        raise GraphError("t must be >= 3")
    pool = frozenset(range(g.n)) if within is None else frozenset(within)
    if not pool:
        raise GraphError("empty region")
    if not is_connected(g, pool):
        raise GraphError("region must induce a connected subgraph")

    parts = [maximal_bipartite_part(g, pool)]
    uncovered = set(pool) - parts[0].vertices
    while uncovered:
        comp, adjacent = pick_component(g, uncovered, parts)
        if not adjacent:
            raise InvariantViolation("uncovered component with no adjacent part")
        for i, p in enumerate(adjacent):
            for q in adjacent[i + 1 :]:
                if not parts_adjacent(g, p, q):
                    raise InvariantViolation(
                        f"adjacent parts {p.index} and {q.index} are not pairwise adjacent"
                    )
        if len(adjacent) >= t - 1:
            return StuckState(comp, tuple(adjacent), tuple(parts))
        terminals = {
            min(v for v in comp if g.adj(v) & p.vertices) for p in adjacent
        }
        req = SpannerRequest(g, comp, frozenset(terminals), (len(terminals) + 1) // 2)
        triple = build_spanner(req, on_move=on_move)
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
        if not is_connected(g, p.vertices):
            return f"part {p.index}: not connected"
        if max_side_component(g, p.side_a) > bound or max_side_component(g, p.side_b) > bound:
            return f"part {p.index}: same-side component exceeds {bound}"
        if len(cross_components(g, p.vertices, p.side_a, p.side_b)) > 1:
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
        for comp in connected_components(g, rest):
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
