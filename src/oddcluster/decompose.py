"""Iterative decomposition into bipartition-structured parts.

A run either covers the whole region with parts H_1..H_l, each carrying a
split (A_i, B_i) with small same-side components, a connected crossing
subgraph, and both-side attachment for later vertices, or it halts the
moment some uncovered component touches t-1 earlier parts. The halted state
is exactly what certificate extraction needs.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from typing import AbstractSet, Iterable, NamedTuple, Sequence, Union

from .graph import Graph, GraphError, InvariantViolation, Walk, _checked_set, bfs, touching
from .spanner import OnMove, SpannerRequest, Triple, build_spanner, refine_triple


class Part(NamedTuple):
    """One decomposition piece: 1-based construction index, vertices, sides, earlier neighbors."""

    index: int
    vertices: frozenset[int]
    side_a: frozenset[int]
    side_b: frozenset[int]
    earlier: frozenset[int] = frozenset()  # the indices of the earlier parts adjacent to it


class Decomposition(NamedTuple):
    """Completed run: ordered parts covering the region."""

    t: int
    parts: tuple[Part, ...]


class StuckState(NamedTuple):
    """Halted run: an uncovered component adjacent to at least t-1 parts."""

    component: frozenset[int]
    adjacent_parts: tuple[Part, ...]
    parts: tuple[Part, ...]


DecomposeOutcome = Union[Decomposition, StuckState]


def maximal_bipartite_part(g: Graph, walk: Walk) -> Part:
    """Grow a connected bipartite induced set from the minimum vertex of the
    walk's piece until no adjacent vertex can join without creating an odd
    cycle.

    `walk` is the component_walk decompose is given, from the minimum
    vertex r of its piece. This is refine_triple's extend search for the one terminal r
    and bound 1, from H = A = {r}: a candidate whose neighbors in H all lie
    on one side joins the other. With one vertex in H no reconnect fires.
    Side A holds the root. refine_triple's checks vouch for the part: each
    extend must add a crossing edge to a vertex with no neighbor on its
    side, so by induction H and its crossing subgraph are connected and
    both sides are independent.

    The growth never leaves r's piece of the region, so it grows inside the
    walk's piece. If that piece is bipartite, the walk's split is the part:
    each candidate of the growth has its neighbors in H in the other parity
    class, so it joins the side of its own class and is never dropped, and
    the growth takes the whole piece. Otherwise the growth runs from
    scratch. The walk keeps the per-move checks: every vertex after r must
    list a reached vertex of the other parity, its extend's crossing edge,
    and one that lists a vertex of its own parity ends the 2-coloring, so
    the growth, whose checks see the same tuple, runs.
    """
    if walk.sides is None:  # an odd cycle: grow
        seed = frozenset((min(walk.piece),))
        grown = refine_triple(SpannerRequest(g, walk.piece, seed, 1), Triple(seed, seed, frozenset(), 0))
        return Part(1, grown.h_vertices, grown.side_a, grown.side_b)
    return Part(1, walk.piece, *walk.sides)


def pick_component(
    g: Graph,
    uncovered: AbstractSet[int],
    pending: deque[int],
    owner: dict[int, int],
    parts: Sequence[Part],
) -> tuple[frozenset[int], list[Part]]:
    """Component of `uncovered` holding its minimum vertex, and every part
    adjacent to it in ascending index order.

    The caller keeps the state across calls: `uncovered`, the region minus
    the parts; `pending`, a sorted queue holding every uncovered vertex,
    whose covered head is dropped here, so the minimum is found by a cursor
    that only moves forward; `owner`, the position in `parts` of every
    covered vertex. One BFS walks the component, and its adjacent parts are
    the owners of its covered neighbors.
    """
    while pending and pending[0] not in uncovered:
        pending.popleft()
    if not pending:
        raise GraphError("nothing left to pick: parts cover the region")
    comp = frozenset(bfs(g, pending[0], uncovered))
    boundary = g.neighborhood(comp) & owner.keys()  # its covered neighbors
    return comp, [parts[i] for i in sorted(set(map(owner.__getitem__, boundary)))]


def decompose(g: Graph, t: int, walk: Walk, on_move: OnMove | None = None) -> DecomposeOutcome:
    """Build parts until the piece of `walk` is covered, or halt with a
    StuckState when a component sees t-1 earlier parts.

    `walk` is a component_walk from the minimum vertex of its piece, the
    region; run_color hands over the one that found a component of g. The
    piece is connected as walked, so every picked component touches a part,
    and pick_component trusts its vertices. maximal_bipartite_part reads or
    grows part 1 from the walk.

    A picked component of two or more vertices becomes build_spanner's part
    over k <= t-2 terminals, one per adjacent part: the least component
    vertex next to it, found by one scan of the component's neighbor tuples.
    Only this branch scans for terminals. A one-vertex component {v} becomes
    the part H = A = {v} here, with no spanner, and the same vertices of a
    stuck component are scanned once, by extract_certificate for its joins.

    Each part's local guarantees are checked where it is built. Part 1's
    are checked by maximal_bipartite_part: on a bipartite piece by the
    2-coloring walk, which needs an edge into the part from every vertex
    after the root and finds no edge inside a level, else by refine_triple
    move by move. So a connected bipartite region is one part, found
    without the growth, and pick_component's state (owner map, uncovered
    set, sorted queue) is built only when part 1 leaves a vertex. A spanner
    part's are checked by build_spanner's triple_violation under a side
    bound (k+1)//2, no larger than the decomposition's (t-1)//2. A
    one-vertex part has nothing to check.

    A new part records the parts next to its component as `earlier`, its
    earlier neighbors: it lies in the component and holds a terminal next
    to each. A picked component's adjacent parts must be pairwise adjacent
    by their records; a miss is a bug, not an input problem. A completed
    run is rechecked, records included, by decomposition_violation before
    it is returned; the recheck takes each part's local guarantees from
    these checks.
    """
    if t < 3:
        raise GraphError("t must be >= 3")
    parts = [maximal_bipartite_part(g, walk)]
    covered = len(parts[0].vertices) == len(walk.piece)  # part 1 covers the region: no state to keep
    uncovered = set() if covered else set(walk.piece) - parts[0].vertices
    owner = {} if covered else dict.fromkeys(parts[0].vertices, 0)
    pending = deque(sorted(uncovered))
    while uncovered:
        comp, adjacent = pick_component(g, uncovered, pending, owner, parts)
        for i, p in enumerate(adjacent):
            for q in adjacent[i + 1 :]:
                if p.index not in q.earlier:
                    raise InvariantViolation(
                        f"adjacent parts {p.index} and {q.index} are not pairwise adjacent"
                    )
        if len(adjacent) >= t - 1:
            return StuckState(comp, tuple(adjacent), tuple(parts))
        if len(comp) == 1:
            h, a, b = comp, comp, frozenset()
        else:  # per adjacent part, the least component vertex next to it: the first in order
            order = sorted(comp)
            terms = frozenset(next(touching(g, order, p.vertices)) for p in adjacent)
            h, a, b, _ = build_spanner(SpannerRequest(g, comp, terms, (len(terms) + 1) // 2), on_move=on_move)
        owner.update(dict.fromkeys(h, len(parts)))  # the new part's position
        parts.append(Part(len(parts) + 1, h, a, b, frozenset(p.index for p in adjacent)))
        uncovered -= h

    result = Decomposition(t, tuple(parts))
    reason = decomposition_violation(g, result, walk.piece)
    if reason is not None:
        raise InvariantViolation(f"completed decomposition failed recheck: {reason}")
    return result


def decomposition_violation(g: Graph, d: Decomposition, within: Iterable[int] | None = None) -> str | None:
    """First violated decomposition guarantee, or None if clean; every part
    takes its local guarantees from the step that built it.

    A part's local guarantees are that it is connected, that its same-side
    components respect ceil((t-2)/2), and that its crossing subgraph is
    connected. They are not checked here: decompose checks them where it
    builds each part, under a side bound no larger (part 1 by the 2-coloring
    walk or refine_triple's per-move checks, a spanner part by
    triple_violation), and for a one-vertex part the partition check implies
    them, as t >= 3 makes the bound at least 1. Parts built elsewhere must be
    checked for them first; the verdict below assumes them.

    Checks, for every part: its index is its position plus one, its sides
    partition it, and it overlaps no earlier part; then the parts cover the
    region, which is range-checked. Then, for every prefix H_1..H_k:
    uncovered neighbors of H_k see both its sides, and every uncovered
    component touches at most t-2 parts which are pairwise adjacent. The
    first failure in that order is reported: by prefix, side checks before
    component checks, then by vertex or by the component's minimum vertex;
    the records `earlier` are checked last.

    The per-part and cover checks come first, so the parts, each connected
    as assumed above, are disjoint and cover the region: the rest after
    prefix k is the union of the whole parts k+1..l, and its components are
    unions of whole parts. One pass from the last part to the first grows
    the rest. Its vertices that see one side of H_k only are the symmetric
    difference of N(A_k) and N(B_k) within it; the parts holding their union
    are the later parts adjacent to H_k, which also gives each part its
    earlier neighbors for the record check. A component of the rest touches
    the same parts at every prefix where it exists, as its outside neighbors
    are all covered, so one check, at the earliest, decides them all: the
    parts are added back from last to first into a union-find over part
    indices, and each component is checked just before it merges with the
    part being added back. Part 1 is never added back; the components left
    are those after it.
    """
    pool = frozenset(range(g.n)) if within is None else _checked_set(g, within)
    seen: set[int] = set()
    for i, p in enumerate(d.parts):
        if p.index != i + 1:
            return f"part at position {i} has index {p.index}"
        if (p.side_a & p.side_b) or (p.side_a | p.side_b) != p.vertices:
            return f"part {p.index}: sides do not partition its vertices"
        if p.vertices & seen:
            return f"part {p.index}: overlaps an earlier part"
        seen |= p.vertices
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
        if p.index > 1:  # nothing reads the owners after part 1, the last pass
            owner.update(dict.fromkeys(p.vertices, p.index))
    stale = next((p.index for p in d.parts if touched[p.index] != p.earlier), None)  # before the merges

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
    if first is None and stale is not None:
        return f"part {stale}: recorded earlier parts differ from those it touches"
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
