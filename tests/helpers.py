"""Test-only graph checks and reference implementations.

`bipartition_or_odd_cycle` is an independent bipartiteness check with an
odd-cycle witness; the pipeline never needs one. `cross_components_reference`
is the stand-alone crossing-subgraph traversal that
`spanner.cross_components` replaced with a predicate-restricted
`connected_components` call; the differential test compares the two.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from oddcluster.graph import Graph, GraphError, is_connected


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
