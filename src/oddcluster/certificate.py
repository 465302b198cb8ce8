"""Odd clique-expansion certificates.

A certificate for parameter t consists of t vertex-disjoint trees in the
host graph, a global 2-coloring proper on every tree, and one designated
joining edge per tree pair whose endpoints share a color. Its existence
proves the host contains an odd K_t-minor.

Extraction reads a halted decomposition; verification trusts nothing but
the host graph and the certificate itself.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Graph, GraphError, InvariantViolation, TreeSubgraph, bfs, norm_edge, touching
from .graph_io import json_int, json_pair
from .decompose import StuckState
from .spanner import cross_bfs


class OddExpansionCertificate(NamedTuple):
    t: int
    trees: tuple[TreeSubgraph, ...]
    coloring: dict[int, int]  # every tree vertex -> 1 or 2
    joins: dict[tuple[int, int], tuple[int, int]]  # tree pair (i<j) -> edge (u, v)


def extract_certificate(g: Graph, t: int, stuck: StuckState) -> OddExpansionCertificate:
    """Assemble a certificate from a halted decomposition.

    The t-1 lowest-index adjacent parts supply trees spanned by their
    side-crossing edges, colored by side; the stuck component supplies the
    final tree, colored by BFS parity from its minimum vertex. For each
    pair, the join attaches the minimum adjacent vertex y of the later tree
    to a same-colored neighbor on the earlier part, which exists because
    every later vertex adjacent to a part sees both of its sides.
    """
    if t < 2:
        raise GraphError("t must be >= 2")
    parts = sorted(stuck.adjacent_parts, key=lambda p: p.index)
    if len(parts) < t - 1:
        raise GraphError(f"need at least {t - 1} adjacent parts, got {len(parts)}")
    parts = parts[: t - 1]
    comp = stuck.component
    k = len(parts)  # the component's tree index
    # per tree pair i < j, the minimum vertex of tree j adjacent to part i: the
    # first to touch it of tree j's vertices, sorted once for trees 1..k. For
    # each part, the component first, then each later part
    later = [sorted(q.vertices) for q in parts[1:]] + [sorted(comp)]
    touch: dict[tuple[int, int], int] = {}
    for i, p in enumerate(parts):
        for j in (k, *range(i + 1, k)):
            y = next(touching(g, later[j - 1], p.vertices), None)
            if y is None and j == k:
                raise GraphError(f"part {p.index} is not adjacent to the component")
            if y is None:
                raise GraphError(f"parts {p.index} and {parts[j].index} are not adjacent")
            touch[i, j] = y

    trees: list[TreeSubgraph] = []
    coloring: dict[int, int] = {}
    for p in parts:
        walk = dict(zip(*cross_bfs(g, p.vertices, p.side_a, p.side_b)))
        trees.append(_tree(walk, p.vertices, f"part {p.index}'s crossing edges do not span it"))
        for v in p.side_a:
            coloring[v] = 1
        for v in p.side_b:
            coloring[v] = 2

    walk = bfs(g, min(comp), comp)
    trees.append(_tree(walk, comp, "the stuck component is not connected"))
    for v, p in walk.items():
        coloring[v] = 1 if v == p else 3 - coloring[p]

    joins: dict[tuple[int, int], tuple[int, int]] = {}
    for (i, j), y in sorted(touch.items()):
        earlier = parts[i]
        same_side = earlier.side_a if coloring[y] == 1 else earlier.side_b
        anchors = same_side.intersection(g.neighbors(y))
        if not anchors:
            raise InvariantViolation(
                f"vertex {y} adjacent to part {earlier.index} misses its "
                f"color-{coloring[y]} side"
            )
        joins[(i, j)] = (min(anchors), y)
    return OddExpansionCertificate(t, tuple(trees), coloring, joins)


def _tree(parent: dict[int, int], vertices: frozenset[int], error: str) -> TreeSubgraph:
    """The tree of a BFS parent map; GraphError(error) unless it reaches all of `vertices`."""
    if len(parent) != len(vertices):
        raise GraphError(error)
    return TreeSubgraph(vertices, frozenset(norm_edge(v, p) for v, p in parent.items() if v != p))


def verify_certificate(g: Graph, cert: OddExpansionCertificate) -> str | None:
    """None if the certificate is a valid odd clique expansion inside g,
    otherwise the first violated clause.

    Total on arbitrary content and independent of extraction: trees are
    checked by edge count plus reachability over the given edges alone.
    A tree vertex's color is the int 1 or 2: a float 1.0 is refused, and a
    bool passes as the int it equals, as in verify_coloring.
    """
    t, trees, coloring, joins = cert.t, cert.trees, cert.coloring, cert.joins  # read per vertex or edge below
    if not isinstance(t, int) or t < 1:
        return "t must be a positive integer"
    if len(trees) != t:
        return f"expected {t} trees, found {len(trees)}"
    claimed: set[int] = set()
    for idx, tree in enumerate(trees):
        vertices = tree.vertices
        if not vertices:
            return f"tree {idx} is empty"
        for v in vertices:
            if not (isinstance(v, int) and 0 <= v < g.n):
                return f"tree {idx} vertex {v!r} out of range"
        for e in tree.edges:
            if not _is_int_pair(e):
                return f"tree {idx} has a malformed edge {e!r}"
            u, v = e
            if u not in vertices or v not in vertices:
                return f"tree {idx} edge ({u},{v}) leaves its vertex set"
            if not g.has_edge(u, v):
                return f"tree {idx} edge ({u},{v}) not in graph"
        if len(tree.edges) != len(vertices) - 1:
            return f"tree {idx} edge count is not |V|-1"
        if not _spans(tree):
            return f"tree {idx} is not connected"
        if claimed & vertices:
            return "trees not disjoint"
        claimed |= vertices
    for v in sorted(claimed):
        color = coloring.get(v)
        if not (isinstance(color, int) and color in (1, 2)):
            return f"vertex {v} lacks a color in {{1,2}}"
    for idx, tree in enumerate(trees):
        for u, v in tree.edges:
            if coloring[u] == coloring[v]:
                return f"tree {idx} edge ({u},{v}) is monochromatic"
    wanted = {(i, j) for i in range(t) for j in range(i + 1, t)}
    if set(joins) != wanted:
        return "joins must cover every tree pair exactly once"
    for i, j in sorted(wanted):
        e = joins[(i, j)]
        if not _is_int_pair(e):
            return f"join for pair ({i},{j}) is malformed"
        u, v = e
        for w in (u, v):
            if not 0 <= w < g.n:
                return f"join vertex {w!r} out of range"
        if not g.has_edge(u, v):
            return f"join edge ({u},{v}) not in graph"
        ti, tj = trees[i].vertices, trees[j].vertices
        if not ((u in ti and v in tj) or (u in tj and v in ti)):
            return f"join edge ({u},{v}) does not link trees {i} and {j}"
        if coloring[u] != coloring[v]:
            return "join edge not monochromatic"
    return None


def _is_int_pair(e: object) -> bool:
    """An edge is a 2-tuple of ints; checked before any set lookup, which
    would raise on an unhashable endpoint."""
    return isinstance(e, tuple) and len(e) == 2 and isinstance(e[0], int) and isinstance(e[1], int)


def _spans(tree: TreeSubgraph) -> bool:
    adj: dict[int, list[int]] = {v: [] for v in tree.vertices}
    for u, v in tree.edges:
        adj[u].append(v)
        adj[v].append(u)
    start = min(tree.vertices)
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen == tree.vertices


def certificate_to_json(cert: OddExpansionCertificate) -> dict:
    return {
        "t": cert.t,
        "trees": [
            {"vertices": sorted(tr.vertices), "edges": [list(e) for e in sorted(tr.edges)]}
            for tr in cert.trees
        ],
        "coloring": {str(v): c for v, c in sorted(cert.coloring.items())},
        "joins": [
            {"pair": [i, j], "edge": [u, v]}
            for (i, j), (u, v) in sorted(cert.joins.items())
        ],
    }


def certificate_from_json(obj: dict) -> OddExpansionCertificate:
    """Parse the certificate format; every vertex, color, index and t must be
    a JSON integer and every edge or pair exactly two of them, and no tree
    vertex, tree edge or join pair may be listed twice; anything else raises
    GraphError, a wrong shape as "malformed certificate JSON: <reason>"."""
    try:
        trees = tuple(
            TreeSubgraph(
                _distinct([json_int(v, "tree vertex") for v in entry["vertices"]], "tree vertex"),
                _distinct([json_pair(e, "tree edge") for e in entry["edges"]], "tree edge"),
            )
            for entry in obj["trees"]
        )
        coloring = {}
        for key, c in obj["coloring"].items():
            v = int(key)
            if str(v) != key:
                raise GraphError(f"coloring key {key!r} is not a vertex id")
            coloring[v] = json_int(c, "vertex color")
        joins = {}
        for entry in obj["joins"]:
            pair = json_pair(entry["pair"], "join pair")
            if pair in joins:
                raise GraphError(f"join pair {list(pair)} is listed twice")
            joins[pair] = json_pair(entry["edge"], "join edge")
        return OddExpansionCertificate(json_int(obj["t"], "t"), trees, coloring, joins)
    except GraphError:  # names its own fault
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise GraphError(f"malformed certificate JSON: {exc}") from exc


def _distinct(items: list, what: str) -> frozenset:
    # a repeated entry would otherwise collapse in the set unseen
    found = frozenset(items)
    if len(found) != len(items):
        raise GraphError(f"a {what} is listed twice")
    return found
