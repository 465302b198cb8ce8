"""Part-graph coloring and the product coloring over a completed decomposition.

Each part gets a hue by greedy coloring of the part-adjacency graph in
construction order; since every part touches at most t-2 earlier ones,
hues 1..t-1 always suffice. A vertex's final color is (part hue, side),
so any monochromatic component stays inside one side of one part.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Graph, GraphError, InvariantViolation
from .graph_io import json_int, json_pair
from .decompose import Decomposition


class ClusteredColoring(NamedTuple):
    t: int
    colors: dict[int, tuple[int, int]]  # vertex -> (hue in 1..t-1, side in {1,2})


class ColoringReport(NamedTuple):
    colors_used: int
    max_component: int
    max_defect: int


class ColoringRejection(NamedTuple):
    reason: str
    component: tuple[int, ...] = ()


def build_auxiliary(d: Decomposition) -> Graph:
    """Graph on 0-based part positions, adjacent iff the parts are adjacent in
    the host graph.

    The pairs are read off `Part.earlier`, which decompose records and the
    recheck checks: `d` must have passed decomposition_violation, as every
    decomposition from decompose has. Raises InvariantViolation if some
    position sees more than t-2 earlier ones, breaking the greedy hue bound.
    """
    pairs: list[tuple[int, int]] = []
    for pos, p in enumerate(d.parts):
        if len(p.earlier) > d.t - 2:
            raise InvariantViolation(
                f"part {pos + 1} adjacent to {len(p.earlier)} earlier parts, above t-2 = {d.t - 2}"
            )
        pairs.extend((q - 1, pos) for q in p.earlier)  # an index is its position plus one
    return Graph(len(d.parts), pairs)


def color_parts(aux: Graph, t: int) -> dict[int, int]:
    """Greedy smallest-free-hue per part in index order; keyed by 1-based index."""
    hues: dict[int, int] = {}
    for pos in range(aux.n):
        used = {hues[q + 1] for q in aux.neighbors(pos) if q < pos}
        hue = next((h for h in range(1, t) if h not in used), None)
        if hue is None:
            raise InvariantViolation(f"hue palette 1..{t - 1} exhausted at part {pos + 1}")
        hues[pos + 1] = hue
    return hues


def product_coloring(d: Decomposition, part_hues: dict[int, int]) -> ClusteredColoring:
    """Color each vertex with (its part's hue, 1 for side A / 2 for side B)."""
    colors: dict[int, tuple[int, int]] = {}
    for p in d.parts:
        hue = part_hues[p.index]
        colors.update(dict.fromkeys(p.side_a, (hue, 1)))
        colors.update(dict.fromkeys(p.side_b, (hue, 2)))
    return ClusteredColoring(d.t, colors)


def verify_coloring(g: Graph, coloring: ClusteredColoring, t: int) -> ColoringReport | ColoringRejection:
    """Recompute monochromatic components from scratch and check the bounds:
    at most 2t-2 colors used and no component above ceil((t-2)/2).

    Shares nothing with the construction. The defect (maximum degree inside
    a monochromatic component) is reported but not enforced.

    Each vertex's color is validated on its own, an int hue and an int side
    (a check per class would let a float (1.0, 1) or (1, 1.0) pass under the
    class (1, 1)), in the pass that groups the vertices by color. Per class,
    one union of neighbor tuples, intersected with the class, finds the
    vertices with a same-color neighbor. Only those are walked, in ascending
    order, so each component starts at its minimum vertex and the first
    oversize one is found as in a walk of every vertex. Every other vertex
    is a component of its own, so below t=3, where the bound is 0, the
    offender is vertex 0's component.
    """
    colors = coloring.colors
    classes: dict[tuple[int, int], list[int]] = {}
    for v in range(g.n):
        pair = colors.get(v)
        if pair is None:
            return ColoringRejection(f"vertex {v} is uncolored")
        if not (isinstance(pair, tuple) and len(pair) == 2):
            return ColoringRejection(f"vertex {v} color {pair!r} is malformed")
        hue, side = pair
        if not (isinstance(hue, int) and 1 <= hue <= t - 1 and isinstance(side, int) and side in (1, 2)):
            return ColoringRejection(f"vertex {v} color {pair} out of range")
        classes.setdefault(pair, []).append(v)

    linked: set[int] = set()  # vertices with a neighbor of their own color
    for members in classes.values():
        linked.update(g.neighborhood(members).intersection(members))
    comps: list[list[int]] = []  # the components of two or more vertices
    unseen = set(linked)
    for s in sorted(linked):
        if s not in unseen:
            continue
        unseen.discard(s)
        pair = colors[s]
        comp = [s]
        for x in comp:
            for y in g.neighbors(x):
                if y in unseen and colors[y] == pair:
                    unseen.discard(y)
                    comp.append(y)
        comps.append(comp)

    used = len(classes)
    max_component = max(map(len, comps), default=min(g.n, 1))
    max_defect = 0
    for comp in comps:
        members = frozenset(comp)
        max_defect = max(max_defect, max(len(members.intersection(g.neighbors(v))) for v in comp))

    if used > 2 * t - 2:
        return ColoringRejection(f"{used} colors used, above the 2t-2 = {2 * t - 2} limit")
    limit = (t - 1) // 2  # ceil((t-2)/2)
    if max_component > limit:
        if limit >= 1:
            offender = next(c for c in comps if len(c) > limit)
        else:  # every component is oversize: the first is vertex 0's
            offender = comps[0] if comps and comps[0][0] == 0 else [0]
        return ColoringRejection(
            f"monochromatic component of size {len(offender)} exceeds {limit}",
            tuple(sorted(offender)),
        )
    return ColoringReport(used, max_component, max_defect)


def coloring_to_json(coloring: ClusteredColoring, n: int) -> dict:
    try:
        rows = list(map(list, map(coloring.colors.__getitem__, range(n))))
    except KeyError as exc:  # the first vertex without a color
        raise GraphError(f"vertex {exc.args[0]} is uncolored") from None
    return {"t": coloring.t, "colors": rows}


def coloring_from_json(obj: dict) -> ClusteredColoring:
    """Parse the coloring format; every number must be a JSON integer and
    every row a [hue, side] pair, anything else raises GraphError."""
    try:
        colors = {v: json_pair(row, f"color of vertex {v}") for v, row in enumerate(obj["colors"])}
        return ClusteredColoring(json_int(obj["t"], "t"), colors)
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed coloring JSON: {exc}") from exc
