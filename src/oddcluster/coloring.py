"""Part-graph coloring and the product coloring over a completed decomposition.

Each part gets a hue by greedy coloring of the part-adjacency graph in
construction order; since every part touches at most t-2 earlier ones,
hues 1..t-1 always suffice. A vertex's final color is (part hue, side),
so any monochromatic component stays inside one side of one part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import Graph, GraphError, InvariantViolation, norm_edge
from .graph_io import json_int, json_pair
from .decompose import Decomposition


@dataclass(frozen=True)
class ClusteredColoring:
    t: int
    colors: dict[int, tuple[int, int]]  # vertex -> (hue in 1..t-1, side in {1,2})


@dataclass(frozen=True)
class ColoringReport:
    colors_used: int
    max_component: int
    max_defect: int


@dataclass(frozen=True)
class ColoringRejection:
    reason: str
    component: tuple[int, ...] = ()


def build_auxiliary(g: Graph, d: Decomposition) -> Graph:
    """Graph on 0-based part positions, adjacent iff the parts are adjacent in g.

    Raises InvariantViolation if some position sees more than t-2 earlier
    ones, which would break the greedy hue bound.
    """
    owner: dict[int, int] = {}
    for pos, p in enumerate(d.parts):
        for v in p.vertices:
            owner[v] = pos
    pairs: set[tuple[int, int]] = set()
    for u, v in g.edges():
        pu, pv = owner.get(u), owner.get(v)
        if pu is None or pv is None or pu == pv:
            continue
        pairs.add(norm_edge(pu, pv))
    aux = Graph(len(d.parts), sorted(pairs))
    for pos in range(aux.n):
        back = sum(1 for q in aux.neighbors(pos) if q < pos)
        if back > d.t - 2:
            raise InvariantViolation(
                f"part {pos + 1} adjacent to {back} earlier parts, above t-2 = {d.t - 2}"
            )
    return aux


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


def product_coloring(g: Graph, d: Decomposition, part_hues: dict[int, int]) -> ClusteredColoring:
    """Color each vertex with (its part's hue, 1 for side A / 2 for side B)."""
    colors: dict[int, tuple[int, int]] = {}
    for p in d.parts:
        hue = part_hues[p.index]
        for v in p.side_a:
            colors[v] = (hue, 1)
        for v in p.side_b:
            colors[v] = (hue, 2)
    return ClusteredColoring(d.t, colors)


def merge_colorings(t: int, colorings: Iterable[ClusteredColoring]) -> ClusteredColoring:
    """Combine per-component colorings; hue reuse is safe across components."""
    merged: dict[int, tuple[int, int]] = {}
    for c in colorings:
        overlap = merged.keys() & c.colors.keys()
        if overlap:
            raise GraphError(f"colorings overlap on vertex {min(overlap)}")
        merged.update(c.colors)
    return ClusteredColoring(t, merged)


def verify_coloring(g: Graph, coloring: ClusteredColoring, t: int) -> ColoringReport | ColoringRejection:
    """Recompute monochromatic components from scratch and check the bounds:
    at most 2t-2 colors used and no component above ceil((t-2)/2).

    Shares nothing with the construction. The defect (maximum degree inside
    a monochromatic component) is reported but not enforced.
    """
    colors = coloring.colors
    for v in range(g.n):
        pair = colors.get(v)
        if pair is None:
            return ColoringRejection(f"vertex {v} is uncolored")
        if not (isinstance(pair, tuple) and len(pair) == 2):
            return ColoringRejection(f"vertex {v} color {pair!r} is malformed")
        hue, side = pair
        if not (isinstance(hue, int) and 1 <= hue <= t - 1) or side not in (1, 2):
            return ColoringRejection(f"vertex {v} color {pair} out of range")

    comps: list[list[int]] = []
    unseen = set(range(g.n))
    for s in range(g.n):
        if s not in unseen:
            continue
        unseen.discard(s)
        pair = colors[s]
        comp = [s]
        stack = [s]
        while stack:
            x = stack.pop()
            for y in g.neighbors(x):
                if y in unseen and colors[y] == pair:
                    unseen.discard(y)
                    comp.append(y)
                    stack.append(y)
        comps.append(sorted(comp))

    used = len({colors[v] for v in range(g.n)})
    max_component = max((len(c) for c in comps), default=0)
    max_defect = 0
    for comp in comps:
        members = frozenset(comp)
        inner = max((len(g.adj(v) & members) for v in comp), default=0)
        max_defect = max(max_defect, inner)

    if used > 2 * t - 2:
        return ColoringRejection(f"{used} colors used, above the 2t-2 = {2 * t - 2} limit")
    limit = (t - 1) // 2  # ceil((t-2)/2)
    if max_component > limit:
        offender = next(c for c in comps if len(c) > limit)
        return ColoringRejection(
            f"monochromatic component of size {len(offender)} exceeds {limit}",
            tuple(offender),
        )
    return ColoringReport(used, max_component, max_defect)


def coloring_to_json(coloring: ClusteredColoring, n: int) -> dict:
    rows = []
    for v in range(n):
        pair = coloring.colors.get(v)
        if pair is None:
            raise GraphError(f"vertex {v} is uncolored")
        rows.append([pair[0], pair[1]])
    return {"t": coloring.t, "colors": rows}


def coloring_from_json(obj: dict) -> ClusteredColoring:
    """Parse the coloring format; every number must be a JSON integer and
    every row a [hue, side] pair, anything else raises GraphError."""
    try:
        colors = {v: json_pair(row, f"color of vertex {v}") for v, row in enumerate(obj["colors"])}
        return ClusteredColoring(json_int(obj["t"], "t"), colors)
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed coloring JSON: {exc}") from exc


def report_to_json(report: ColoringReport) -> dict:
    return {
        "colors_used": report.colors_used,
        "max_component": report.max_component,
        "max_defect": report.max_defect,
    }
