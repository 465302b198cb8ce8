"""Read and write graphs (edge-list text, DIMACS) and read JSON artifacts."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .graph import Edge, Graph, GraphError

FORMATS = ("edgelist", "dimacs")


def _int_pair(parts: list[str], context: str) -> Edge:
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise GraphError(f"bad {context} line: {' '.join(parts)!r}") from exc


def read_edgelist(text: str) -> Graph:
    """Parse "n m" header followed by m lines "u v" with 0-based vertices."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError(f"bad header {lines[0]!r}, expected 'n m'")
    n, m = _int_pair(head, "header")
    if len(lines) - 1 != m:
        raise GraphError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge line {ln!r}")
        edges.append(_int_pair(parts, "edge"))
    return Graph(n, edges)


def format_edgelist(g: Graph) -> str:
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"


def read_dimacs(text: str) -> Graph:
    """Parse DIMACS: a "p edge n m" header plus "e u v" lines (1-based)."""
    n = None
    m = 0
    edges: list[Edge] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] not in ("edge", "col"):
                raise GraphError(f"bad problem line {line!r}")
            n, m = _int_pair(parts[2:], "problem")
        elif parts[0] == "e":
            if n is None:
                raise GraphError("edge line before problem line")
            if len(parts) != 3:
                raise GraphError(f"bad edge line {line!r}")
            u, v = _int_pair(parts[1:], "edge")
            edges.append((u - 1, v - 1))
        else:
            raise GraphError(f"unrecognized line {line!r}")
    if n is None:
        raise GraphError("missing 'p edge n m' line")
    if len(edges) != m:
        raise GraphError(f"expected {m} edges, found {len(edges)}")
    return Graph(n, edges)


def format_dimacs(g: Graph) -> str:
    out = [f"p edge {g.n} {g.m}"]
    out.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(out) + "\n"


def load_graph(path: str | Path, fmt: str = "edgelist") -> Graph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise GraphError(f"cannot read {path}: {exc}") from exc
    if fmt == "edgelist":
        return read_edgelist(text)
    if fmt == "dimacs":
        return read_dimacs(text)
    raise GraphError(f"unknown format {fmt!r}")


def load_json(path: str | Path) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise GraphError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"invalid JSON in {path}: {exc}") from exc


def json_int(value: Any, what: str) -> int:
    """`value` if it is a JSON integer; anything else, bool included, raises."""
    if type(value) is not int:
        raise GraphError(f"{what} must be an integer, got {value!r}")
    return value


def json_pair(value: Any, what: str) -> tuple[int, int]:
    """A two-entry list of JSON integers as a tuple; anything else raises."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise GraphError(f"{what} must be a pair of integers, got {value!r}")
    return json_int(value[0], what), json_int(value[1], what)
