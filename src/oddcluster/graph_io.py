"""Read graphs (edge-list text, plain text in bulk, and DIMACS), write edge lists, and
read JSON artifacts."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .graph import MAX_VERTICES, Edge, Graph, GraphError, first_bad_edge

FORMATS = ("edgelist", "dimacs")
_DIGITS = str.maketrans("", "", "0123456789")


def _int_pair(parts: list[str], context: str) -> Edge:
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise GraphError(f"bad {context} line: {' '.join(parts)!r}") from exc


def read_edgelist(text: str) -> Graph:
    """Parse "n m" header followed by m lines "u v" with 0-based vertices, with the
    same graph or error either way: in bulk if the text is plain, else by the line loop.
    Plain is two C scans: with its ASCII digits deleted, the text is one space, then one
    newline, per line, the last newline optional; then one `json.loads` reads every
    number, raising ValueError on an empty, zero-led or over-limit one."""
    body = text[:-1] if text.endswith("\n") else text
    lines = body.count(" ")  # a plain line holds one space
    if lines and body.translate(_DIGITS) == " \n" * (lines - 1) + " ":
        try:
            nums = json.loads("[" + body.replace(" ", ",").replace("\n", ",") + "]")
        except ValueError:
            pass
        else:
            n, m = nums[0], nums[1]  # two a line, so the header is there
            if m == lines - 1:
                # free the text's copy before the build (6% of the peak at 10^6 vertices),
                # and drop the header in place: the endpoints are not copied
                del body, nums[:2]
                return Graph.from_ends(n, nums)
    return _read_lines(text)


def _read_lines(text: str) -> Graph:
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
    """Parse DIMACS: one "p edge n m" header plus "e u v" lines (1-based). The
    first edge out of range, a loop or a repeat, in file order, is reported by
    its "e u v" line as written."""
    n = None
    m = 0
    ends: list[int] = []  # 0-based, two per edge, as Graph.from_ends takes them
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] not in ("edge", "col"):
                raise GraphError(f"bad problem line {line!r}")
            if n is not None:
                raise GraphError(f"repeated problem line {line!r}")
            n, m = _int_pair(parts[2:], "problem")
        elif parts[0] == "e":
            if n is None:
                raise GraphError("edge line before problem line")
            if len(parts) != 3:
                raise GraphError(f"bad edge line {line!r}")
            u, v = _int_pair(parts[1:], "edge")
            ends += u - 1, v - 1
        else:
            raise GraphError(f"unrecognized line {line!r}")
    if n is None:
        raise GraphError("missing 'p edge n m' line")
    if len(ends) != 2 * m:
        raise GraphError(f"expected {m} edges, found {len(ends) // 2}")
    try:
        return Graph.from_ends(n, ends)
    except GraphError:
        if not 0 <= n <= MAX_VERTICES:  # the vertex count, refused before any edge
            raise
        i = first_bad_edge(n, ends)
    u, v = ends[2 * i], ends[2 * i + 1]
    line = [ln.strip() for ln in text.splitlines() if ln.strip().startswith("e")][i]
    if not (0 <= u < n and 0 <= v < n):
        raise GraphError(f"edge line {line!r} out of range for n={n}")
    raise GraphError(f"edge line {line!r} {'is a self-loop' if u == v else 'repeats an earlier edge'}")


def load_graph(path: str | Path, fmt: str = "edgelist") -> Graph:
    """Read a graph file as UTF-8 text, a leading BOM ignored, in the given format."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphError(f"cannot read {path}: {exc}") from exc
    if fmt == "edgelist":
        return read_edgelist(text)
    if fmt == "dimacs":
        return read_dimacs(text)
    raise GraphError(f"unknown format {fmt!r}")


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise GraphError(f"repeated JSON object key {key!r}")
        obj[key] = value
    return obj


def load_json(path: str | Path) -> Any:
    """Parse a UTF-8 JSON file, a leading BOM ignored; an object that repeats a key
    is an error, not a silent overwrite."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except GraphError:
        raise
    except (ValueError, RecursionError) as exc:  # bad syntax, an integer past the digit limit, too deep
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
