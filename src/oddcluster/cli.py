"""Command-line surface: color-or-certify, verify artifacts, generate graphs
and render DOT.

Exit codes: 0 colored/accepted, 1 usage or parse error, 2 verification
rejected, 3 odd-minor certificate emitted, 4 internal error: a self-check,
an internal invariant or the interpreter failed, which is a bug rather than
bad input. An internal error prints one "internal error: ..." line on stderr
and {"status": "error", ...} on stdout.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .certificate import (
    OddExpansionCertificate,
    certificate_from_json,
    certificate_to_json,
    extract_certificate,
    verify_certificate,
)
from .coloring import (
    ClusteredColoring,
    ColoringRejection,
    ColoringReport,
    build_auxiliary,
    color_parts,
    coloring_from_json,
    coloring_to_json,
    product_coloring,
    verify_coloring,
)
from .decompose import (
    Decomposition,
    StuckState,
    decompose,
    decomposition_to_json,
)
from .graph import MAX_VERTICES, Graph, GraphError, component_walks
from .graph_io import FORMATS, format_edgelist, load_graph, load_json
from .spanner import OnMove

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REJECT = 2
EXIT_CERT = 3
EXIT_INTERNAL = 4


class PipelineResult(NamedTuple):
    """Everything one color-or-certify run produced, for callers and tests."""

    exit_code: int
    payload: dict
    artifact: dict | None = None
    decompositions: tuple[Decomposition, ...] = ()
    coloring: ClusteredColoring | None = None
    report: ColoringReport | None = None
    certificate: OddExpansionCertificate | None = None


def run_color(g: Graph, t: int, on_move: OnMove | None = None) -> PipelineResult:
    """Decompose the connected components in order; emit a verified
    certificate from the first component that gets stuck, without
    walking the rest, or else a verified coloring.

    Each component is found by one component_walk from its minimum vertex,
    made only when the one before it has been decomposed, and decompose
    takes that walk, whose piece is its region and whose first part is read
    from it: no component is walked twice.

    Hues are assigned per component, which is safe: no edges cross
    components, so color reuse cannot merge monochromatic pieces. The
    components are disjoint and each decomposition covers its own, so the
    first component's coloring becomes the run's map and the later ones
    fill it with no overlap; verify_coloring then checks it as a whole.
    The artifact's rows are the map's own (hue, side) tuples, not copies.
    The decompositions are returned in the result, not in the payload.
    """
    if type(t) is not int:
        raise GraphError(f"t must be an integer, got {t!r}")
    if t < 3:  # decompose checks it too, but a graph with no vertices never calls it
        raise GraphError("t must be >= 3")
    completed: list[Decomposition] = []
    for walk in component_walks(g):
        outcome = decompose(g, t, walk, on_move)
        if isinstance(outcome, StuckState):
            cert = extract_certificate(g, t, outcome)
            reason = verify_certificate(g, cert)
            if reason is not None:
                payload = {"status": "error", "error": f"certificate self-check failed: {reason}"}
                return PipelineResult(EXIT_INTERNAL, payload, certificate=cert)
            artifact = certificate_to_json(cert)
            payload = {"status": "certificate", "t": t, "certificate": artifact}
            return PipelineResult(EXIT_CERT, payload, artifact, tuple(completed), certificate=cert)
        completed.append(outcome)

    maps = (product_coloring(d, color_parts(build_auxiliary(d), t)).colors for d in completed)
    colors: dict[int, tuple[int, int]] = next(maps, {})  # the first component's map is the run's
    for later in maps:
        colors.update(later)
    coloring = ClusteredColoring(t, colors)
    checked = verify_coloring(g, coloring, t)
    if isinstance(checked, ColoringRejection):
        payload = {"status": "error", "error": f"coloring self-check failed: {checked.reason}"}
        return PipelineResult(EXIT_INTERNAL, payload, decompositions=tuple(completed), coloring=coloring)
    artifact = coloring_to_json(coloring, g.n)
    payload = {"status": "colored", "t": t, "coloring": artifact, "report": checked._asdict()}
    return PipelineResult(EXIT_OK, payload, artifact, tuple(completed), coloring, checked)


class _UsageError(Exception):
    pass


def _write_stdout(text: str) -> None:
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # the reader is gone (say, `| head`): point fd 1 at devnull so the
        # interpreter's flush at exit does not fail a second time
        with contextlib.suppress(OSError, ValueError):
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        raise GraphError(f"cannot write stdout: {exc}") from exc


def _emit(payload: dict) -> None:
    _write_stdout(json.dumps(payload, indent=2) + "\n")


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise GraphError(f"cannot write {path}: {exc}") from exc


def _write_artifact(result: PipelineResult, output: str | None) -> None:
    if output and result.artifact is not None:
        _write_text(output, json.dumps(result.artifact, indent=2) + "\n")


def cmd_color(args: argparse.Namespace) -> int:
    if args.t < 3:
        raise _UsageError("--t must be at least 3")
    # a run leaves no cyclic garbage, so the collector would only rescan the
    # heap; it is restored for in-process callers, and library calls keep theirs
    collecting = gc.isenabled()
    gc.disable()
    try:
        g = load_graph(args.input, args.format)
        result = run_color(g, args.t)
        if args.verbose and result.exit_code == EXIT_OK:
            result.payload["decompositions"] = [decomposition_to_json(d) for d in result.decompositions]
        # the artifact first, so that a stdout whose reader is gone cannot lose it
        _write_artifact(result, args.output)
        _emit(result.payload)
    finally:
        if collecting:
            gc.enable()
    if result.exit_code == EXIT_INTERNAL:
        print(f"internal error: {result.payload['error']}", file=sys.stderr)
    return result.exit_code


def _load_artifact(path: str) -> OddExpansionCertificate | ClusteredColoring:
    """The one reader of artifact files for `verify` and `dot`: a JSON object
    holding "trees" is a certificate, one holding "colors" a coloring, and
    anything else raises GraphError."""
    obj = load_json(path)
    if not isinstance(obj, dict):
        raise GraphError("artifact JSON must be an object")
    if "trees" in obj:
        return certificate_from_json(obj)
    if "colors" in obj:
        return coloring_from_json(obj)
    raise GraphError("artifact is neither a coloring nor a certificate")


def cmd_verify(args: argparse.Namespace) -> int:
    g = load_graph(args.input, args.format)
    artifact = _load_artifact(args.artifact)
    if isinstance(artifact, OddExpansionCertificate):
        reason = verify_certificate(g, artifact)
        if reason is not None:
            _emit({"accepted": False, "reason": reason})
            return EXIT_REJECT
        _emit({"accepted": True, "kind": "certificate", "t": artifact.t})
        return EXIT_OK
    if len(artifact.colors) != g.n:
        _emit({"accepted": False, "reason": f"coloring covers {len(artifact.colors)} of {g.n} vertices"})
        return EXIT_REJECT
    checked = verify_coloring(g, artifact, artifact.t)
    if isinstance(checked, ColoringRejection):
        _emit({"accepted": False, "reason": checked.reason, "component": list(checked.component)})
        return EXIT_REJECT
    _emit({"accepted": True, "kind": "coloring", "report": checked._asdict()})
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    # imported here: no other command, nor run_color, needs the generators
    from .generators import complete, connected_bipartite, connected_gnp, cycle, gnp, grid, random_bipartite

    family, n, p = args.family, args.n, args.p
    if n is None or n < 1:
        raise _UsageError("--n must be a positive integer")
    if family in ("gnp", "bipartite") and (p is None or not 0.0 <= p <= 1.0):
        raise _UsageError("--p must be in [0, 1]")
    # both limits before a generator allocates the edges: 10^7 edges cost about what 10^7 vertices do
    count = n * n if family == "grid" else n
    if count > MAX_VERTICES:
        raise GraphError(f"vertex count {count} above the limit of {MAX_VERTICES}")
    if family == "bipartite":  # cross pairs only, plus a spanning tree with --connected
        edges = int(p * (n // 2) * ((n + 1) // 2)) + (n - 1 if args.connected else 0)
    else:
        pairs = n * (n - 1) // 2
        edges = pairs if family == "complete" else int(p * pairs) if family == "gnp" else 0
    if edges > MAX_VERTICES:
        raise GraphError(f"edge count {edges} above the limit of {MAX_VERTICES}")
    if family == "cycle":
        g = cycle(n)
    elif family == "complete":
        g = complete(n)
    elif family == "grid":
        g = grid(n, n)
    elif family == "gnp":
        g = connected_gnp(n, p, args.seed) if args.connected else gnp(n, p, args.seed)
    elif family == "bipartite":
        g = connected_bipartite(n, p, args.seed) if args.connected else random_bipartite(n, p, args.seed)
    else:
        raise _UsageError(f"unknown family {family!r}")
    text = format_edgelist(g)
    if args.output:
        _write_text(args.output, text)
    else:
        _write_stdout(text)
    return EXIT_OK


_PALETTE = (
    "#8dd3c7", "#ffffb3", "#bebada", "#fb8072", "#80b1d3", "#fdb462",
    "#b3de69", "#fccde5", "#d9d9d9", "#bc80bd", "#ccebc5", "#ffed6f",
)


def render_dot(g: Graph, artifact: OddExpansionCertificate | ClusteredColoring | None = None) -> str:
    """DOT text for the graph, tinting vertices by coloring or grouping
    certificate trees into clusters. Purely presentational: the artifact is
    not verified, only checked to name the graph's vertices."""
    lines = ["graph G {", "  node [style=filled, fillcolor=white];"]
    drawn: set[tuple[int, int]] = set()
    if isinstance(artifact, OddExpansionCertificate):
        ends = [v for tree in artifact.trees for e in tree.edges for v in e]
        ends += [v for e in artifact.joins.values() for v in e]
        for v in [*artifact.coloring, *ends]:  # tree vertices must be colored, below
            if not 0 <= v < g.n:
                raise GraphError(f"certificate vertex {v} out of range for n={g.n}")
        for tree in artifact.trees:
            for v in tree.vertices:
                if v not in artifact.coloring:
                    raise GraphError(f"certificate coloring misses vertex {v}")
        for i, tree in enumerate(artifact.trees):
            lines.append(f"  subgraph cluster_{i} {{")
            lines.append(f'    label="tree {i}";')
            for v in sorted(tree.vertices):
                fill = _PALETTE[(artifact.coloring[v] - 1) % len(_PALETTE)]
                lines.append(f'    {v} [fillcolor="{fill}"];')
            for u, v in sorted(tree.edges):
                lines.append(f"    {u} -- {v};")
                drawn.add((u, v))
            lines.append("  }")
        for (i, j), (u, v) in sorted(artifact.joins.items()):
            a, b = min(u, v), max(u, v)
            lines.append(f'  {a} -- {b} [penwidth=2, label="join {i}-{j}"];')
            drawn.add((a, b))
    elif isinstance(artifact, ClusteredColoring):
        if len(artifact.colors) != g.n:
            raise GraphError(f"coloring covers {len(artifact.colors)} of {g.n} vertices")
        palette: dict[tuple[int, int], str] = {}
        for pair in sorted(set(artifact.colors.values())):
            palette[pair] = _PALETTE[len(palette) % len(_PALETTE)]
        for v in range(g.n):
            pair = artifact.colors[v]
            lines.append(f'  {v} [fillcolor="{palette[pair]}", label="{v} ({pair[0]},{pair[1]})"];')
    else:
        for v in range(g.n):
            lines.append(f"  {v};")
    for u, v in g.edges():
        if (u, v) not in drawn:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_dot(args: argparse.Namespace) -> int:
    g = load_graph(args.input, args.format)
    artifact = _load_artifact(args.artifact) if args.artifact else None
    text = render_dot(g, artifact)
    if args.output:
        _write_text(args.output, text)
    else:
        _write_stdout(text)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    import argparse  # here alone: run_color and the library never need it

    class _Parser(argparse.ArgumentParser):
        # exit code 1 on flag errors, per the CLI contract (argparse defaults to 2)
        def error(self, message):
            raise _UsageError(message)

    parser = _Parser(prog="oddcluster", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", "-i", required=True, help="graph file")
        p.add_argument("--format", choices=FORMATS, default="edgelist")

    p_color = sub.add_parser("color", help="color the graph or emit an odd-minor certificate")
    add_input(p_color)
    p_color.add_argument("--output", "-o", default=None)
    p_color.add_argument("--t", type=int, required=True, help="clique parameter, at least 3")
    p_color.add_argument("--verbose", "-v", action="store_true", help="add a colored run's decompositions")
    p_color.set_defaults(func=cmd_color)

    p_verify = sub.add_parser("verify", help="check an artifact against a graph")
    add_input(p_verify)  # and no --output: verify only prints its verdict
    p_verify.add_argument("--artifact", required=True, help="coloring or certificate JSON file")
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="write a deterministic graph in edge-list format")
    p_gen.add_argument("--family", required=True, choices=("gnp", "bipartite", "cycle", "complete", "grid"))
    p_gen.add_argument("--n", type=int, required=True, help="vertex count (grid: side length)")
    p_gen.add_argument("--p", type=float, default=None, help="edge probability for gnp/bipartite")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--connected", action="store_true", help="force connectivity")
    p_gen.add_argument("--output", "-o", default=None)
    p_gen.set_defaults(func=cmd_gen)

    p_dot = sub.add_parser("dot", help="render the graph (plus optional artifact) as DOT")
    add_input(p_dot)
    p_dot.add_argument("--output", "-o", default=None)
    p_dot.add_argument("--artifact", help="coloring or certificate JSON file to draw")
    p_dot.set_defaults(func=cmd_dot)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # InvariantViolation, RecursionError or anything else unexpected is a
        # bug: report it in one line with its type instead of a traceback
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"internal error: {message}", file=sys.stderr)
        with contextlib.suppress(GraphError):
            _emit({"status": "error", "error": message})
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
