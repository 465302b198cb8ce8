"""Command-line surface: color-or-certify, verify artifacts, generate graphs,
render DOT, and query the toy oracle.

Exit codes: 0 colored/accepted, 1 usage or parse error, 2 verification
rejected, 3 odd-minor certificate emitted, 4 internal error: a self-check,
an internal invariant or the interpreter failed, which is a bug rather than
bad input. An internal error prints one "internal error: ..." line on stderr
and {"status": "error", ...} on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

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
    merge_colorings,
    product_coloring,
    report_to_json,
    verify_coloring,
)
from .decompose import (
    Decomposition,
    StuckState,
    decompose,
    decomposition_to_json,
)
from .generators import complete, connected_bipartite, connected_gnp, cycle, gnp, grid, random_bipartite
from .graph import Graph, GraphError, connected_components
from .graph_io import FORMATS, format_edgelist, load_graph, load_json
from .oracle import BudgetExceeded, OracleBudget, has_odd_expansion
from .spanner import OnMove

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REJECT = 2
EXIT_CERT = 3
EXIT_INTERNAL = 4


@dataclass
class PipelineResult:
    """Everything one color-or-certify run produced, for callers and tests."""

    exit_code: int
    payload: dict
    artifact: dict | None = None
    decompositions: list[Decomposition] = field(default_factory=list)
    coloring: ClusteredColoring | None = None
    report: ColoringReport | None = None
    certificate: OddExpansionCertificate | None = None


def run_color(
    g: Graph,
    t: int,
    on_move: OnMove | None = None,
    verbose: bool = False,
) -> PipelineResult:
    """Decompose every connected component; emit a verified coloring, or a
    verified certificate from the first component that gets stuck.

    Hues are assigned per component, which is safe: no edges cross
    components, so color reuse cannot merge monochromatic pieces.
    """
    outcomes = [decompose(g, t, within=c, on_move=on_move) for c in connected_components(g)]

    completed: list[Decomposition] = []
    for outcome in outcomes:
        if isinstance(outcome, StuckState):
            cert = extract_certificate(g, t, outcome)
            reason = verify_certificate(g, cert)
            if reason is not None:
                payload = {"status": "error", "error": f"certificate self-check failed: {reason}"}
                return PipelineResult(EXIT_INTERNAL, payload, certificate=cert)
            artifact = certificate_to_json(cert)
            payload = {"status": "certificate", "t": t, "certificate": artifact}
            return PipelineResult(EXIT_CERT, payload, artifact, completed, certificate=cert)
        completed.append(outcome)

    colorings = []
    for d in completed:
        aux = build_auxiliary(g, d)
        hues = color_parts(aux, t)
        colorings.append(product_coloring(g, d, hues))
    merged = merge_colorings(t, colorings)
    checked = verify_coloring(g, merged, t)
    if isinstance(checked, ColoringRejection):
        payload = {"status": "error", "error": f"coloring self-check failed: {checked.reason}"}
        return PipelineResult(EXIT_INTERNAL, payload, decompositions=completed, coloring=merged)
    artifact = coloring_to_json(merged, g.n)
    payload = {
        "status": "colored",
        "t": t,
        "coloring": artifact,
        "report": report_to_json(checked),
    }
    if verbose:
        payload["decompositions"] = [decomposition_to_json(d) for d in completed]
    return PipelineResult(EXIT_OK, payload, artifact, completed, merged, checked)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # exit code 1 on flag errors, per the CLI contract (argparse defaults to 2)
    def error(self, message):
        raise _UsageError(message)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


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
    g = load_graph(args.input, args.format)
    result = run_color(g, args.t, verbose=args.verbose)
    _emit(result.payload)
    if result.exit_code == EXIT_INTERNAL:
        print(f"internal error: {result.payload['error']}", file=sys.stderr)
    _write_artifact(result, args.output)
    return result.exit_code


def cmd_verify(args: argparse.Namespace) -> int:
    g = load_graph(args.input, args.format)
    obj = load_json(args.artifact)
    if not isinstance(obj, dict):
        raise GraphError("artifact JSON must be an object")
    if "trees" in obj:
        cert = certificate_from_json(obj)
        reason = verify_certificate(g, cert)
        if reason is not None:
            _emit({"accepted": False, "reason": reason})
            return EXIT_REJECT
        _emit({"accepted": True, "kind": "certificate", "t": cert.t})
        return EXIT_OK
    if "colors" in obj:
        coloring = coloring_from_json(obj)
        if len(coloring.colors) != g.n:
            _emit({"accepted": False, "reason": f"coloring covers {len(coloring.colors)} of {g.n} vertices"})
            return EXIT_REJECT
        checked = verify_coloring(g, coloring, coloring.t)
        if isinstance(checked, ColoringRejection):
            _emit({"accepted": False, "reason": checked.reason, "component": list(checked.component)})
            return EXIT_REJECT
        _emit({"accepted": True, "kind": "coloring", "report": report_to_json(checked)})
        return EXIT_OK
    raise GraphError("artifact is neither a coloring nor a certificate")


def cmd_gen(args: argparse.Namespace) -> int:
    family = args.family
    n = args.n
    if n is None or n < 1:
        raise _UsageError("--n must be a positive integer")
    if family == "cycle":
        g = cycle(n)
    elif family == "complete":
        g = complete(n)
    elif family == "grid":
        g = grid(n, n)
    elif family in ("gnp", "bipartite"):
        if args.p is None or not 0.0 <= args.p <= 1.0:
            raise _UsageError("--p must be in [0, 1]")
        if family == "gnp":
            g = connected_gnp(n, args.p, args.seed) if args.connected else gnp(n, args.p, args.seed)
        else:
            g = connected_bipartite(n, args.p, args.seed) if args.connected else random_bipartite(n, args.p, args.seed)
    else:
        raise _UsageError(f"unknown family {family!r}")
    text = format_edgelist(g)
    if args.output:
        _write_text(args.output, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


_PALETTE = (
    "#8dd3c7", "#ffffb3", "#bebada", "#fb8072", "#80b1d3", "#fdb462",
    "#b3de69", "#fccde5", "#d9d9d9", "#bc80bd", "#ccebc5", "#ffed6f",
)


def render_dot(g: Graph, artifact: dict | None = None) -> str:
    """DOT text for the graph, tinting vertices by coloring or grouping
    certificate trees into clusters. Purely presentational."""
    lines = ["graph G {", "  node [style=filled, fillcolor=white];"]
    drawn: set[tuple[int, int]] = set()
    if artifact is not None and "trees" in artifact:
        cert = certificate_from_json(artifact)
        for v in cert.coloring:
            if not 0 <= v < g.n:
                raise GraphError(f"certificate vertex {v} out of range for n={g.n}")
        for tree in cert.trees:
            for v in tree.vertices:
                if v not in cert.coloring:
                    raise GraphError(f"certificate coloring misses vertex {v}")
        for i, tree in enumerate(cert.trees):
            lines.append(f"  subgraph cluster_{i} {{")
            lines.append(f'    label="tree {i}";')
            for v in sorted(tree.vertices):
                fill = _PALETTE[(cert.coloring[v] - 1) % len(_PALETTE)]
                lines.append(f'    {v} [fillcolor="{fill}"];')
            for u, v in sorted(tree.edges):
                lines.append(f"    {u} -- {v};")
                drawn.add((u, v))
            lines.append("  }")
        for (i, j), (u, v) in sorted(cert.joins.items()):
            a, b = min(u, v), max(u, v)
            lines.append(f'  {a} -- {b} [penwidth=2, label="join {i}-{j}"];')
            drawn.add((a, b))
    elif artifact is not None and "colors" in artifact:
        coloring = coloring_from_json(artifact)
        if len(coloring.colors) != g.n:
            raise GraphError(f"coloring covers {len(coloring.colors)} of {g.n} vertices")
        palette: dict[tuple[int, int], str] = {}
        for pair in sorted(set(coloring.colors.values())):
            palette[pair] = _PALETTE[len(palette) % len(_PALETTE)]
        for v in range(g.n):
            pair = coloring.colors[v]
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
    artifact = load_json(args.artifact) if args.artifact else None
    text = render_dot(g, artifact)
    if args.output:
        _write_text(args.output, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    g = load_graph(args.input, args.format)
    budget = OracleBudget(max_n=args.budget_n, max_t=args.budget_t)
    answer = has_odd_expansion(g, args.t, budget)
    _emit({"odd_minor": answer, "t": args.t})
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="oddcluster", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_io(p: _Parser, artifact: bool = False) -> None:
        p.add_argument("--input", "-i", required=True, help="graph file")
        p.add_argument("--format", choices=FORMATS, default="edgelist")
        p.add_argument("--output", "-o", default=None)
        if artifact:
            p.add_argument("--artifact", help="coloring or certificate JSON file")

    p_color = sub.add_parser("color", help="color the graph or emit an odd-minor certificate")
    add_io(p_color)
    p_color.add_argument("--t", type=int, required=True, help="clique parameter, at least 3")
    p_color.add_argument("--verbose", "-v", action="store_true", help="include decompositions in output")
    p_color.set_defaults(func=cmd_color)

    p_verify = sub.add_parser("verify", help="check an artifact against a graph")
    add_io(p_verify, artifact=True)
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
    add_io(p_dot, artifact=True)
    p_dot.set_defaults(func=cmd_dot)

    p_oracle = sub.add_parser("oracle", help="exact odd-minor test at toy scale")
    add_io(p_oracle)
    p_oracle.add_argument("--t", type=int, required=True)
    p_oracle.add_argument("--budget-n", type=int, default=9)
    p_oracle.add_argument("--budget-t", type=int, default=4)
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GraphError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # InvariantViolation, RecursionError or anything else unexpected is a
        # bug: report it in one line with its type instead of a traceback
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"internal error: {message}", file=sys.stderr)
        _emit({"status": "error", "error": message})
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
