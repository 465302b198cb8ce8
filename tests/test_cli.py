import gc
import importlib
import io
import json
import os
import subprocess
import sys

import pytest

from oddcluster import cli
from oddcluster import spanner as spanner_module
from oddcluster.cli import EXIT_INTERNAL, main, run_color
from oddcluster.coloring import ColoringRejection
from oddcluster.decompose import decompose
from oddcluster.graph import MAX_VERTICES, Graph, GraphError, InvariantViolation
from oddcluster.graph_io import format_edgelist, load_graph
from oddcluster import generators as gen

from helpers import format_dimacs, region_walk

graph_module = importlib.import_module("oddcluster.graph")
decompose_module = importlib.import_module("oddcluster.decompose")  # the package exports a function of that name


def write_graph(tmp_path, g, name="g.txt"):
    path = tmp_path / name
    path.write_text(format_edgelist(g))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class ClosedPipe(io.StringIO):
    """A stdout whose reader is gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestColor:
    def test_c6_colored(self, tmp_path, capsys, c6):
        path = write_graph(tmp_path, c6)
        out_path = str(tmp_path / "coloring.json")
        code, out, _ = run_cli(capsys, "color", "-i", path, "--t", "3", "-o", out_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "colored"
        assert payload["report"]["colors_used"] <= 4
        assert payload["report"]["max_component"] == 1
        assert json.loads((tmp_path / "coloring.json").read_text()) == payload["coloring"]

    @pytest.mark.parametrize("g, code", [(gen.grid(30, 30), 0), (gen.complete(5), 3)], ids=["coloring", "certificate"])
    def test_artifact_written_before_a_closed_stdout(self, tmp_path, capsys, monkeypatch, g, code):
        art = tmp_path / "art.json"
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["color", "-i", write_graph(tmp_path, g), "--t", "3", "-o", str(art)]) == 1
        assert capsys.readouterr().err == "error: cannot write stdout: [Errno 32] Broken pipe\n"
        assert run_color(g, 3).exit_code == code
        assert art.read_text() == json.dumps(run_color(g, 3).artifact, indent=2) + "\n"

    def test_unwritable_artifact_is_one_error_line(self, tmp_path, capsys, c6):
        # the -o target is a directory: nothing reaches stdout
        code, out, err = run_cli(capsys, "color", "-i", write_graph(tmp_path, c6), "--t", "3", "-o", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {tmp_path}: ") and err.count("\n") == 1

    def test_k5_certified(self, tmp_path, capsys, k5):
        path = write_graph(tmp_path, k5)
        code, out, _ = run_cli(capsys, "color", "-i", path, "--t", "3")
        assert code == 3
        payload = json.loads(out)
        assert payload["status"] == "certificate"
        assert len(payload["certificate"]["trees"]) == 3

    def test_disconnected_input(self, tmp_path, capsys, k5, c6):
        # one stuck component certifies the whole graph
        edges = k5.edges() + [(u + 5, v + 5) for u, v in c6.edges()]
        g = Graph(11, edges)
        path = write_graph(tmp_path, g)
        code, out, _ = run_cli(capsys, "color", "-i", path, "--t", "3")
        assert code == 3

    def test_stops_at_first_stuck_component(self, monkeypatch, k5):
        # K5 plus a path: the K5 component gets stuck, so the path is never decomposed
        g = Graph(8, k5.edges() + [(5, 6), (6, 7)])
        calls = []

        def counted_decompose(g, t, walk, on_move=None):
            calls.append(walk.piece)  # the region run_color hands over
            return decompose(g, t, walk, on_move)

        monkeypatch.setattr(cli, "decompose", counted_decompose)
        result = run_color(g, 3)
        assert calls == [frozenset(range(5))]
        assert result.exit_code == 3
        assert result.payload == run_color(k5, 3).payload

    @pytest.mark.parametrize("stuck", [True, False], ids=["certificate", "colored"])
    def test_walks_each_component_once(self, monkeypatch, stuck):
        # a 3x3 grid, a C5, a K5 (stuck at t=3; left out when not `stuck`),
        # an isolated vertex and a path: one walk finds each component and
        # gives its first part, up to the stuck one, and none walks after it
        blocks = [gen.grid(3, 3), gen.cycle(5)] + [gen.complete(5)] * stuck + [Graph(1), gen.grid(1, 3)]
        starts = [0]
        for b in blocks:
            starts.append(starts[-1] + b.n)
        g = Graph(starts[-1], [(u + s, v + s) for b, s in zip(blocks, starts) for u, v in b.edges()])
        grid, c5, k5 = (frozenset(range(s, s + b.n)) for b, s in zip(blocks[:3], starts))

        walks, growths, spanned = [], [], []

        def counting(module, name, log, key):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, **kw: log.append(key(*a)) or real(*a, **kw))

        counting(graph_module, "component_walk", walks, lambda g, root, within=None: root)
        counting(decompose_module, "refine_triple", growths, lambda req, start: req.component)
        counting(spanner_module, "refine_triple", spanned, lambda req, start: req.component)
        result = run_color(g, 3)
        handed = [result.payload, result.decompositions, result.certificate]
        monkeypatch.undo()

        assert walks == starts[: 3 if stuck else -1]
        assert growths == [c5] + [k5] * stuck  # one growth per odd first part
        bipartite = grid.union(range(starts[-3], starts[-1]))  # and the isolated vertex and the path
        assert all(comp.isdisjoint(bipartite) for comp in growths + spanned)
        assert result.exit_code == (3 if stuck else 0)

        def rewalked(g, t, walk, on_move=None):  # each component walked again, as a region
            return decompose(g, t, region_walk(g, walk.piece), on_move)

        monkeypatch.setattr(cli, "decompose", rewalked)
        expected = run_color(g, 3)
        assert handed == [expected.payload, expected.decompositions, expected.certificate]

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("not a graph\n")
        code, _, err = run_cli(capsys, "color", "-i", str(path), "--t", "3")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("command", ["color", "verify"])
    def test_non_utf8_input_rejected(self, tmp_path, capsys, c6, command):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff6 6\n")
        if command == "color":
            argv = ["color", "-i", str(bad), "--t", "3"]
        else:
            argv = ["verify", "-i", write_graph(tmp_path, c6), "--artifact", str(bad)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot read {bad}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "fmt, header", [("edgelist", f"{MAX_VERTICES + 1} 0"), ("dimacs", f"p edge {MAX_VERTICES + 1} 0")]
    )
    def test_vertex_count_above_limit(self, tmp_path, capsys, fmt, header):
        # refused from the header alone, before any neighbor list is allocated
        path = tmp_path / "huge.txt"
        path.write_text(header + "\n")
        code, out, err = run_cli(capsys, "color", "-i", str(path), "--format", fmt, "--t", "3")
        assert code == 1 and out == ""
        assert err == f"error: vertex count {MAX_VERTICES + 1} above the limit of {MAX_VERTICES}\n"

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "color", "-i", "/nonexistent", "--t", "3")
        assert code == 1

    def test_t_too_small(self, tmp_path, capsys, c6):
        path = write_graph(tmp_path, c6)
        code, _, err = run_cli(capsys, "color", "-i", path, "--t", "2")
        assert code == 1

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("t", [2, 1, 0, -3])
    def test_run_color_checks_t_on_every_graph(self, n, t):
        # a graph with no vertices has no component, so decompose never sees t
        with pytest.raises(GraphError, match=r"^t must be >= 3$"):
            run_color(Graph(n), t)

    @pytest.mark.parametrize("t", [4.0, "4", True], ids=["float", "string", "bool"])
    def test_run_color_refuses_a_t_that_is_not_an_integer(self, c6, t):
        with pytest.raises(GraphError) as exc:
            run_color(c6, t)
        assert str(exc.value) == f"t must be an integer, got {t!r}"

    def test_verbose_includes_decomposition(self, tmp_path, capsys, k4):
        path = write_graph(tmp_path, k4)
        code, out, _ = run_cli(capsys, "color", "-i", path, "--t", "3", "--verbose")
        payload = json.loads(out)
        assert code == 0
        assert payload["decompositions"][0]["parts"][0]["H"] == [0, 1]

    def test_verbose_leaves_a_certificate_as_it_is(self, tmp_path, capsys, k5):
        path = write_graph(tmp_path, k5)
        plain = run_cli(capsys, "color", "-i", path, "--t", "3")
        verbose = run_cli(capsys, "color", "-i", path, "--t", "3", "--verbose")
        assert plain[0] == 3 and json.loads(plain[1])["status"] == "certificate"
        assert verbose == plain


class TestSharedRows:
    """A colored run keeps one color map, and the artifact's rows are its
    verified (hue, side) tuples, not copies."""

    @pytest.mark.parametrize(
        "g", [gen.grid(100, 100), gen.cycle(6), gen.gnp(300, 0.004, 0)], ids=["grid", "c6", "disconnected-gnp"]
    )
    def test_rows_are_the_verified_tuples(self, g):
        result = run_color(g, 4)
        assert result.exit_code == 0
        rows, colors = result.artifact["colors"], result.coloring.colors
        assert len(rows) == len(colors) == g.n
        assert all(rows[v] is colors[v] for v in range(g.n))

    @pytest.mark.parametrize("g, components", [(gen.grid(30, 30), 1), (gen.gnp(300, 0.004, 0), 132)],
                             ids=["one-component", "disconnected-gnp"])
    def test_the_first_map_product_coloring_returned_is_the_runs(self, monkeypatch, g, components):
        returned = []  # each component's map, and a copy taken before the run merges into it

        def recorded(d, part_hues):
            coloring = cli_product_coloring(d, part_hues)
            returned.append((coloring.colors, dict(coloring.colors)))
            return coloring

        cli_product_coloring = cli.product_coloring
        monkeypatch.setattr(cli, "product_coloring", recorded)
        result = run_color(g, 4)
        assert result.exit_code == 0 and len(returned) == components
        assert result.coloring.colors is returned[0][0]
        merged = {}
        for _, colors in returned:
            assert merged.keys().isdisjoint(colors)
            merged.update(colors)
        assert result.coloring.colors == merged and len(merged) == g.n


class TestColorCollector:
    """`oddcluster color` loads and runs with the cyclic GC off and gives
    the caller its setting back; run_color itself leaves the setting alone."""

    @pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "text, closed, code, calls",
        [("c6", False, 0, 2), ("c6", True, 1, 2), ("3 1\n0 9\n", False, 1, 1), ("k5", False, 3, 2)],
        ids=["colored", "closed-stdout", "bad-input", "certificate"],
    )
    def test_off_inside_the_run_and_restored_after(self, tmp_path, capsys, monkeypatch, request,
                                                   collecting, text, closed, code, calls):
        seen = []  # the collector's state in load_graph, then in run_color

        def recorded(real):
            def call(*args):
                seen.append(gc.isenabled())
                return real(*args)
            return call

        monkeypatch.setattr(cli, "load_graph", recorded(cli.load_graph))
        monkeypatch.setattr(cli, "run_color", recorded(cli.run_color))
        if text in ("c6", "k5"):
            path = write_graph(tmp_path, request.getfixturevalue(text))
        else:
            path = tmp_path / "bad.txt"
            path.write_text(text)
        if closed:
            monkeypatch.setattr(sys, "stdout", ClosedPipe())
        (gc.enable if collecting else gc.disable)()
        try:
            assert main(["color", "-i", str(path), "--t", "3"]) == code
            assert gc.isenabled() is collecting
        finally:
            gc.enable()
        assert seen == [False] * calls
        capsys.readouterr()

    @pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
    def test_run_color_keeps_the_callers_setting(self, c6, collecting):
        (gc.enable if collecting else gc.disable)()
        try:
            assert run_color(c6, 3).exit_code == 0
            assert gc.isenabled() is collecting
        finally:
            gc.enable()


BOM = "\ufeff"


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark is skipped; one elsewhere is data."""

    def test_edgelist(self, tmp_path, capsys, c6):
        path = tmp_path / "bom.txt"
        path.write_text(BOM + format_edgelist(c6), encoding="utf-8")
        code, out, _ = run_cli(capsys, "color", "-i", str(path), "--t", "3")
        assert code == 0
        assert out == run_cli(capsys, "color", "-i", write_graph(tmp_path, c6), "--t", "3")[1]

    def test_dimacs(self, tmp_path, capsys, c6):
        path = tmp_path / "bom.col"
        path.write_text(BOM + format_dimacs(c6), encoding="utf-8")
        code, out, _ = run_cli(capsys, "color", "-i", str(path), "--format", "dimacs", "--t", "3")
        assert code == 0 and json.loads(out)["status"] == "colored"

    def test_artifact(self, tmp_path, capsys, k5):
        graph = write_graph(tmp_path, k5)
        artifact = tmp_path / "cert.json"
        run_cli(capsys, "color", "-i", graph, "--t", "3", "-o", str(artifact))
        artifact.write_text(BOM + artifact.read_text(), encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify", "-i", graph, "--artifact", str(artifact))
        assert code == 0 and json.loads(out)["accepted"] is True

    @pytest.mark.parametrize(
        "text",
        [BOM + BOM + "3 2\n0 1\n1 2\n", "3 2\n" + BOM + "0 1\n1 2\n", "3 2\n0 1" + BOM + "\n1 2\n"],
        ids=["second-bom", "bom-at-line-start", "bom-mid-line"],
    )
    def test_bom_after_first_byte_rejected(self, tmp_path, capsys, text):
        path = tmp_path / "bom.txt"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "color", "-i", str(path), "--t", "3")
        assert code == 1 and out == ""
        assert err.startswith("error: bad ") and err.count("\n") == 1


def set_entry(path, entry):
    """Artifact edit: replace the entry at `path` with `entry`."""

    def edit(artifact):
        parent = artifact
        for key in path[:-1]:
            parent = parent[key]
        # coercing the entry with int() would give back the valid original;
        # compared as JSON text, since a coloring row is a tuple in memory
        assert json.dumps(parent[path[-1]]) == json.dumps([int(x) for x in entry[:2]])
        parent[path[-1]] = entry

    return edit


# The duplicate edits keep the certificate valid once the repeat is dropped,
# so a parser that silently collapses or overwrites repeats accepts them.
def duplicate_first_join(artifact):
    first = artifact["joins"][0]
    artifact["joins"].insert(0, {"pair": list(first["pair"]), "edge": [0, 0]})


def repeat_tree_vertices(artifact):
    tree = artifact["trees"][0]
    assert tree["vertices"] == [0, 1]
    tree["vertices"] = [0, 1, 0, 1]


def repeat_tree_edge(artifact):
    edges = artifact["trees"][0]["edges"]
    edges.append(list(edges[0]))


class TestVerify:
    def test_certificate_accept_and_tamper(self, tmp_path, capsys, k5):
        graph_path = write_graph(tmp_path, k5)
        result = run_color(k5, 3)
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(result.artifact))
        code, out, _ = run_cli(capsys, "verify", "-i", graph_path, "--artifact", str(cert_path))
        assert code == 0 and json.loads(out)["accepted"] is True

        tampered = json.loads(cert_path.read_text())
        tampered["joins"][0]["edge"] = [1, 2]
        cert_path.write_text(json.dumps(tampered))
        code, out, _ = run_cli(capsys, "verify", "-i", graph_path, "--artifact", str(cert_path))
        assert code == 2
        assert json.loads(out)["reason"] == "join edge not monochromatic"

    def test_certificate_against_wrong_graph(self, tmp_path, capsys, k5, c6):
        result = run_color(k5, 3)
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(result.artifact))
        graph_path = write_graph(tmp_path, c6)
        code, out, _ = run_cli(capsys, "verify", "-i", graph_path, "--artifact", str(cert_path))
        assert code == 2
        assert "not in graph" in json.loads(out)["reason"]

    def test_coloring_accept(self, tmp_path, capsys, k4):
        graph_path = write_graph(tmp_path, k4)
        result = run_color(k4, 3)
        art_path = tmp_path / "coloring.json"
        art_path.write_text(json.dumps(result.artifact))
        code, out, _ = run_cli(capsys, "verify", "-i", graph_path, "--artifact", str(art_path))
        assert code == 0
        assert json.loads(out)["report"]["colors_used"] == 4

    def test_coloring_reject(self, tmp_path, capsys, k4):
        graph_path = write_graph(tmp_path, k4)
        art_path = tmp_path / "coloring.json"
        art_path.write_text(json.dumps({"t": 3, "colors": [[1, 1]] * 4}))
        code, out, _ = run_cli(capsys, "verify", "-i", graph_path, "--artifact", str(art_path))
        assert code == 2

    @pytest.mark.parametrize("rows", [3, 5], ids=["short", "long"])
    def test_coloring_must_cover_the_graph(self, tmp_path, capsys, k4, rows):
        # K4's four vertices, one color row each, and one row missing or to spare
        graph_path = write_graph(tmp_path, k4)
        art_path = tmp_path / "coloring.json"
        art_path.write_text(json.dumps({"t": 5, "colors": [[1 + v, 1] for v in range(rows)]}))
        code, out, _ = run_cli(capsys, "verify", "-i", graph_path, "--artifact", str(art_path))
        assert code == 2
        assert json.loads(out) == {"accepted": False, "reason": f"coloring covers {rows} of 4 vertices"}

    @pytest.mark.parametrize(
        "graph, edit, message",
        [
            ("k4", set_entry(("colors", 1), [1.9, 2.7]), "color of vertex 1 must be an integer, got 1.9"),
            ("k4", set_entry(("colors", 0), [True, "1"]), "color of vertex 0 must be an integer, got True"),
            ("k4", set_entry(("colors", 3), [2, 2, 7]), "color of vertex 3 must be a pair of integers, got [2, 2, 7]"),
            ("k5", set_entry(("trees", 0, "edges", 0), [0, 1, 99]), "tree edge must be a pair of integers, got [0, 1, 99]"),
            ("k5", set_entry(("joins", 0, "edge"), [0, 2, "junk"]),
             "join edge must be a pair of integers, got [0, 2, 'junk']"),
            ("k6", duplicate_first_join, "join pair [0, 1] is listed twice"),
            ("k6", repeat_tree_vertices, "a tree vertex is listed twice"),
            ("k6", repeat_tree_edge, "a tree edge is listed twice"),
        ],
        ids=[
            "float-hue-side",
            "bool-and-string",
            "three-entry-row",
            "three-entry-tree-edge",
            "junk-join-edge",
            "duplicate-join-pair",
            "duplicate-tree-vertex",
            "duplicate-tree-edge",
        ],
    )
    def test_non_integer_or_long_entry_rejected(self, tmp_path, capsys, request, graph, edit, message):
        g = gen.complete(6) if graph == "k6" else request.getfixturevalue(graph)
        artifact = run_color(g, 3).artifact
        edit(artifact)
        art_path = tmp_path / "artifact.json"
        art_path.write_text(json.dumps(artifact))
        code, out, err = run_cli(capsys, "verify", "-i", write_graph(tmp_path, g), "--artifact", str(art_path))
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_repeated_key_rejected(self, tmp_path, capsys, k5):
        # with the last key winning, this certificate would verify
        text = json.dumps(run_color(k5, 3).artifact)
        assert '"coloring": {"0": 1, ' in text
        art_path = tmp_path / "cert.json"
        art_path.write_text(text.replace('"coloring": {"0": 1, ', '"coloring": {"0": 2, "0": 1, '))
        code, out, err = run_cli(capsys, "verify", "-i", write_graph(tmp_path, k5), "--artifact", str(art_path))
        assert code == 1 and out == ""
        assert "repeated JSON object key '0'" in err

    def test_unrecognized_artifact(self, tmp_path, capsys, k4):
        graph_path = write_graph(tmp_path, k4)
        art_path = tmp_path / "junk.json"
        art_path.write_text("{\"what\": 1}")
        code, _, _ = run_cli(capsys, "verify", "-i", graph_path, "--artifact", str(art_path))
        assert code == 1

    def test_output_flag_rejected(self, tmp_path, capsys, k5):
        # verify prints its verdict and writes no file
        art_path = tmp_path / "cert.json"
        art_path.write_text(json.dumps(run_color(k5, 3).artifact))
        target = tmp_path / "x"
        argv = ["verify", "-i", write_graph(tmp_path, k5), "--artifact", str(art_path), "-o", str(target)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"usage error: unrecognized arguments: -o {target}\n"
        assert not target.exists()

    def test_missing_artifact_is_a_usage_error(self, tmp_path, capsys, k5):
        code, out, err = run_cli(capsys, "verify", "-i", write_graph(tmp_path, k5))
        assert (code, out) == (1, "")
        assert err == "usage error: the following arguments are required: --artifact\n"


class TestArtifactReader:
    """`verify` and `dot` share one artifact reader: what it refuses is exit 1
    with the same single error line from both commands, and nothing on stdout."""

    @pytest.mark.parametrize("command", ["verify", "dot"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("16", "artifact JSON must be an object"),
            ("1.5", "artifact JSON must be an object"),
            ("[1,2]", "artifact JSON must be an object"),
            ("null", "artifact JSON must be an object"),
            ("{}", "artifact is neither a coloring nor a certificate"),
            ('{"t":3}', "artifact is neither a coloring nor a certificate"),
        ],
        ids=["int", "float", "list", "null", "empty-object", "t-only"],
    )
    def test_not_an_artifact(self, tmp_path, capsys, c6, command, text, message):
        art = tmp_path / "art.json"
        art.write_text(text)
        code, out, err = run_cli(capsys, command, "-i", write_graph(tmp_path, c6), "--artifact", str(art))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["verify", "dot"])
    @pytest.mark.parametrize(
        "text",
        ['{"t": ' + "9" * 4400 + ', "colors": []}', "[" * 5000 + "]" * 5000],
        ids=["integer-past-digit-limit", "nesting-past-recursion-limit"],
    )
    def test_json_past_the_decoder_limits(self, tmp_path, capsys, c6, command, text):
        # found by test_fuzz.py: the decoder raised ValueError or RecursionError,
        # which ended in an internal error
        art = tmp_path / "art.json"
        art.write_text(text)
        code, out, err = run_cli(capsys, command, "-i", write_graph(tmp_path, c6), "--artifact", str(art))
        assert code == 1 and out == ""
        assert err.startswith(f"error: invalid JSON in {art}: ") and err.count("\n") == 1


class TestGen:
    def test_cycle_file(self, tmp_path, capsys):
        out_path = str(tmp_path / "c5.txt")
        code, _, _ = run_cli(capsys, "gen", "--family", "cycle", "--n", "5", "-o", out_path)
        assert code == 0
        assert load_graph(out_path) == gen.cycle(5)

    def test_complete_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--family", "complete", "--n", "5")
        assert code == 0
        assert out.splitlines()[0] == "5 10"

    def test_gnp_deterministic(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        for path in (a, b):
            code, _, _ = run_cli(capsys, "gen", "--family", "gnp", "--n", "30", "--p", "0.2", "--seed", "7", "-o", path)
            assert code == 0
        assert (tmp_path / "a.txt").read_text() == (tmp_path / "b.txt").read_text()

    def test_grid(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--family", "grid", "--n", "3")
        assert code == 0 and out.splitlines()[0] == "9 12"

    def test_bad_params(self, capsys):
        assert run_cli(capsys, "gen", "--family", "gnp", "--n", "5")[0] == 1
        assert run_cli(capsys, "gen", "--family", "gnp", "--n", "5", "--p", "2.0")[0] == 1
        assert run_cli(capsys, "gen", "--family", "cycle", "--n", "0")[0] == 1
        assert run_cli(capsys, "gen", "--family", "nope", "--n", "5")[0] == 1

    @pytest.mark.parametrize(
        "family, n, count", [("grid", "3163", 10004569), ("cycle", "10000001", 10000001)], ids=["grid", "cycle"]
    )
    def test_vertex_limit_checked_before_generating(self, monkeypatch, capsys, family, n, count):
        # the limit is Graph's; a grid of n*n vertices would build its edges first
        def refuse(*args):
            raise AssertionError("a generator ran")

        for name in ("grid", "cycle"):
            monkeypatch.setattr(gen, name, refuse)
        code, out, err = run_cli(capsys, "gen", "--family", family, "--n", n)
        assert (code, out) == (1, "")
        assert err == f"error: vertex count {count} above the limit of {MAX_VERTICES}\n"

    @pytest.mark.parametrize(
        "argv, count",
        [
            (["complete", "--n", "4473"], 10001628),
            (["gnp", "--n", "100000", "--p", "1"], 4999950000),
            (["gnp", "--n", "100000", "--p", "1", "--connected"], 4999950000),
            (["bipartite", "--n", "100000", "--p", "0.5"], 1250000000),
            (["bipartite", "--n", "100000", "--p", "0.5", "--connected"], 1250099999),
            (["bipartite", "--n", "6325", "--p", "1"], 10001406),
        ],
        ids=["complete", "gnp", "connected-gnp", "bipartite", "connected-bipartite", "bipartite-just-above"],
    )
    def test_edge_limit_checked_before_generating(self, monkeypatch, capsys, argv, count):
        # n(n-1)/2 edges for complete, p times that expected for gnp, and for
        # bipartite p times its floor(n/2) * ceil(n/2) cross pairs, plus n-1 tree edges if connected
        def refuse(*args):
            raise AssertionError("a generator ran")

        for name in ("complete", "gnp", "connected_gnp", "random_bipartite", "connected_bipartite"):
            monkeypatch.setattr(gen, name, refuse)
        code, out, err = run_cli(capsys, "gen", "--family", *argv)
        assert (code, out) == (1, "")
        assert err == f"error: edge count {count} above the limit of {MAX_VERTICES}\n"

    def test_edge_limit_admits_its_largest_complete_graph(self, monkeypatch, capsys):
        # 4472 * 4471 / 2 = 9,997,156 edges: the stub stands in for the real build
        calls = []
        monkeypatch.setattr(gen, "complete", lambda n: calls.append(n) or Graph(1))
        code, out, err = run_cli(capsys, "gen", "--family", "complete", "--n", "4472")
        assert (code, out, err, calls) == (0, "1 0\n", "", [4472])

    def test_edge_limit_admits_its_largest_bipartite_graph(self, monkeypatch, capsys):
        # 3162 * 3162 = 9,998,244 cross pairs, each kept at p=1
        calls = []
        monkeypatch.setattr(gen, "random_bipartite", lambda n, p, seed: calls.append((n, p)) or Graph(1))
        code, out, err = run_cli(capsys, "gen", "--family", "bipartite", "--n", "6324", "--p", "1")
        assert (code, out, err, calls) == (0, "1 0\n", "", [(6324, 1.0)])


class TestDot:
    def test_coloring_has_two_fills(self, tmp_path, capsys, c6):
        graph_path = write_graph(tmp_path, c6)
        result = run_color(c6, 3)
        art_path = tmp_path / "coloring.json"
        art_path.write_text(json.dumps(result.artifact))
        code, out, _ = run_cli(capsys, "dot", "-i", graph_path, "--artifact", str(art_path))
        assert code == 0
        fills = {ln.split('fillcolor="')[1].split('"')[0] for ln in out.splitlines() if 'fillcolor="#' in ln}
        assert len(fills) == 2

    def test_certificate_has_three_clusters(self, tmp_path, capsys, k5):
        graph_path = write_graph(tmp_path, k5)
        result = run_color(k5, 3)
        art_path = tmp_path / "cert.json"
        art_path.write_text(json.dumps(result.artifact))
        code, out, _ = run_cli(capsys, "dot", "-i", graph_path, "--artifact", str(art_path))
        assert code == 0
        assert out.count("subgraph cluster_") == 3

    def test_plain(self, capsys, tmp_path, c6):
        graph_path = write_graph(tmp_path, c6)
        code, out, _ = run_cli(capsys, "dot", "-i", graph_path)
        assert code == 0
        assert out.count(" -- ") == 6

    def test_mismatched_artifact(self, tmp_path, capsys, c6):
        graph_path = write_graph(tmp_path, c6)
        art_path = tmp_path / "coloring.json"
        art_path.write_text(json.dumps({"t": 3, "colors": [[1, 1]]}))
        code, _, _ = run_cli(capsys, "dot", "-i", graph_path, "--artifact", str(art_path))
        assert code == 1

    def test_certificate_with_missing_colors(self, tmp_path, capsys, k5):
        graph_path = write_graph(tmp_path, k5)
        artifact = run_color(k5, 3).artifact
        artifact = json.loads(json.dumps(artifact))
        del artifact["coloring"]["4"]
        art_path = tmp_path / "cert.json"
        art_path.write_text(json.dumps(artifact))
        code, _, _ = run_cli(capsys, "dot", "-i", graph_path, "--artifact", str(art_path))
        assert code == 1

    @pytest.mark.parametrize(
        "edit, vertex",
        [
            (lambda art: art["trees"][0].update(edges=[[0, 77]]), 77),
            (lambda art: art["joins"][0].update(edge=[0, 99]), 99),
        ],
        ids=["tree-edge", "join"],
    )
    def test_certificate_edge_out_of_range(self, tmp_path, capsys, k5, edit, vertex):
        # K5 at t=3: tree 0 is {0,1}, and join 0-1 is the first join
        artifact = json.loads(json.dumps(run_color(k5, 3).artifact))
        assert artifact["trees"][0]["edges"] == [[0, 1]] and artifact["joins"][0]["pair"] == [0, 1]
        edit(artifact)
        art_path = tmp_path / "cert.json"
        art_path.write_text(json.dumps(artifact))
        code, out, err = run_cli(capsys, "dot", "-i", write_graph(tmp_path, k5), "--artifact", str(art_path))
        assert (code, out) == (1, "")
        assert err == f"error: certificate vertex {vertex} out of range for n=5\n"


class TestInternalErrors:
    """Exit code 4: one stderr line, an error payload on stdout, no traceback."""

    def assert_internal(self, code, out, err, fragment):
        assert code == EXIT_INTERNAL
        assert json.loads(out)["status"] == "error"
        assert err.startswith("internal error:") and err.count("\n") == 1
        assert fragment in err

    def test_certificate_self_check_failure(self, tmp_path, capsys, monkeypatch, k5):
        monkeypatch.setattr(cli, "verify_certificate", lambda g, cert: "forced rejection")
        assert run_color(k5, 3).exit_code == EXIT_INTERNAL
        code, out, err = run_cli(capsys, "color", "-i", write_graph(tmp_path, k5), "--t", "3")
        self.assert_internal(code, out, err, "certificate self-check failed: forced rejection")

    def test_coloring_self_check_failure(self, tmp_path, capsys, monkeypatch, c6):
        monkeypatch.setattr(cli, "verify_coloring", lambda g, c, t: ColoringRejection("forced rejection"))
        assert run_color(c6, 3).exit_code == EXIT_INTERNAL
        code, out, err = run_cli(capsys, "color", "-i", write_graph(tmp_path, c6), "--t", "3")
        self.assert_internal(code, out, err, "coloring self-check failed: forced rejection")

    @pytest.mark.parametrize(
        "exc",
        [
            InvariantViolation("forced invariant"),
            RecursionError("maximum recursion depth exceeded"),
            KeyError("forced key"),
        ],
        ids=["invariant", "recursion", "unexpected"],
    )
    def test_exception_in_main(self, tmp_path, capsys, monkeypatch, c6, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "decompose", fail)
        code, out, err = run_cli(capsys, "color", "-i", write_graph(tmp_path, c6), "--t", "3")
        self.assert_internal(code, out, err, type(exc).__name__)

    def test_exception_with_closed_stdout(self, tmp_path, capsys, monkeypatch, c6):
        # the error payload cannot be written either: still one stderr line
        def fail(*args, **kwargs):
            raise InvariantViolation("forced invariant")

        monkeypatch.setattr(cli, "decompose", fail)
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["color", "-i", write_graph(tmp_path, c6), "--t", "3"])
        err = capsys.readouterr().err
        assert code == EXIT_INTERNAL
        assert err == "internal error: InvariantViolation: forced invariant\n"


class TestSubprocess:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "oddcluster", "gen", "--family", "cycle", "--n", "6"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "6 6"

    def test_exit_codes_through_process(self, tmp_path, k5):
        path = tmp_path / "k5.txt"
        path.write_text(format_edgelist(k5))
        proc = subprocess.run(
            [sys.executable, "-m", "oddcluster", "color", "-i", str(path), "--t", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        proc = subprocess.run(
            [sys.executable, "-m", "oddcluster", "color", "-i", str(path), "--t", "99"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0

    def test_dimacs_input(self, tmp_path):
        path = tmp_path / "c6.col"
        path.write_text(format_dimacs(gen.cycle(6)))
        proc = subprocess.run(
            [
                sys.executable, "-m", "oddcluster", "color",
                "-i", str(path), "--format", "dimacs", "--t", "3",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0

    @pytest.mark.parametrize(
        "argv",
        [["color", "--t", "3"], ["dot"], ["gen", "--family", "grid", "--n", "30"]],
        ids=["color", "dot", "gen"],
    )
    def test_closed_stdout_is_one_error_line(self, tmp_path, argv):
        # the reader closes its end before anything is written, as `| head`
        # does once it has its lines
        if argv[0] != "gen":
            argv = argv + ["-i", write_graph(tmp_path, gen.grid(30, 30))]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "oddcluster", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: cannot write stdout: ")
        assert proc.stderr.count("\n") == 1
