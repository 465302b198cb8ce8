import json
import subprocess
import sys

import pytest

from oddcluster import cli
from oddcluster.cli import EXIT_INTERNAL, main, run_color
from oddcluster.coloring import ColoringRejection
from oddcluster.graph import InvariantViolation
from oddcluster.graph_io import format_edgelist, load_graph
from oddcluster import generators as gen


def write_graph(tmp_path, g, name="g.txt"):
    path = tmp_path / name
    path.write_text(format_edgelist(g))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
        from oddcluster.graph import Graph

        g = Graph(11, edges)
        path = write_graph(tmp_path, g)
        code, out, _ = run_cli(capsys, "color", "-i", path, "--t", "3")
        assert code == 3

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("not a graph\n")
        code, _, err = run_cli(capsys, "color", "-i", str(path), "--t", "3")
        assert code == 1
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "color", "-i", "/nonexistent", "--t", "3")
        assert code == 1

    def test_t_too_small(self, tmp_path, capsys, c6):
        path = write_graph(tmp_path, c6)
        code, _, err = run_cli(capsys, "color", "-i", path, "--t", "2")
        assert code == 1

    def test_verbose_includes_decomposition(self, tmp_path, capsys, k4):
        path = write_graph(tmp_path, k4)
        code, out, _ = run_cli(capsys, "color", "-i", path, "--t", "3", "--verbose")
        payload = json.loads(out)
        assert code == 0
        assert payload["decompositions"][0]["parts"][0]["H"] == [0, 1]


def set_entry(path, entry):
    """Artifact edit: replace the entry at `path` with `entry`."""

    def edit(artifact):
        parent = artifact
        for key in path[:-1]:
            parent = parent[key]
        # coercing the entry with int() would give back the valid original
        assert parent[path[-1]] == [int(x) for x in entry[:2]]
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

    @pytest.mark.parametrize(
        "graph, edit",
        [
            ("k4", set_entry(("colors", 1), [1.9, 2.7])),
            ("k4", set_entry(("colors", 0), [True, "1"])),
            ("k4", set_entry(("colors", 3), [2, 2, 7])),
            ("k5", set_entry(("trees", 0, "edges", 0), [0, 1, 99])),
            ("k5", set_entry(("joins", 0, "edge"), [0, 2, "junk"])),
            ("k6", duplicate_first_join),
            ("k6", repeat_tree_vertices),
            ("k6", repeat_tree_edge),
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
    def test_non_integer_or_long_entry_rejected(self, tmp_path, capsys, request, graph, edit):
        g = gen.complete(6) if graph == "k6" else request.getfixturevalue(graph)
        artifact = run_color(g, 3).artifact
        edit(artifact)
        art_path = tmp_path / "artifact.json"
        art_path.write_text(json.dumps(artifact))
        code, out, err = run_cli(capsys, "verify", "-i", write_graph(tmp_path, g), "--artifact", str(art_path))
        assert code == 1 and out == ""
        assert "malformed" in err

    def test_unrecognized_artifact(self, tmp_path, capsys, k4):
        graph_path = write_graph(tmp_path, k4)
        art_path = tmp_path / "junk.json"
        art_path.write_text("{\"what\": 1}")
        code, _, _ = run_cli(capsys, "verify", "-i", graph_path, "--artifact", str(art_path))
        assert code == 1


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


class TestOracle:
    def test_c5(self, tmp_path, capsys, c5):
        graph_path = write_graph(tmp_path, c5)
        code, out, _ = run_cli(capsys, "oracle", "-i", graph_path, "--t", "3")
        assert code == 0
        assert json.loads(out) == {"odd_minor": True, "t": 3}

    def test_budget_flag(self, tmp_path, capsys):
        graph_path = write_graph(tmp_path, gen.petersen())
        code, _, _ = run_cli(capsys, "oracle", "-i", graph_path, "--t", "3")
        assert code == 1  # default budget caps n at 9
        code, out, _ = run_cli(capsys, "oracle", "-i", graph_path, "--t", "3", "--budget-n", "10")
        assert code == 0
        assert json.loads(out)["odd_minor"] is True


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
        from oddcluster.graph_io import format_dimacs

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
