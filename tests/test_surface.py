"""The names the benchmark traces and the package exports keep resolving,
the records stay immutable, and importing the CLI stays light."""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oddcluster
from oddcluster import generators as gen
from oddcluster.certificate import OddExpansionCertificate
from oddcluster.cli import PipelineResult, main, run_color
from oddcluster.coloring import ClusteredColoring, ColoringRejection, ColoringReport
from oddcluster.decompose import Decomposition, Part, StuckState, decompose
from oddcluster.graph import Graph, TreeSubgraph
from oddcluster.graph_io import format_edgelist
from oddcluster.spanner import MoveEvent, SpannerRequest, Triple

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def worker_constants():
    """LAYERS and PARSE_LAYER as written in the benchmark worker, read without importing it."""
    found = {}
    for node in ast.parse(WORKER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("LAYERS", "PARSE_LAYER"):
                found[name] = ast.literal_eval(node.value)
    return found["LAYERS"], found["PARSE_LAYER"]


def test_traced_functions_resolve():
    layers, parse_layer = worker_constants()
    assert layers
    for module_name, fn_name in (parse_layer, *layers):
        module = importlib.import_module(f"oddcluster.{module_name}")
        assert callable(getattr(module, fn_name)), f"{module_name}.{fn_name}"


def test_run_color_takes_on_move():
    assert "on_move" in inspect.signature(run_color).parameters


def test_decompose_takes_a_walk():
    # the walk is the one way to name the region: there is no vertex-set entry
    params = inspect.signature(decompose).parameters
    assert list(params) == ["g", "t", "walk", "on_move"]
    assert params["walk"].default is inspect.Parameter.empty


def test_decompose_is_the_submodule():
    from oddcluster import decompose

    assert inspect.ismodule(decompose)
    assert decompose.__name__ == "oddcluster.decompose"


def test_all_names_resolve():
    for name in oddcluster.__all__:
        assert getattr(oddcluster, name) is not None, name


def test_oracle_is_not_shipped():
    # the brute-force oracle is test code (tests/oracle.py), not package code
    assert importlib.util.find_spec("oddcluster.oracle") is None


def test_subcommands_are_the_contract(tmp_path, capsys):
    path = tmp_path / "c5.txt"
    path.write_text(format_edgelist(gen.cycle(5)))
    assert main(["oracle", "-i", str(path), "--t", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ") and captured.err.count("\n") == 1
    choices = captured.err.split("(choose from ")[1].rsplit(")", 1)[0]
    assert [c.strip(" '") for c in choices.split(",")] == ["color", "verify", "gen", "dot"]


# one of every record type in the package
RECORDS = [
    TreeSubgraph(frozenset({0}), frozenset()),
    Triple(frozenset({0}), frozenset({0}), frozenset(), 0),
    SpannerRequest(Graph(1, []), frozenset({0}), frozenset({0}), 1),
    MoveEvent("extend", 0, 1, 1, 1),
    Part(1, frozenset({0}), frozenset({0}), frozenset()),
    Decomposition(3, ()),
    StuckState(frozenset({0}), (), ()),
    OddExpansionCertificate(1, (), {}, {}),
    ClusteredColoring(3, {}),
    ColoringReport(0, 0, 0),
    ColoringRejection("reason"),
    PipelineResult(0, {}),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    fields = list(type(record).__annotations__)
    assert repr(record).startswith(f"{type(record).__name__}({fields[0]}=")
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_cli_import_loads_no_dataclasses_or_inspect():
    # each `oddcluster color` call pays for its imports: nothing in the
    # package needs the first two, which are slow to load, only `gen` needs
    # the generators, and only `main` needs argparse, which loads gettext
    src = Path(oddcluster.__file__).resolve().parents[1]
    unwanted = "{'dataclasses', 'inspect', 'oddcluster.generators', 'argparse', 'gettext'}"
    probe = (
        "import sys; before = set(sys.modules); import oddcluster.cli; "
        f"print(sorted({unwanted} & (set(sys.modules) - before)))"
    )
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
