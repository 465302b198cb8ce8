"""The names the benchmark traces and the package exports keep resolving."""

import ast
import importlib
import inspect
from pathlib import Path

import oddcluster
from oddcluster.cli import run_color

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


def test_decompose_is_the_submodule():
    from oddcluster import decompose

    assert inspect.ismodule(decompose)
    assert decompose.__name__ == "oddcluster.decompose"


def test_all_names_resolve():
    for name in oddcluster.__all__:
        assert getattr(oddcluster, name) is not None, name
