"""Golden replay: every seed-0 benchmark request gives the payload recorded in
perfbench/golden.json, byte for byte.

The requests come from perfbench/workloads.py, loaded by path and only read.
A payload is ``json.dumps(run_color(g, t).payload, indent=2)``, the text the
benchmark hashes.
"""

import hashlib
import json
from pathlib import Path

import pytest

from oddcluster.cli import run_color
from oddcluster.graph_io import read_edgelist

from helpers import load_workloads

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN["workloads"]))
def test_payloads_match_golden(name):
    golden = GOLDEN["workloads"][name]
    requests = load_workloads().build(name, GOLDEN["seed"])
    assert [sha256(text) for text, _ in requests] == golden["inputs"]
    payloads = [
        sha256(json.dumps(run_color(read_edgelist(text), t).payload, indent=2)) for text, t in requests
    ]
    assert payloads == golden["payloads"]
