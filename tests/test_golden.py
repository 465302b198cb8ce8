"""Golden replay: every seed-0 benchmark request gives the payload recorded in
perfbench/golden.json, byte for byte.

The requests come from perfbench/workloads.py, loaded by path and only read.
A payload is ``json.dumps(run_color(g, t).payload, indent=2)``, the text the
benchmark hashes.

Every benchmark graph is connected, so the disconnected inputs below pin the
per-component path by their own recorded hashes: many small components (many
of them isolated vertices), and bipartite components with a K5 among them.
"""

import hashlib
import json
from pathlib import Path

import pytest

from oddcluster import generators as gen
from oddcluster.cli import main, run_color
from oddcluster.graph import Graph
from oddcluster.graph_io import format_edgelist, read_edgelist

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


# sha256 of the payload of gen.gnp(300, 0.004, seed) at t; all are colored,
# and seed 0 has 132 components
GNP_PAYLOADS = {
    (0, 3): "7713b862854ba7ab1820e554b0d0948be7efd29f0e0545368950e18d289d49e0",
    (0, 4): "1f3220185183b7d075c2c3910f154e3080630ab65727d7b60a4504d54e0de008",
    (0, 5): "f1bcf32895d97adfdc4e23ac82b4b80ec3ee6d3d6835d74805d8520701862a72",
    (0, 6): "9b0f774f3ed468b985f8ac41330c1ba67d444d3c369422e9b26fbb2045ff8eba",
    (1, 3): "5925a3bb19c81fc7348ef67cb087de0855c8f8f78a606d6db66a2baed10a4c1d",
    (1, 4): "e61bf25d1a92544254bb379373c36b2a08fbeb4022c9b8f0b839047add99011b",
    (1, 5): "2ea4d8d2973871f8c134294248d0243fb5a449282682096e592aa79477539d0d",
    (1, 6): "02f2a9b06c32719efa3e76463db14f95babd6950da5c47ee39daee2209d68054",
    (2, 3): "5846cd0171ceeb9afbc29f71f1828d7a98f9733bf0191e7c549ed1bd6ddcc488",
    (2, 4): "2c6027d1150282131a83e9d41379c08d7b71f1ab69c0f936678f24007ac32c78",
    (2, 5): "d2ffa14be631dc182f987f039f056b498a87a634fef1a1cae2a19a631587a544",
    (2, 6): "0695f70ad6ec2346b57e1bea1c0a071e656912107156831fb1abd510f654a821",
}


@pytest.mark.parametrize("seed, t", sorted(GNP_PAYLOADS))
def test_disconnected_gnp_payloads(seed, t):
    payload = json.dumps(run_color(gen.gnp(300, 0.004, seed), t).payload, indent=2)
    assert sha256(payload) == GNP_PAYLOADS[(seed, t)]


def disjoint_union(*graphs: Graph) -> Graph:
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges()]
        offset += g.n
    return Graph(offset, edges)


# t -> status, completed components and payload sha256 for the graph below;
# at t=3 the K5 gets stuck after three bipartite components were completed
UNION_PAYLOADS = {
    3: ("certificate", 3, "05e4ca8220afb2865079b68737d40fc85c15aac1dfe5e480affe139a32523253"),
    4: ("colored", 5, "23372735506b97b0a23e26db8b251fe07292f61c557063ae5e95b6c2ac09cb89"),
}


@pytest.mark.parametrize("t", sorted(UNION_PAYLOADS))
def test_bipartite_components_then_k5(t):
    g = disjoint_union(
        gen.cycle(6), gen.grid(3, 4), gen.connected_bipartite(10, 0.3, 1), gen.complete(5), gen.cycle(4)
    )
    status, completed, digest = UNION_PAYLOADS[t]
    result = run_color(g, t)
    assert (result.payload["status"], len(result.decompositions)) == (status, completed)
    assert sha256(json.dumps(result.payload, indent=2)) == digest


def test_verbose_stdout(tmp_path, capsys):
    path = tmp_path / "gnp.txt"
    path.write_text(format_edgelist(gen.gnp(300, 0.004, 0)))
    assert main(["color", "-i", str(path), "--t", "4", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert len(json.loads(out)["decompositions"]) == 132
    assert sha256(out) == "70d6716363b2afd9008e7a6f9f911c6b4d5f93838d0c32568358fa090788c529"
