"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The random corpus is built
once per session from fixed seeds, instrumented with the local-search move
hook, and shared across criteria.
"""

import json
import random
import time
from dataclasses import dataclass, field

import pytest

from oddcluster import generators as gen
from oddcluster.certificate import certificate_from_json, verify_certificate
from oddcluster.cli import run_color
from oddcluster.coloring import (
    ColoringReport,
    build_auxiliary,
    coloring_from_json,
    verify_coloring,
)
from oddcluster.decompose import StuckState, decompose, decomposition_violation
from oddcluster.graph import Graph, InvariantViolation
from oddcluster.spanner import minimum_connector

from oracle import OracleBudget, has_odd_expansion, min_connector_bruteforce

N_RANDOM = 500
N_BIPARTITE = 200
N_STEINER = 100
P_CHOICES = (0.05, 0.1, 0.3, 0.6)
T_VALUES = (3, 4, 5, 6)


@dataclass
class RunRecord:
    graph_id: int
    graph: Graph
    t: int
    exit_code: int
    artifact: dict
    decompositions: list
    events: list = field(default_factory=list)


@dataclass
class Corpus:
    runs: list[RunRecord]
    elapsed: float


def _finish(name: str, failures: list[str], detail: str) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {name}: {status} ({detail})")
    assert not failures, f"{name}: " + "; ".join(failures[:5])


@pytest.fixture(scope="module")
def corpus() -> Corpus:
    master = random.Random(0)
    runs: list[RunRecord] = []
    start = time.time()
    for i in range(N_RANDOM):
        n = master.randint(1, 60)
        p = master.choice(P_CHOICES)
        g = gen.connected_gnp(n, p, seed=1000 + i)
        for t in T_VALUES:
            events: list = []
            result = run_color(g, t, on_move=events.append)
            runs.append(
                RunRecord(i, g, t, result.exit_code, result.artifact, result.decompositions, events)
            )
    return Corpus(runs, time.time() - start)


def test_criterion_1_certifying_contract(corpus):
    failures = []
    for run in corpus.runs:
        if run.exit_code not in (0, 3):
            failures.append(f"graph {run.graph_id} t={run.t}: exit {run.exit_code}")
            continue
        if run.exit_code == 0:
            coloring = coloring_from_json(run.artifact)
            checked = verify_coloring(run.graph, coloring, run.t)
            if not isinstance(checked, ColoringReport):
                failures.append(f"graph {run.graph_id} t={run.t}: coloring rejected: {checked.reason}")
        else:
            cert = certificate_from_json(run.artifact)
            reason = verify_certificate(run.graph, cert)
            if reason is not None:
                failures.append(f"graph {run.graph_id} t={run.t}: certificate rejected: {reason}")
    if corpus.elapsed > 300.0:
        failures.append(f"corpus took {corpus.elapsed:.1f}s, target is under 300s")
    certified = sum(1 for r in corpus.runs if r.exit_code == 3)
    _finish(
        "1 certifying contract",
        failures,
        f"{len(corpus.runs)} runs, {certified} certificates, corpus built in {corpus.elapsed:.1f}s",
    )


def test_criterion_2_coloring_bounds(corpus):
    failures = []
    colored = 0
    for run in corpus.runs:
        if run.exit_code != 0:
            continue
        colored += 1
        coloring = coloring_from_json(run.artifact)
        report = verify_coloring(run.graph, coloring, run.t)
        limit = (run.t - 1) // 2
        if report.colors_used > 2 * run.t - 2:
            failures.append(f"graph {run.graph_id} t={run.t}: {report.colors_used} colors")
        if report.max_component > limit:
            failures.append(f"graph {run.graph_id} t={run.t}: component {report.max_component} > {limit}")
    _finish("2 coloring bounds", failures, f"{colored} colored runs within 2t-2 and ceil((t-2)/2)")


def test_criterion_3_bipartite_always_colored():
    master = random.Random(0)
    failures = []
    for i in range(N_BIPARTITE):
        n = master.randint(1, 60)
        p = master.choice(P_CHOICES)
        g = gen.connected_bipartite(n, p, seed=3000 + i)
        result = run_color(g, 3)
        if result.exit_code != 0:
            failures.append(f"bipartite graph {i} (n={n}): exit {result.exit_code}")
    _finish("3 bipartite completeness", failures, f"{N_BIPARTITE} connected bipartite graphs, all exit 0")


def test_criterion_4_oracle_confirms_certificates(corpus):
    failures = []
    confirmed = 0
    budget = OracleBudget(max_n=10, max_t=4)
    for run in corpus.runs:
        if run.exit_code != 3 or run.graph.n > 9 or run.t > 4:
            continue
        if not has_odd_expansion(run.graph, run.t, budget):
            failures.append(f"graph {run.graph_id} t={run.t}: oracle disagrees")
        else:
            confirmed += 1
    named = {
        "C5": gen.cycle(5),
        "C6": gen.cycle(6),
        "K4": gen.complete(4),
        "K5": gen.complete(5),
        "petersen": gen.petersen(),
    }
    for name, g in named.items():
        for t in (3, 4):
            result = run_color(g, t)
            if result.exit_code != 3:
                continue
            if not has_odd_expansion(g, t, budget):
                failures.append(f"{name} t={t}: oracle disagrees")
            else:
                confirmed += 1
    _finish("4 oracle soundness", failures, f"{confirmed} certificates confirmed, zero disagreements")


K5_CERTIFICATE = {
    "t": 3,
    "trees": [
        {"vertices": [0, 1], "edges": [[0, 1]]},
        {"vertices": [2, 3], "edges": [[2, 3]]},
        {"vertices": [4], "edges": []},
    ],
    "coloring": {"0": 1, "1": 2, "2": 1, "3": 2, "4": 1},
    "joins": [
        {"pair": [0, 1], "edge": [0, 2]},
        {"pair": [0, 2], "edge": [0, 4]},
        {"pair": [1, 2], "edge": [2, 4]},
    ],
}

K4_COLORING = {"t": 3, "colors": [[1, 1], [1, 2], [2, 1], [2, 2]]}

C6_COLORING = {"t": 3, "colors": [[1, 1], [1, 2], [1, 1], [1, 2], [1, 1], [1, 2]]}


def test_criterion_5_worked_traces_reproduce():
    failures = []

    k5 = gen.complete(5)
    stuck = decompose(k5, 3)
    if not isinstance(stuck, StuckState):
        failures.append("K5 t=3 did not get stuck")
    elif [sorted(p.vertices) for p in stuck.parts] != [[0, 1], [2, 3]]:
        failures.append(f"K5 parts: {[sorted(p.vertices) for p in stuck.parts]}")
    first = run_color(k5, 3)
    again = run_color(k5, 3)
    if json.dumps(first.artifact) != json.dumps(again.artifact):
        failures.append("K5 output not byte-stable")
    if json.dumps(first.artifact) != json.dumps(K5_CERTIFICATE):
        failures.append("K5 certificate deviates from the frozen trace")
    if first.exit_code != 3 or verify_certificate(k5, certificate_from_json(first.artifact)):
        failures.append("K5 certificate did not verify")

    k4_run = run_color(gen.complete(4), 3)
    if k4_run.exit_code != 0 or json.dumps(k4_run.artifact) != json.dumps(K4_COLORING):
        failures.append("K4 coloring deviates from the frozen trace")

    c6_run = run_color(gen.cycle(6), 3)
    if c6_run.exit_code != 0 or json.dumps(c6_run.artifact) != json.dumps(C6_COLORING):
        failures.append("C6 coloring deviates from the frozen trace")
    elif len(c6_run.decompositions[0].parts) != 1:
        failures.append("C6 decomposition is not a single part")
    elif c6_run.report.colors_used != 2:
        failures.append(f"C6 used {c6_run.report.colors_used} colors, expected 2")

    _finish("5 worked traces", failures, "K5 certificate, K4 coloring, C6 coloring byte-identical")


def test_criterion_6_move_accounting(corpus):
    failures = []
    total_moves = 0
    for run in corpus.runs:
        previous = None
        for e in run.events:
            total_moves += 1
            if e.cross_after <= e.cross_before:
                failures.append(f"graph {run.graph_id} t={run.t}: non-increasing move")
            if e.move_index > e.edge_cap:
                failures.append(f"graph {run.graph_id} t={run.t}: move count above edge cap")
            if e.move_index > 1 and previous is not None and e.cross_before != previous.cross_after:
                failures.append(f"graph {run.graph_id} t={run.t}: move chain broken")
            previous = e if e.move_index >= 1 else None
    _finish("6 move accounting", failures, f"{total_moves} moves, strictly increasing, within edge caps")


def test_criterion_7_steiner_equivalence():
    master = random.Random(0)
    failures = []
    for i in range(N_STEINER):
        n = master.randint(2, 12)
        p = master.choice((0.2, 0.35, 0.5))
        g = gen.connected_gnp(n, p, seed=7000 + i)
        k = master.randint(1, min(4, n))
        terminals = frozenset(master.sample(range(n), k))
        exact = minimum_connector(g, range(n), terminals)
        brute = min_connector_bruteforce(g, terminals)
        if len(exact) != len(brute):
            failures.append(f"case {i}: sizes {len(exact)} vs {len(brute)}")
    _finish("7 steiner equivalence", failures, f"{N_STEINER} cases, sizes agree")


def test_criterion_8_invariant_suite(corpus):
    failures = []
    rechecked = 0
    for run in corpus.runs:
        for d in run.decompositions:
            region = frozenset().union(*(p.vertices for p in d.parts))
            reason = decomposition_violation(run.graph, d, region)
            if reason is not None:
                failures.append(f"graph {run.graph_id} t={run.t}: {reason}")
                continue
            try:
                build_auxiliary(d)
            except InvariantViolation as exc:
                failures.append(f"graph {run.graph_id} t={run.t}: {exc}")
                continue
            rechecked += 1
    _finish("8 invariant suite", failures, f"{rechecked} decompositions recheck clean")
