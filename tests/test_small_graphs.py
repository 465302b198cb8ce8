"""The whole contract on every small graph: every labeled graph on 0 to 5
vertices (6 vertices, marked slow) goes through run_color at every t from 3
to 6.

Each run must exit 0 with a coloring or 3 with a certificate. The checks on
its outputs share no code with the pipeline: the brute-force oracle confirms
that g has an odd K_t-expansion behind every certificate, the reference
verifier accepts every coloring, and every decomposition the run completed,
those before a certificate included, passes the reference part checks at
bound ceil((t-2)/2) on every part and the reference recheck. A bipartite
graph must be colored at t=3. The part checks passing on every part that
decompose builds is what lets its recheck take them from the step that
built each part.

The spanner's connector program is held to the same corpus: on every
connected labeled graph on 2 to 5 vertices, for every set of two or more
terminals, it returns the reference program's set, of the brute-force
oracle's size.
"""

from collections import Counter
from itertools import combinations

import pytest

from oddcluster.cli import run_color
from oddcluster.coloring import ColoringReport
from oddcluster.graph import Graph
from oddcluster.spanner import minimum_connector

from helpers import (
    OddClosedWalk,
    bipartition_or_odd_cycle,
    connected_components_reference,
    decomposition_violation_reference,
    minimum_connector_reference,
    part_fault_reference,
    verify_coloring_reference,
)
from oracle import OracleBudget, has_odd_expansion, min_connector_bruteforce

T_VALUES = (3, 4, 5, 6)


def labeled_graphs(n):
    """Every graph on the vertices 0..n-1, one per edge subset."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


def is_bipartite(g):
    return not any(
        isinstance(bipartition_or_odd_cycle(g, comp), OddClosedWalk) for comp in connected_components_reference(g)
    )


def sweep(sizes):
    """Run every labeled graph on each number of vertices in `sizes` at every
    t in T_VALUES and check each run; the number of runs by exit code."""
    exits = Counter()
    for n in sizes:
        budget = OracleBudget(max_n=n, max_t=max(T_VALUES))
        for g in labeled_graphs(n):
            bipartite = is_bipartite(g)
            for t in T_VALUES:
                case = f"n={n} edges={g.edges()} t={t}"
                result = run_color(g, t)
                exits[result.exit_code] += 1
                assert result.exit_code in (0, 3), case
                if result.exit_code == 3:
                    assert has_odd_expansion(g, t, budget), case
                else:
                    assert isinstance(verify_coloring_reference(g, result.coloring, t), ColoringReport), case
                if bipartite and t == 3:
                    assert result.exit_code == 0, case
                bound = (t - 1) // 2  # ceil((t-2)/2)
                for d in result.decompositions:
                    for p in d.parts:
                        assert part_fault_reference(g, p, bound) is None, case
                    region = frozenset().union(*(p.vertices for p in d.parts))
                    assert decomposition_violation_reference(g, d, region) is None, case
    return exits


def test_every_graph_on_up_to_five_vertices():
    # 1 + 1 + 2 + 8 + 64 + 1024 graphs, four values of t each: 4,400 runs
    assert sweep(range(6)) == {0: 4396, 3: 4}


@pytest.mark.slow
def test_every_graph_on_six_vertices():
    # 2^15 graphs, four values of t each: 131,072 runs
    assert sweep([6]) == {0: 130456, 3: 616}


@pytest.mark.slow
def test_every_connector_on_up_to_five_vertices():
    # 1, 4, 38 and 728 connected graphs on 2 to 5 vertices, with 1, 4, 11
    # and 26 terminal sets each: 19,363 calls
    calls = 0
    for n in range(2, 6):
        for g in (g for g in labeled_graphs(n) if len(connected_components_reference(g)) == 1):
            for k in range(2, n + 1):
                for terms in combinations(range(n), k):
                    got = minimum_connector(g, range(n), terms)
                    assert got == minimum_connector_reference(g, range(n), terms), (g.edges(), terms)
                    assert len(got) == len(min_connector_bruteforce(g, terms)), (g.edges(), terms)
                    calls += 1
    assert calls == 19363
