import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcluster.decompose import (
    Decomposition,
    Part,
    StuckState,
    decompose,
    decomposition_to_json,
    decomposition_violation,
    maximal_bipartite_part,
    parts_adjacent,
    pick_component,
)
from oddcluster.graph import Graph, GraphError
from oddcluster import generators as gen

from conftest import connected_graphs, graphs
from helpers import (
    OddClosedWalk,
    bipartition_or_odd_cycle,
    maximal_bipartite_part_reference,
    pick_component_reference,
)


def outcome(fn, *args):
    """What a call returns, or the GraphError it raises, for differential tests."""
    try:
        return fn(*args)
    except GraphError as exc:
        return GraphError, str(exc)


@st.composite
def graphs_with_pools(draw):
    g = draw(graphs(min_n=1, max_n=14))
    pool = draw(st.one_of(st.none(), st.sets(st.integers(min_value=0, max_value=g.n - 1))))
    return g, pool


@st.composite
def graphs_with_parts(draw):
    """A graph, up to four disjoint parts from random vertex labels, and a pool."""
    g, pool = draw(graphs_with_pools())
    labels = draw(st.lists(st.integers(min_value=-1, max_value=3), min_size=g.n, max_size=g.n))
    parts = []
    for k in range(4):
        vs = frozenset(v for v in range(g.n) if labels[v] == k)
        if vs:
            parts.append(Part(len(parts) + 1, vs, vs, frozenset()))
    return g, parts, pool


class TestMaximalBipartitePart:
    def test_bipartite_graph_is_swallowed_whole(self, c6):
        part = maximal_bipartite_part(c6)
        assert part.vertices == frozenset(range(6))
        assert part.side_a == frozenset({0, 2, 4})

    def test_c5_stops_at_path(self, c5):
        part = maximal_bipartite_part(c5)
        assert part.vertices == frozenset({0, 1, 2, 3})
        assert (part.side_a, part.side_b) == (frozenset({0, 2}), frozenset({1, 3}))

    def test_triangle(self):
        part = maximal_bipartite_part(gen.complete(3))
        assert part.vertices == frozenset({0, 1})

    @given(connected_graphs(max_n=12))
    @settings(max_examples=60)
    def test_result_is_maximal(self, g):
        part = maximal_bipartite_part(g)
        color = {v: (1 if v in part.side_b else 0) for v in part.vertices}
        for u, v in g.edges():
            if u in color and v in color:
                assert color[u] != color[v]
        # no neighbor of the part can join while keeping one side clean
        for v in sorted(frozenset(range(g.n)) - part.vertices):
            touched = g.adj(v) & part.vertices
            if touched:
                assert {color[u] for u in touched} == {0, 1}

    @given(graphs_with_pools())
    @settings(max_examples=300)
    def test_matches_reference(self, case):
        g, pool = case
        assert outcome(maximal_bipartite_part, g, pool) == outcome(maximal_bipartite_part_reference, g, pool)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_on_larger_graphs(self, seed):
        rng = random.Random(seed)
        g = gen.connected_gnp(300, rng.uniform(0.005, 0.03), seed)
        for pool in (None, frozenset(v for v in range(g.n) if rng.random() < 0.7)):
            assert maximal_bipartite_part(g, pool) == maximal_bipartite_part_reference(g, pool)


class TestPickComponent:
    def test_k5_after_first_part(self, k5):
        first = maximal_bipartite_part(k5)
        comp, adjacent = pick_component(k5, [first])
        assert comp == frozenset({2, 3, 4})
        assert adjacent == [first]

    def test_lowest_vertex_component_first(self):
        g = Graph(5, [(0, 1), (2, 3)])
        part = Part(1, frozenset({0, 1}), frozenset({0}), frozenset({1}))
        comp, adjacent = pick_component(g, [part])
        assert comp == frozenset({2, 3})
        assert adjacent == []

    def test_all_covered_rejected(self, c6):
        part = maximal_bipartite_part(c6)
        with pytest.raises(GraphError, match="cover"):
            pick_component(c6, [part])

    @given(graphs_with_parts())
    @settings(max_examples=300)
    def test_matches_reference_on_random_parts(self, case):
        g, parts, pool = case
        assert outcome(pick_component, g, parts, pool) == outcome(pick_component_reference, g, parts, pool)

    @pytest.mark.parametrize("t", [3, 4, 5])
    @given(g=connected_graphs(max_n=20))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_on_decomposition_prefixes(self, t, g):
        parts = decompose(g, t).parts
        for k in range(1, len(parts) + 1):
            prefix = parts[:k]
            assert outcome(pick_component, g, prefix) == outcome(pick_component_reference, g, prefix)


@pytest.mark.parametrize(
    "call",
    [
        lambda g: maximal_bipartite_part(g, {-1, 0}),
        lambda g: maximal_bipartite_part(g, {0, 6}),
        lambda g: pick_component(g, [], {-1, 0}),
        lambda g: pick_component(g, [], {0, 6}),
    ],
    ids=["first-part-negative", "first-part-too-large", "pick-negative", "pick-too-large"],
)
def test_out_of_range_region_rejected(c6, call):
    with pytest.raises(GraphError, match="out of range"):
        call(c6)


class TestDecompose:
    def test_c6_single_part(self, c6):
        outcome = decompose(c6, 3)
        assert isinstance(outcome, Decomposition)
        assert len(outcome.parts) == 1
        assert outcome.parts[0].vertices == frozenset(range(6))

    def test_k5_gets_stuck(self, k5):
        outcome = decompose(k5, 3)
        assert isinstance(outcome, StuckState)
        assert [sorted(p.vertices) for p in outcome.parts] == [[0, 1], [2, 3]]
        assert outcome.component == frozenset({4})
        assert [p.index for p in outcome.adjacent_parts] == [1, 2]

    def test_k4_completes_without_certifying_anything(self, k4):
        # completion never claims the graph is odd-minor free
        outcome = decompose(k4, 3)
        assert isinstance(outcome, Decomposition)
        assert [sorted(p.vertices) for p in outcome.parts] == [[0, 1], [2, 3]]

    def test_small_t_rejected(self, c6):
        with pytest.raises(GraphError):
            decompose(c6, 2)

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError, match="connected"):
            decompose(Graph(4, [(0, 1), (2, 3)]), 3)

    def test_region_restriction(self, k5):
        outcome = decompose(k5, 4, within={2, 3, 4})
        assert isinstance(outcome, Decomposition)
        covered = set()
        for p in outcome.parts:
            covered |= p.vertices
        assert covered == {2, 3, 4}

    @pytest.mark.parametrize("t", [3, 4, 5])
    @given(g=connected_graphs(max_n=20))
    @settings(max_examples=80, deadline=None)
    def test_outcome_invariants(self, t, g):
        outcome = decompose(g, t)
        if isinstance(outcome, Decomposition):
            assert decomposition_violation(g, outcome) is None
        else:
            assert len(outcome.adjacent_parts) >= t - 1
            for i, p in enumerate(outcome.adjacent_parts):
                assert any(g.adj(v) & p.vertices for v in outcome.component)
                for q in outcome.adjacent_parts[i + 1 :]:
                    assert parts_adjacent(g, p, q)

    @given(connected_graphs(max_n=20))
    @settings(max_examples=40, deadline=None)
    def test_connected_bipartite_always_one_part(self, g):
        if isinstance(bipartition_or_odd_cycle(g, range(g.n)), OddClosedWalk):
            return
        outcome = decompose(g, 3)
        assert isinstance(outcome, Decomposition)
        assert len(outcome.parts) == 1


def test_json_round_trip(k4):
    d = decompose(k4, 3)
    obj = decomposition_to_json(d)
    assert obj["parts"][0]["H"] == [0, 1]
