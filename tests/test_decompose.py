import pytest
from hypothesis import given, settings

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

from conftest import connected_graphs
from helpers import OddClosedWalk, bipartition_or_odd_cycle


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
