import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcluster.graph import (
    Graph,
    GraphError,
    bfs,
    connected_components,
    induced_edge_count,
    is_connected,
    spanning_tree,
)

from conftest import graphs, connected_graphs
from helpers import (
    OddClosedWalk,
    bipartition_or_odd_cycle,
    connected_components_reference,
    is_connected_reference,
    outcome,
    spanning_tree_reference,
)


@st.composite
def graphs_with_regions(draw):
    """A graph, a vertex subset, and a crossing-edge predicate: the edges
    whose endpoints got different labels, as in a part's crossing subgraph."""
    g = draw(graphs(min_n=1, max_n=14))
    region = draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
    labels = draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    return g, region, lambda x, y: labels[x] != labels[y]


class TestBfs:
    def test_visit_order_and_parents(self, c6):
        parent = bfs(c6, 0, frozenset(range(6)))
        assert list(parent.items()) == [(0, 0), (1, 0), (5, 0), (2, 1), (4, 5), (3, 2)]

    def test_root_alone(self):
        assert bfs(Graph(3, [(0, 1), (1, 2)]), 1, {1}) == {1: 1}

    def test_stays_within(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 4)])
        assert list(bfs(g, 1, {0, 1, 3, 4}).items()) == [(1, 1), (0, 1), (4, 0)]

    def test_follows_allowed_edges_only(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert bfs(g, 0, frozenset(range(4)), lambda x, y: {x, y} != {0, 3}) == {
            0: 0,
            1: 0,
            2: 1,
            3: 2,
        }

    @given(graphs_with_regions())
    @settings(max_examples=200)
    def test_is_a_shortest_path_tree_of_the_root_component(self, case):
        g, region, allowed = case
        if not region:
            return
        root = min(region)
        parent = bfs(g, root, region, allowed)
        comps = connected_components_reference(g, region, allowed)
        assert set(parent) == next(c for c in comps if root in c)
        depth = {}
        for v, p in parent.items():
            if v == root:
                assert p == root
                depth[v] = 0
            else:
                assert p in depth and g.has_edge(p, v) and allowed(p, v)
                depth[v] = depth[p] + 1
        assert list(depth.values()) == sorted(depth.values())


class TestAgainstReference:
    """The bfs-based traversals against the queue loops they replaced."""

    @given(graphs_with_regions())
    @settings(max_examples=300)
    def test_connected_components(self, case):
        g, region, allowed = case
        for within in (None, region):
            assert connected_components(g, within) == connected_components_reference(g, within)
            assert connected_components(g, within, allowed) == connected_components_reference(
                g, within, allowed
            )

    @given(graphs_with_regions())
    @settings(max_examples=300)
    def test_is_connected(self, case):
        g, region, _ = case
        for within in (None, region, region | {g.n}):
            assert outcome(is_connected, g, within) == outcome(is_connected_reference, g, within)

    @given(graphs_with_regions())
    @settings(max_examples=300)
    def test_spanning_tree(self, case):
        g, region, allowed = case
        for within in (range(g.n), region):
            assert outcome(spanning_tree, g, within) == outcome(spanning_tree_reference, g, within)
            assert outcome(spanning_tree, g, within, allowed) == outcome(
                spanning_tree_reference, g, within, allowed
            )


class TestConstruction:
    def test_path_degrees(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert [g.degree(v) for v in range(3)] == [1, 2, 1]
        assert g.m == 2

    def test_single_vertex(self):
        g = Graph(1, [])
        assert g.n == 1 and g.m == 0

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph(1, [(0, 0)])

    def test_duplicate_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph(2, [(0, 1), (1, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            Graph(2, [(0, 2)])

    def test_negative_n_rejected(self):
        with pytest.raises(GraphError):
            Graph(-1, [])

    def test_neighbors_sorted(self):
        g = Graph(4, [(2, 0), (2, 3), (2, 1)])
        assert g.neighbors(2) == (0, 1, 3)


class TestComponents:
    def test_path_single_component(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert connected_components(g) == [frozenset({0, 1, 2})]

    def test_edgeless_singletons(self):
        g = Graph(3, [])
        assert connected_components(g) == [frozenset({0}), frozenset({1}), frozenset({2})]

    def test_c4_opposite_restriction(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert connected_components(g, {0, 2}) == [frozenset({0}), frozenset({2})]

    def test_restriction_out_of_range(self):
        with pytest.raises(GraphError):
            connected_components(Graph(2, []), {5})

    @given(graphs(max_n=12))
    def test_partition_properties(self, g):
        comps = connected_components(g)
        union = set()
        for comp in comps:
            assert not (comp & union)
            union |= comp
            assert is_connected(g, comp)
        assert union == set(range(g.n))
        # maximality: no edge joins two distinct pieces
        owner = {v: i for i, comp in enumerate(comps) for v in comp}
        for u, v in g.edges():
            assert owner[u] == owner[v]


class TestBipartition:
    def test_even_cycle(self, c6):
        side_a, side_b = bipartition_or_odd_cycle(c6, range(6))
        assert (sorted(side_a), sorted(side_b)) == ([0, 2, 4], [1, 3, 5])

    def test_odd_cycle_witness(self, c5):
        walk = bipartition_or_odd_cycle(c5, range(5))
        assert isinstance(walk, OddClosedWalk)
        assert walk.length == 5
        assert walk.vertices[0] == walk.vertices[-1]

    def test_single_vertex(self):
        side_a, side_b = bipartition_or_odd_cycle(Graph(1, []), {0})
        assert (side_a, side_b) == (frozenset({0}), frozenset())

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError, match="connected"):
            bipartition_or_odd_cycle(Graph(3, [(0, 1)]), range(3))

    @given(connected_graphs(max_n=10))
    @settings(max_examples=60)
    def test_success_or_valid_witness(self, g):
        result = bipartition_or_odd_cycle(g, range(g.n))
        if isinstance(result, OddClosedWalk):
            walk = result.vertices
            assert result.length % 2 == 1
            assert walk[0] == walk[-1]
            for u, v in zip(walk, walk[1:]):
                assert g.has_edge(u, v)
        else:
            side_a, side_b = result
            assert side_a | side_b == frozenset(range(g.n))
            assert not (side_a & side_b)
            for u, v in g.edges():
                assert (u in side_a) != (v in side_a)


class TestSpanningTree:
    def test_cycle(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        tree = spanning_tree(g, range(4))
        assert len(tree.edges) == 3
        assert tree.vertices == frozenset(range(4))

    def test_tree_is_itself(self):
        g = Graph(4, [(0, 1), (1, 2), (1, 3)])
        tree = spanning_tree(g, range(4))
        assert tree.edges == frozenset({(0, 1), (1, 2), (1, 3)})

    def test_restricted_disconnected(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        horizontal = {(0, 1), (2, 3)}
        with pytest.raises(GraphError, match="disconnected"):
            spanning_tree(g, range(4), lambda u, v: tuple(sorted((u, v))) in horizontal)

    @given(connected_graphs(min_n=1, max_n=10))
    @settings(max_examples=60)
    def test_invariants(self, g):
        tree = spanning_tree(g, range(g.n))
        assert len(tree.edges) == len(tree.vertices) - 1
        for u, v in tree.edges:
            assert g.has_edge(u, v)
        # connectivity over tree edges alone
        adj = {v: set() for v in tree.vertices}
        for u, v in tree.edges:
            adj[u].add(v)
            adj[v].add(u)
        seen = {min(tree.vertices)}
        stack = [min(tree.vertices)]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        assert seen == tree.vertices


def test_induced_edge_count():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert induced_edge_count(g, range(4)) == 4
    assert induced_edge_count(g, {0, 1, 2}) == 2
    assert induced_edge_count(g, {0, 2}) == 0
