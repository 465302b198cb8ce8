import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcluster.graph import (
    MAX_VERTICES,
    Graph,
    GraphError,
    TreeSubgraph,
    bfs,
    connected_components,
    induced_edge_count,
    is_connected,
    norm_edge,
    touching,
)
from oddcluster import generators as gen
from oddcluster.spanner import cross_bfs

from conftest import graphs, connected_graphs
from helpers import (
    OddClosedWalk,
    bipartition_or_odd_cycle,
    connected_components_reference,
    graph_layout,
    graph_reference,
    is_connected_reference,
    load_workloads,
    outcome,
    spanning_tree_reference,
    sparse_gnp,
)


@st.composite
def graphs_with_regions(draw):
    """A graph, a vertex subset, and a side A; the rest of the graph is side
    B, and the edges between the sides form the crossing subgraph."""
    g = draw(graphs(min_n=1, max_n=14))
    vertex_sets = st.sets(st.integers(min_value=0, max_value=g.n - 1))
    return g, draw(vertex_sets), frozenset(draw(vertex_sets))


def sides_and_predicate(g, side_a):
    """The two sides, and the crossing-edge predicate the references take."""
    side_b = frozenset(range(g.n)) - side_a
    return side_a, side_b, lambda x, y: (x in side_a) != (y in side_a)


def parent_tree(parent):
    """The tree a BFS parent map spans: its vertices and parent edges."""
    return TreeSubgraph(frozenset(parent), frozenset(norm_edge(v, p) for v, p in parent.items() if v != p))


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
        # the crossing walk: on C5 with sides {0,2,4} and {1,3}, the edge
        # (4,0) stays on side A, so 4 is reached the long way round
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert cross_bfs(g, range(5), {0, 2, 4}, {1, 3}) == ([0, 1, 2, 3, 4], [0, 0, 1, 2, 3])

    @given(graphs_with_regions())
    @settings(max_examples=200)
    def test_is_a_shortest_path_tree_of_the_root_component(self, case):
        # the crossing walk, against the reference's components of the
        # crossing subgraph
        g, region, side_a = case
        if not region:
            return
        side_a, side_b, allowed = sides_and_predicate(g, side_a)
        root = min(region)
        parent = dict(zip(*cross_bfs(g, region, side_a, side_b)))
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
    """The traversals against the queue loops they replaced, and the bulk
    construction against the per-edge one."""

    @given(st.integers(min_value=-1, max_value=9).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.tuples(*[st.integers(-1, n + 1)] * 2), max_size=14))
    ))
    @settings(max_examples=500)
    def test_construction(self, case):
        n, edges = case
        got, want = outcome(Graph, n, edges), outcome(graph_reference, n, edges)
        if isinstance(want, Graph):
            assert isinstance(got, Graph) and graph_layout(got) == graph_layout(want)
        else:
            assert got == want

    def test_construction_at_benchmark_size(self):
        g = gen.connected_gnp(3000, 6 / 2999, 0)
        assert graph_layout(g) == graph_layout(graph_reference(g.n, g.edges()))

    @given(graphs_with_regions())
    @settings(max_examples=300)
    def test_connected_components(self, case):
        g, _, _ = case
        assert connected_components(g) == connected_components_reference(g)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: gen.connected_gnp(3000, 6 / 2999, 0),
            lambda: gen.grid(100, 100),
            lambda: gen.chain_components(sparse_gnp(10**4, 6 / 10**4)),
            lambda: Graph(5000),
            # paths of 1, 2, 3 and 4 vertices, over and over
            lambda: Graph(3000, [(v, v + 1) for v in range(2999) if v % 10 not in (0, 2, 5, 9)]),
            lambda: Graph(0),
            lambda: Graph(1),
        ],
        ids=["connected-gnp-3000", "grid-100x100", "chained-sparse-gnp-10k", "edgeless-5000",
             "forest-of-short-paths", "n=0", "n=1"],
    )
    def test_connected_components_at_benchmark_sizes(self, make):
        g = make()
        assert connected_components(g) == connected_components_reference(g)

    @given(graphs_with_regions())
    @settings(max_examples=300)
    def test_touching(self, case):
        # the generator scans the three certificate-path callers used before
        g, region, side_a = case
        for xs, ys in ((region, side_a), (side_a, region), (frozenset(range(g.n)), region)):
            assert list(touching(g, xs, ys)) == [v for v in xs if frozenset(g.neighbors(v)) & ys]

    @given(graphs_with_regions())
    @settings(max_examples=300)
    def test_is_connected(self, case):
        g, region, _ = case
        for within in (range(g.n), region, region | {g.n}):
            assert outcome(is_connected, g, within) == outcome(is_connected_reference, g, within)

    @given(graphs_with_regions())
    @settings(max_examples=300)
    def test_spanning_tree(self, case):
        # the trees certificate extraction takes from `bfs` and `cross_bfs`
        # against the reference BFS trees, plain and crossing-only
        g, region, side_a = case
        side_a, side_b, allowed = sides_and_predicate(g, side_a)
        for within in (frozenset(range(g.n)), frozenset(region)):
            if not within:
                continue
            root = min(within)
            crossing = dict(zip(*cross_bfs(g, within, side_a, side_b)))
            for parent, allow in ((bfs(g, root, within), None), (crossing, allowed)):
                reference = outcome(spanning_tree_reference, g, within, allow)
                if len(parent) == len(within):
                    assert parent_tree(parent) == reference
                else:
                    assert reference == (GraphError, "restricted subgraph on `within` is disconnected")


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

    # only counts above the limit: one at or below it would allocate its lists
    @pytest.mark.parametrize("n", [MAX_VERTICES + 1, 10**12], ids=["limit-plus-one", "huge"])
    def test_vertex_count_above_limit_rejected(self, n):
        with pytest.raises(GraphError, match=f"vertex count {n} above the limit of {MAX_VERTICES}"):
            Graph(n)

    @pytest.mark.parametrize("edges", [[(0, 1, 2), (3,)], [(0,), (1, 2, 3)]])
    def test_edge_that_is_not_a_pair_rejected(self, edges):
        with pytest.raises(ValueError):
            Graph(4, edges)

    def test_neighbors_sorted(self):
        g = Graph(4, [(2, 0), (2, 3), (2, 1)])
        assert g.neighbors(2) == (0, 1, 3)

    @given(st.integers(min_value=0, max_value=9).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.sampled_from([(u, v) for v in range(n) for u in range(v)])) if n > 1 else st.just(set())
    )))
    @settings(max_examples=300)
    def test_has_edge_against_reference_sets(self, case):
        # every pair of ids from -n-1 to 2n+1: negative ids must not wrap
        # around to the last vertices, ids past n-1 must not raise
        n, edges = case
        g = Graph(n, sorted(edges))
        sets = [set() for _ in range(n)]
        for u, v in edges:
            sets[u].add(v)
            sets[v].add(u)
        ids = range(-n - 1, 2 * n + 2)
        for u in ids:
            for v in ids:
                assert g.has_edge(u, v) == (0 <= u < n and v in sets[u]), (u, v)

    def test_has_edge_on_ids_outside_the_graph(self):
        g = Graph(4, [(1, 2)])  # 0 and 3 have degree 0
        assert g.has_edge(1, 2) and g.has_edge(2, 1)
        assert not any(g.has_edge(u, v) for u, v in [(-1, 1), (-2, 1), (1, -1), (4, 1), (1, 4), (0, 3), (3, 0)])

    def test_footprint_is_the_neighbor_tuples(self):
        # a Graph keeps one tuple per vertex (40 B plus 8 B a neighbor, in an
        # 8 B slot) and nothing else; the seed-0 `sparse_gnp` benchmark graph,
        # 3000 vertices and 18,272 adjacency entries, kept about 1.7 MB when a
        # frozenset per vertex held the same neighbors again
        text, _ = load_workloads().build("sparse_gnp", 0)[0]
        n, _, *ends = map(int, text.split())
        tracemalloc.start()
        try:
            g = Graph.from_ends(n, ends)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept <= 64 * n + 8 * len(ends), (kept, g)


class TestComponents:
    def test_path_single_component(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert connected_components(g) == [frozenset({0, 1, 2})]

    def test_edgeless_singletons(self):
        g = Graph(3, [])
        assert connected_components(g) == [frozenset({0}), frozenset({1}), frozenset({2})]

    def test_c4_opposite_restriction(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert bfs(g, 0, {0, 2}) == {0: 0}
        assert not is_connected(g, {0, 2})

    def test_restriction_out_of_range(self):
        with pytest.raises(GraphError, match="vertex 5 out of range"):
            is_connected(Graph(2, []), {5})

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
    """The BFS parent maps that certificate extraction turns into trees."""

    def test_cycle(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        tree = parent_tree(bfs(g, 0, frozenset(range(4))))
        assert len(tree.edges) == 3
        assert tree.vertices == frozenset(range(4))

    def test_tree_is_itself(self):
        g = Graph(4, [(0, 1), (1, 2), (1, 3)])
        tree = parent_tree(bfs(g, 0, frozenset(range(4))))
        assert tree.edges == frozenset({(0, 1), (1, 2), (1, 3)})

    def test_restricted_disconnected(self):
        # sides {0,3} and {1,2}: only the edges (0,1) and (2,3) cross
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert cross_bfs(g, range(4), {0, 3}, {1, 2}) == ([0, 1], [0, 0])

    @given(connected_graphs(min_n=1, max_n=10))
    @settings(max_examples=60)
    def test_invariants(self, g):
        tree = parent_tree(bfs(g, 0, frozenset(range(g.n))))
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
