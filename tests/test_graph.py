import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcluster.graph import (
    MAX_VERTICES,
    Graph,
    GraphError,
    InvariantViolation,
    TreeSubgraph,
    bfs,
    component_walk,
    component_walks,
    connected_components,
    induced_edge_count,
    is_connected,
    norm_edge,
    touching,
)
from oddcluster import generators as gen
from oddcluster.graph_io import read_edgelist
from oddcluster.spanner import cross_bfs

from conftest import graphs, connected_graphs
from helpers import (
    BIPARTITE_FAMILIES,
    OddClosedWalk,
    bipartition_or_odd_cycle,
    connected_components_reference,
    graph_layout,
    graph_reference,
    is_connected_reference,
    load_workloads,
    outcome,
    random_tree,
    spanning_tree_reference,
    sparse_gnp,
    two_coloring_walk_reference,
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

    # endpoints from -(n+2) to n+2: in range, in -n..-1, where an index wraps
    # around, and at or past n or below -n, where it raises
    @given(st.integers(min_value=-1, max_value=9).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.tuples(*[st.integers(-(n + 2), n + 2)] * 2), max_size=14))
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

    @pytest.mark.parametrize("method", ["neighbors", "degree"])
    def test_ids_outside_the_graph_rejected(self, method):
        # -1 would wrap around to vertex 2's tuple, and 3 would raise a bare IndexError
        g = Graph(3, [(1, 2)])
        for v in (-1, 3):
            with pytest.raises(GraphError) as exc:
                getattr(g, method)(v)
            assert str(exc.value) == f"vertex {v} out of range for n=3"
        assert (g.neighbors(2), g.degree(2), g.neighbors(0), g.degree(0)) == ((1,), 1, (), 0)

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


def check_walk(g, walk, root, within=None):
    """A component_walk from `root` against the references: its piece is the
    reference's piece of the region that holds the root, and its sides are
    the reference's 2-coloring of that piece, the root's side first, or None
    exactly when the piece has an odd cycle."""
    assert walk.piece == next(p for p in connected_components_reference(g, within) if root in p)
    split = bipartition_or_odd_cycle(g, walk.piece)
    if isinstance(split, OddClosedWalk):
        assert walk.sides is None
    else:
        assert walk.sides == (split if root in split[0] else split[::-1])


def check_walks(g, rng):
    """Every walk of component_walks against the references, and the walk in
    a random region from its minimum against the loop maximal_bipartite_part
    ran by itself."""
    walks = list(component_walks(g))
    assert [w.piece for w in walks] == connected_components_reference(g)
    for w in walks:
        check_walk(g, w, min(w.piece))
    pool = frozenset(v for v in range(g.n) if rng.random() < 0.7)
    if pool:
        walk = component_walk(g, min(pool), pool)
        check_walk(g, walk, min(pool), pool)
        assert walk.sides == two_coloring_walk_reference(g, pool)


def mixed_graph(seed):
    """A disjoint union of bipartite pieces (trees, even cycles, grids), odd
    pieces (odd cycles, cliques, sparse G(n, p)) and isolated vertices, at
    least a tree, an odd cycle and an isolated vertex among them, its
    vertices shuffled so the pieces' minima interleave."""
    rng = random.Random(seed)
    makers = [
        lambda: random_tree(rng.randint(1, 40), rng.randrange(99)),
        lambda: gen.cycle(2 * rng.randint(2, 20)),
        lambda: gen.grid(rng.randint(1, 6), rng.randint(1, 6)),
        lambda: gen.cycle(2 * rng.randint(1, 20) + 1),
        lambda: gen.complete(rng.randint(3, 7)),
        lambda: sparse_gnp(rng.randint(2, 60), 0.1, rng.randrange(99)),
        lambda: Graph(1),
    ]
    pieces = [makers[0](), makers[3](), makers[-1]()] + [rng.choice(makers)() for _ in range(rng.randint(0, 12))]
    label = list(range(sum(p.n for p in pieces)))
    rng.shuffle(label)
    edges, offset = [], 0
    for p in pieces:
        edges += [(label[u + offset], label[v + offset]) for u, v in p.edges()]
        offset += p.n
    return Graph(len(label), edges)


class TestComponentWalk:
    """The one walk that finds a component and 2-colors it, against the
    reference components, the reference 2-coloring and, inside a region, the
    walk maximal_bipartite_part ran by itself."""

    @pytest.mark.parametrize("name", list(BIPARTITE_FAMILIES))
    def test_bipartite_families(self, name):
        g = BIPARTITE_FAMILIES[name]()
        check_walks(g, random.Random(name))
        assert all(w.sides is not None for w in component_walks(g))

    @pytest.mark.parametrize("seed", [0, 13])
    @pytest.mark.parametrize("name", ["sparse_gnp", "grid_bipartite", "dense_batch"])
    def test_benchmark_inputs(self, name, seed):
        rng = random.Random(seed)
        for text, _ in load_workloads().build(name, seed):
            check_walks(read_edgelist(text), rng)

    @pytest.mark.parametrize("seed", range(12))
    def test_disconnected_mixes(self, seed):
        g = mixed_graph(seed)
        check_walks(g, random.Random(seed))

    @given(graphs_with_regions(), st.randoms(use_true_random=False))
    @settings(max_examples=300)
    def test_matches_references(self, case, rng):
        g, region, _ = case
        check_walks(g, rng)
        region = frozenset(region)
        for root in sorted(region)[:3]:  # the region's minimum, and roots above it
            check_walk(g, component_walk(g, root, region), root, region)

    def test_listed_back_edge_is_checked(self):
        # the path 0-1-2 with vertex 1's tuple emptied: 1 lists no edge back
        # to 0, which the walk raises as the growth's extend check would
        class Faulty(Graph):
            def neighbors(self, v):
                return () if v == 1 else super().neighbors(v)

        g = Faulty(3, [(0, 1), (1, 2)])
        for call in (lambda: component_walk(g, 0), lambda: connected_components(g)):
            with pytest.raises(InvariantViolation, match="move failed to increase crossing edges"):
                call()


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
