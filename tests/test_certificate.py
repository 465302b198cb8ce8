import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcluster.certificate import (
    OddExpansionCertificate,
    certificate_from_json,
    certificate_to_json,
    extract_certificate,
    verify_certificate,
)
from oddcluster.decompose import Part, StuckState, decompose
from oddcluster.generators import complete, connected_gnp, gnp
from oddcluster.graph import Graph, GraphError, TreeSubgraph

from conftest import connected_graphs
from helpers import (
    OddClosedWalk,
    bipartition_or_odd_cycle,
    region_walk,
    spanning_tree_reference,
    tree_depth_parity_reference,
)


@st.composite
def clique_with_tail(draw):
    """K5 or K7 with a connected graph glued on at its last vertex. At t=3,
    and for K7 also at t=4, the parts cover the clique two vertices at a
    time and the run gets stuck on a component holding the whole glued
    graph, so component trees of up to 13 vertices occur."""
    k = draw(st.sampled_from([5, 7]))
    tail = draw(connected_graphs(min_n=1, max_n=12))
    edges = [(u + k - 1, v + k - 1) for u, v in tail.edges()]
    return Graph(tail.n + k - 1, complete(k).edges() + edges)


# small random graphs get stuck only on components of one or two vertices
STUCK_GRAPHS = st.one_of(connected_graphs(min_n=3, max_n=14), clique_with_tail())


@st.composite
def dense_gnp(draw):
    """Connected G(n,p), n 10..18, p 0.5..0.9. The parts such graphs get
    stuck against carry crossing cycles, so a part's tree depends on the
    order in which the crossing walk visits neighbors; the parts of
    STUCK_GRAPHS are mostly too small for that."""
    n = draw(st.integers(min_value=10, max_value=18))
    p = draw(st.sampled_from([0.5, 0.6, 0.7, 0.8, 0.9]))
    return connected_gnp(n, p, draw(st.integers(min_value=0, max_value=10**6)))


def assert_part_trees_match_reference(g, t, stuck):
    """Each part tree extraction takes from the crossing walk is the
    reference BFS tree over the part's side-crossing edges."""
    cert = extract_certificate(g, t, stuck)
    parts = sorted(stuck.adjacent_parts, key=lambda p: p.index)[: t - 1]
    for p, tree in zip(parts, cert.trees):
        a, b = p.side_a, p.side_b
        crossing = lambda x, y: (x in a and y in b) or (x in b and y in a)  # noqa: E731
        assert tree == spanning_tree_reference(g, p.vertices, crossing)


def with_tree(cert, i, vertices, edges):
    """The certificate with tree i replaced."""
    trees = list(cert.trees)
    trees[i] = TreeSubgraph(frozenset(vertices), frozenset(edges))
    return cert._replace(trees=tuple(trees))


def with_join(cert, pair, edge):
    """The certificate with the join of a tree pair replaced."""
    return cert._replace(joins={**cert.joins, pair: edge})


K5 = complete(5)
K5_WITHOUT_23 = Graph(5, [e for e in K5.edges() if e != (2, 3)])


@pytest.fixture
def k5_certificate(k5):
    stuck = decompose(k5, 3, region_walk(k5))
    assert isinstance(stuck, StuckState)
    return extract_certificate(k5, 3, stuck)


class TestExtraction:
    def test_k5_trace(self, k5, k5_certificate):
        cert = k5_certificate
        assert [sorted(tr.vertices) for tr in cert.trees] == [[0, 1], [2, 3], [4]]
        assert cert.trees[0].edges == frozenset({(0, 1)})
        assert cert.trees[1].edges == frozenset({(2, 3)})
        assert cert.trees[2].edges == frozenset()
        assert cert.coloring == {0: 1, 1: 2, 2: 1, 3: 2, 4: 1}
        assert cert.joins == {(0, 1): (0, 2), (0, 2): (0, 4), (1, 2): (2, 4)}
        assert verify_certificate(k5, cert) is None

    def test_too_few_parts_rejected(self, k5):
        stuck = decompose(k5, 3, region_walk(k5))
        with pytest.raises(GraphError, match="adjacent parts"):
            extract_certificate(k5, 4, stuck)

    def test_part_without_spanning_crossing_edges_rejected(self, k5):
        # part 1 is {0,1}; with both vertices on side A no edge of it crosses
        stuck = decompose(k5, 3, region_walk(k5))
        first = stuck.adjacent_parts[0]
        assert first == Part(1, frozenset({0, 1}), frozenset({0}), frozenset({1}))
        bad = first._replace(side_a=first.vertices, side_b=frozenset())
        stuck = stuck._replace(adjacent_parts=(bad,) + stuck.adjacent_parts[1:])
        with pytest.raises(GraphError, match="part 1's crossing edges do not span it"):
            extract_certificate(k5, 3, stuck)

    def test_disconnected_component_rejected(self):
        # K5 plus a vertex 5 on 0..3 but not on 4: the parts of K5 stay
        # adjacent to {4, 5}, which is not connected
        g = Graph(6, complete(5).edges() + [(v, 5) for v in range(4)])
        k5 = complete(5)
        stuck = decompose(k5, 3, region_walk(k5))._replace(component=frozenset({4, 5}))
        with pytest.raises(GraphError, match="the stuck component is not connected"):
            extract_certificate(g, 3, stuck)

    @pytest.mark.parametrize(
        "removed, message",
        [
            ([(0, 4), (1, 4)], "part 1 is not adjacent to the component"),
            ([(u, v) for u in (0, 1) for v in (2, 3)], "parts 1 and 2 are not adjacent"),
            # with both faults, each part is checked against the component
            # first and then against each later part
            ([(0, 4), (1, 4)] + [(u, v) for u in (0, 1) for v in (2, 3)], "part 1 is not adjacent to the component"),
            ([(2, 4), (3, 4)] + [(u, v) for u in (0, 1) for v in (2, 3)], "parts 1 and 2 are not adjacent"),
        ],
    )
    def test_non_adjacent_tree_pair_rejected(self, k5, removed, message):
        # K5's parts {0,1} and {2,3} and component {4}, read against K5 less some edges
        g = Graph(5, sorted(set(k5.edges()) - set(removed)))
        with pytest.raises(GraphError) as exc:
            extract_certificate(g, 3, decompose(k5, 3, region_walk(k5)))
        assert str(exc.value) == message


class TestVerifier:
    def test_singleton_trees_in_k4(self, k4):
        # four one-vertex trees, all the same color: every join is monochromatic
        cert = OddExpansionCertificate(
            4,
            tuple(TreeSubgraph(frozenset({v}), frozenset()) for v in range(4)),
            {v: 1 for v in range(4)},
            {(i, j): (i, j) for i in range(4) for j in range(i + 1, 4)},
        )
        assert verify_certificate(k4, cert) is None

    def test_tampered_join_rejected(self, k5, k5_certificate):
        joins = dict(k5_certificate.joins)
        joins[(0, 1)] = (1, 2)  # colors 2 and 1
        bad = OddExpansionCertificate(3, k5_certificate.trees, k5_certificate.coloring, joins)
        assert verify_certificate(k5, bad) == "join edge not monochromatic"

    def test_shared_vertex_rejected(self, k5, k5_certificate):
        trees = list(k5_certificate.trees)
        trees[2] = TreeSubgraph(frozenset({3}), frozenset())
        bad = OddExpansionCertificate(3, tuple(trees), k5_certificate.coloring, k5_certificate.joins)
        assert verify_certificate(k5, bad) == "trees not disjoint"

    def test_monochromatic_tree_edge_rejected(self, k5, k5_certificate):
        coloring = dict(k5_certificate.coloring)
        coloring[1] = 1
        bad = OddExpansionCertificate(3, k5_certificate.trees, coloring, k5_certificate.joins)
        assert "monochromatic" in verify_certificate(k5, bad)

    def test_foreign_graph_rejected(self, c6, k5_certificate):
        # K_5's certificate against C_6: the join edge (0,2) does not exist there
        reason = verify_certificate(c6, k5_certificate)
        assert reason is not None and "not in graph" in reason

    def test_missing_join_rejected(self, k5, k5_certificate):
        joins = dict(k5_certificate.joins)
        del joins[(1, 2)]
        bad = OddExpansionCertificate(3, k5_certificate.trees, k5_certificate.coloring, joins)
        assert verify_certificate(k5, bad) == "joins must cover every tree pair exactly once"

    def test_broken_tree_rejected(self, k5, k5_certificate):
        trees = list(k5_certificate.trees)
        trees[0] = TreeSubgraph(frozenset({0, 1}), frozenset())
        bad = OddExpansionCertificate(3, tuple(trees), k5_certificate.coloring, k5_certificate.joins)
        assert "edge count" in verify_certificate(k5, bad)

    def test_out_of_range_vertex_rejected(self, k5, k5_certificate):
        trees = list(k5_certificate.trees)
        trees[2] = TreeSubgraph(frozenset({9}), frozenset())
        bad = OddExpansionCertificate(3, tuple(trees), k5_certificate.coloring, k5_certificate.joins)
        assert "out of range" in verify_certificate(k5, bad)

    @pytest.mark.parametrize(
        "v, color, expected",
        [
            (0, 1.0, "vertex 0 lacks a color in {1,2}"),
            (1, 2.0, "vertex 1 lacks a color in {1,2}"),
            # a bool passes as the int it equals, as a hue does in verify_coloring
            (0, True, None),
        ],
        ids=["float-1", "float-2", "bool"],
    )
    def test_color_must_be_an_int(self, k5, k5_certificate, v, color, expected):
        coloring = {**k5_certificate.coloring, v: color}  # vertex 0 is colored 1, vertex 1 is colored 2
        cert = OddExpansionCertificate(3, k5_certificate.trees, coloring, k5_certificate.joins)
        assert verify_certificate(k5, cert) == expected

    def test_record_as_join_edge_rejected(self, k5, k5_certificate):
        # a record is a tuple of two fields, but not of two ints
        joins = dict(k5_certificate.joins)
        joins[(0, 2)] = TreeSubgraph(frozenset({0}), frozenset())
        bad = OddExpansionCertificate(3, k5_certificate.trees, k5_certificate.coloring, joins)
        assert verify_certificate(k5, bad) == "join for pair (0,2) is malformed"

    def test_record_as_tree_edge_rejected(self, k5, k5_certificate):
        trees = list(k5_certificate.trees)
        record = TreeSubgraph(frozenset({0}), frozenset())
        trees[0] = TreeSubgraph(trees[0].vertices, frozenset({record}))
        bad = OddExpansionCertificate(3, tuple(trees), k5_certificate.coloring, k5_certificate.joins)
        assert verify_certificate(k5, bad) == f"tree 0 has a malformed edge {record!r}"

    def test_unhashable_endpoint_rejected(self, k5, k5_certificate):
        trees = list(k5_certificate.trees)
        trees[0] = TreeSubgraph(trees[0].vertices, ((0, {}),))
        bad = OddExpansionCertificate(3, tuple(trees), k5_certificate.coloring, k5_certificate.joins)
        assert verify_certificate(k5, bad) == "tree 0 has a malformed edge (0, {})"

    @pytest.mark.parametrize(
        "g, edit, message",
        [
            (K5, lambda c: c._replace(t=0), "t must be a positive integer"),
            (K5, lambda c: with_tree(c, 0, (), ()), "tree 0 is empty"),
            (K5, lambda c: with_tree(c, 0, {0, 1}, {(0, 2)}), "tree 0 edge (0,2) leaves its vertex set"),
            (K5_WITHOUT_23, lambda c: c, "tree 1 edge (2,3) not in graph"),
            # three edges on four vertices: a triangle, and vertex 3 apart
            (K5, lambda c: with_tree(c, 0, {0, 1, 2, 3}, {(0, 1), (1, 2), (0, 2)}), "tree 0 is not connected"),
            (K5, lambda c: with_join(c, (0, 1), (0, 7)), "join vertex 7 out of range"),
            # an edge from tree 0 to tree 1, given as the join of trees 0 and 2
            (K5, lambda c: with_join(c, (0, 2), (1, 3)), "join edge (1,3) does not link trees 0 and 2"),
        ],
        ids=["t", "empty-tree", "edge-leaves-tree", "edge-not-in-graph", "tree-disconnected",
             "join-out-of-range", "join-between-other-trees"],
    )
    def test_each_clause_names_its_fault(self, k5_certificate, g, edit, message):
        # K5's certificate at t=3, trees {0,1}, {2,3} and {4}, edited in one place
        assert verify_certificate(g, edit(k5_certificate)) == message

    def test_named_tuple_edges_accepted(self, k5, k5_certificate):
        # any tuple of two ints is an edge, a caller's namedtuple too
        Edge = collections.namedtuple("Edge", "u v")
        trees = tuple(TreeSubgraph(tr.vertices, frozenset(Edge(*e) for e in tr.edges)) for tr in k5_certificate.trees)
        joins = {pair: Edge(*e) for pair, e in k5_certificate.joins.items()}
        cert = OddExpansionCertificate(3, trees, k5_certificate.coloring, joins)
        assert verify_certificate(k5, cert) is None


class TestJson:
    def test_round_trip(self, k5, k5_certificate):
        obj = certificate_to_json(k5_certificate)
        back = certificate_from_json(obj)
        assert back == k5_certificate
        assert verify_certificate(k5, back) is None

    def test_shape(self, k5_certificate):
        obj = certificate_to_json(k5_certificate)
        assert obj["trees"][0] == {"vertices": [0, 1], "edges": [[0, 1]]}
        assert obj["coloring"]["4"] == 1
        assert obj["joins"][0] == {"pair": [0, 1], "edge": [0, 2]}

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda obj: obj["coloring"].update({"01": obj["coloring"].pop("1")}), "coloring key '01' is not a vertex id"),
            (lambda obj: obj["coloring"].update({"x": 1}),
             "malformed certificate JSON: invalid literal for int() with base 10: 'x'"),
            (lambda obj: obj["coloring"].update({"4": 1.0}), "vertex color must be an integer, got 1.0"),
            (lambda obj: obj["trees"][2]["vertices"].append(4), "a tree vertex is listed twice"),
            (lambda obj: obj["trees"][0]["edges"].append([0, 1]), "a tree edge is listed twice"),
            (lambda obj: obj["joins"].append(obj["joins"][0]), "join pair [0, 1] is listed twice"),
            (lambda obj: obj.update(t="3"), "t must be an integer, got '3'"),
        ],
        ids=["key-not-a-vertex-id", "key-not-a-number", "float-color", "repeated-tree-vertex",
             "repeated-tree-edge", "repeated-join-pair", "string-t"],
    )
    def test_each_clause_names_its_fault(self, k5_certificate, edit, message):
        # K5's certificate at t=3 as JSON, edited in one place; a fault the
        # parser names comes out as written, and only a malformed shape, here
        # a key int() refuses, under the prefix
        obj = certificate_to_json(k5_certificate)
        edit(obj)
        with pytest.raises(GraphError) as exc:
            certificate_from_json(obj)
        assert str(exc.value) == message

    @pytest.mark.parametrize("obj", [{}, {"t": 3}, {"t": 3, "trees": [{"vertices": [0]}], "coloring": {}, "joins": []}])
    def test_malformed(self, obj):
        with pytest.raises(GraphError):
            certificate_from_json(obj)


class TestRoundTripProperty:
    @pytest.mark.parametrize("t", [3, 4])
    @given(g=STUCK_GRAPHS)
    @settings(max_examples=120, deadline=None)
    def test_every_extracted_certificate_verifies(self, t, g):
        outcome = decompose(g, t, region_walk(g))
        if isinstance(outcome, StuckState):
            cert = extract_certificate(g, t, outcome)
            assert verify_certificate(g, cert) is None

    @given(tail=connected_graphs(min_n=1, max_n=16))
    @settings(max_examples=150, deadline=None)
    def test_component_tree_matches_reference(self, tail):
        # K5 on 0..4 with a connected graph glued on at vertex 4: at t=3
        # the parts are {0,1} and {2,3}, and the glued graph is the stuck
        # component. Its tree and its coloring by depth parity over that
        # tree must be what extraction built before it used graph.bfs.
        edges = [(u + 4, v + 4) for u, v in tail.edges()]
        g = Graph(tail.n + 4, complete(5).edges() + edges)
        outcome = decompose(g, 3, region_walk(g))
        assert outcome.component == frozenset(range(4, g.n))
        cert = extract_certificate(g, 3, outcome)
        tree = spanning_tree_reference(g, outcome.component)
        assert cert.trees[-1] == tree
        parity = tree_depth_parity_reference(tree)
        assert {v: cert.coloring[v] for v in tree.vertices} == {
            v: 1 if p == 0 else 2 for v, p in parity.items()
        }

    @pytest.mark.parametrize("t", [3, 4, 5])
    @given(g=st.one_of(STUCK_GRAPHS, dense_gnp()))
    @settings(max_examples=60, deadline=None)
    def test_part_trees_match_reference(self, t, g):
        outcome = decompose(g, t, region_walk(g))
        if isinstance(outcome, StuckState):
            assert_part_trees_match_reference(g, t, outcome)

    def test_part_trees_match_reference_on_dense_gnp(self):
        stuck = 0
        for seed in range(60):
            g = gnp(10 + seed % 9, 0.5 + (seed % 5) / 10, seed)
            t = 3 + seed % 3
            outcome = decompose(g, t, region_walk(g))
            if isinstance(outcome, StuckState):
                stuck += 1
                assert_part_trees_match_reference(g, t, outcome)
        assert stuck >= 30

    @given(STUCK_GRAPHS)
    @settings(max_examples=120, deadline=None)
    def test_accepted_t3_certificate_implies_odd_cycle(self, g):
        outcome = decompose(g, 3, region_walk(g))
        if isinstance(outcome, StuckState):
            cert = extract_certificate(g, 3, outcome)
            assert verify_certificate(g, cert) is None
            witness = bipartition_or_odd_cycle(g, range(g.n))
            assert isinstance(witness, OddClosedWalk)
