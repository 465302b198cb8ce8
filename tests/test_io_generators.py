import pytest
from hypothesis import given

from oddcluster import generators as gen
from oddcluster.graph import Graph, GraphError, is_connected
from oddcluster.graph_io import format_edgelist, read_dimacs, read_edgelist

from conftest import graphs
from helpers import OddClosedWalk, bipartition_or_odd_cycle, format_dimacs


class TestEdgelist:
    def test_round_trip(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert read_edgelist(format_edgelist(g)) == g

    def test_parse(self):
        g = read_edgelist("3 2\n0 1\n1 2\n")
        assert g.n == 3 and g.m == 2

    def test_comments_and_blanks(self):
        g = read_edgelist("# a path\n3 2\n\n0 1\n1 2\n")
        assert g.m == 2

    @pytest.mark.parametrize(
        "text",
        ["", "3\n", "3 2\n0 1\n", "3 1\n0 1\n1 2\n", "2 1\nx y\n", "2 1\n0 1 2\n"],
    )
    def test_malformed(self, text):
        with pytest.raises(GraphError):
            read_edgelist(text)

    @given(graphs(max_n=12))
    def test_round_trip_property(self, g):
        assert read_edgelist(format_edgelist(g)) == g


class TestDimacs:
    def test_round_trip(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert read_dimacs(format_dimacs(g)) == g

    def test_one_based(self):
        g = read_dimacs("c comment\np edge 3 2\ne 1 2\ne 2 3\n")
        assert g.edges() == [(0, 1), (1, 2)]

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "e 1 2\n",
            "p edge 3 2\ne 1 2\n",
            "p edge 3\n",
            "p edge 2 1\nq 1 2\n",
            "p edge 3 1\ne 1 2\np edge 5 1\n",
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(GraphError):
            read_dimacs(text)

    @given(graphs(max_n=12))
    def test_round_trip_property(self, g):
        assert read_dimacs(format_dimacs(g)) == g


class TestGenerators:
    def test_cycle(self):
        g = gen.cycle(5)
        assert g.n == 5 and g.m == 5
        assert all(g.degree(v) == 2 for v in range(5))

    def test_cycle_too_small(self):
        with pytest.raises(GraphError):
            gen.cycle(2)

    def test_complete(self):
        g = gen.complete(5)
        assert g.m == 10

    def test_grid(self):
        g = gen.grid(2, 3)
        assert g.n == 6 and g.m == 7

    def test_gnp_deterministic(self):
        assert gen.gnp(30, 0.2, seed=7) == gen.gnp(30, 0.2, seed=7)
        assert gen.gnp(30, 0.2, seed=7) != gen.gnp(30, 0.2, seed=8)

    def test_connected_gnp(self):
        for seed in range(5):
            assert is_connected(gen.connected_gnp(25, 0.05, seed=seed))

    def test_random_bipartite_deterministic(self):
        assert gen.random_bipartite(20, 0.3, seed=3) == gen.random_bipartite(20, 0.3, seed=3)

    def test_connected_bipartite(self):
        for seed in range(5):
            g = gen.connected_bipartite(18, 0.25, seed=seed)
            assert is_connected(g)
            assert not isinstance(bipartition_or_odd_cycle(g, range(g.n)), OddClosedWalk)

    def test_petersen(self):
        g = gen.petersen()
        assert g.n == 10 and g.m == 15
        assert all(g.degree(v) == 3 for v in range(10))
        assert is_connected(g)

    def test_chain_components(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert is_connected(gen.chain_components(g))
        assert gen.chain_components(g).has_edge(0, 2)
