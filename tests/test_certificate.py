import pytest
from hypothesis import given, settings

from oddcluster.certificate import (
    OddExpansionCertificate,
    certificate_from_json,
    certificate_to_json,
    extract_certificate,
    verify_certificate,
)
from oddcluster.decompose import StuckState, decompose
from oddcluster.graph import GraphError, TreeSubgraph

from conftest import connected_graphs
from helpers import OddClosedWalk, bipartition_or_odd_cycle


@pytest.fixture
def k5_certificate(k5):
    stuck = decompose(k5, 3)
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
        stuck = decompose(k5, 3)
        with pytest.raises(GraphError, match="adjacent parts"):
            extract_certificate(k5, 4, stuck)


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

    @pytest.mark.parametrize("obj", [{}, {"t": 3}, {"t": 3, "trees": [{"vertices": [0]}], "coloring": {}, "joins": []}])
    def test_malformed(self, obj):
        with pytest.raises(GraphError):
            certificate_from_json(obj)


class TestRoundTripProperty:
    @pytest.mark.parametrize("t", [3, 4])
    @given(g=connected_graphs(min_n=3, max_n=14))
    @settings(max_examples=120, deadline=None)
    def test_every_extracted_certificate_verifies(self, t, g):
        outcome = decompose(g, t)
        if isinstance(outcome, StuckState):
            cert = extract_certificate(g, t, outcome)
            assert verify_certificate(g, cert) is None

    @given(connected_graphs(min_n=3, max_n=14))
    @settings(max_examples=120, deadline=None)
    def test_accepted_t3_certificate_implies_odd_cycle(self, g):
        outcome = decompose(g, 3)
        if isinstance(outcome, StuckState):
            cert = extract_certificate(g, 3, outcome)
            assert verify_certificate(g, cert) is None
            witness = bipartition_or_odd_cycle(g, range(g.n))
            assert isinstance(witness, OddClosedWalk)
