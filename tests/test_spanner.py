from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcluster.graph import Graph, GraphError, connected_components
from oddcluster.oracle import min_connector_bruteforce
from oddcluster.spanner import (
    SpannerRequest,
    Triple,
    bounded_bipartition,
    build_spanner,
    cross_components,
    minimum_connector,
    refine_triple,
    triple_violation,
)
from oddcluster import generators as gen

from conftest import graphs, graphs_with_terminals
from helpers import cross_components_reference


def splits_within_bound(g, vertices, bound):
    """Exhaustive oracle: all side splits whose same-side components fit the bound."""
    vs = sorted(vertices)
    out = []
    for bits in product((0, 1), repeat=len(vs)):
        a = frozenset(v for v, b in zip(vs, bits) if b == 0)
        b = frozenset(v for v, bb in zip(vs, bits) if bb == 1)
        if all(len(c) <= bound for c in connected_components(g, a)) and all(
            len(c) <= bound for c in connected_components(g, b)
        ):
            out.append((a, b))
    return out


@st.composite
def two_sided_splits(draw):
    g = draw(graphs(max_n=14))
    h = sorted(draw(st.sets(st.integers(min_value=0, max_value=g.n - 1))))
    in_a = draw(st.lists(st.booleans(), min_size=len(h), max_size=len(h)))
    side_a = frozenset(v for v, bit in zip(h, in_a) if bit)
    return g, frozenset(h), side_a, frozenset(h) - side_a


class TestCrossComponents:
    def test_c4_alternating_and_same_side(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert cross_components(g, range(4), {0, 2}, {1, 3}) == [frozenset(range(4))]
        assert cross_components(g, range(4), {0, 1}, {2, 3}) == [frozenset({0, 3}), frozenset({1, 2})]
        assert cross_components(g, range(4), {0, 1, 2, 3}, ()) == [frozenset({v}) for v in range(4)]

    @given(two_sided_splits())
    @settings(max_examples=200)
    def test_matches_reference_traversal(self, case):
        g, h, side_a, side_b = case
        assert cross_components(g, h, side_a, side_b) == cross_components_reference(g, h, side_a, side_b)


class TestMinimumConnector:
    def test_path_endpoints(self):
        g = Graph(5, [(i, i + 1) for i in range(4)])
        assert minimum_connector(g, range(5), {0, 4}) == frozenset(range(5))

    def test_star_leaves_force_center(self):
        g = Graph(4, [(3, 0), (3, 1), (3, 2)])
        assert minimum_connector(g, range(4), {0, 1, 2}) == frozenset(range(4))

    def test_c6_tie_breaks_lexicographically(self, c6):
        # both {0,1,2,3} and {0,5,4,3} have minimum size 4
        assert minimum_connector(c6, range(6), {0, 3}) == frozenset({0, 1, 2, 3})

    def test_single_terminal(self, c6):
        assert minimum_connector(c6, range(6), {2}) == frozenset({2})

    def test_terminal_outside_component(self, c6):
        with pytest.raises(GraphError, match="outside"):
            minimum_connector(c6, {0, 1, 2}, {0, 4})

    def test_terminal_budget(self):
        g = gen.complete(14)
        with pytest.raises(GraphError, match="budget"):
            minimum_connector(g, range(14), frozenset(range(13)))

    @given(graphs_with_terminals(max_n=10, max_terminals=4))
    @settings(max_examples=120, deadline=None)
    def test_matches_bruteforce(self, case):
        g, terms = case
        got = minimum_connector(g, range(g.n), terms)
        want = min_connector_bruteforce(g, terms)
        assert got == want


class TestBoundedBipartition:
    def test_p3_parity_split(self):
        g = Graph(3, [(0, 1), (1, 2)])
        feasible = splits_within_bound(g, range(3), 1)
        assert len(feasible) == 2  # the parity split and its mirror
        got = bounded_bipartition(g, range(3), 1)
        assert got in feasible
        assert got == (frozenset({0, 2}), frozenset({1}))

    def test_single_vertex(self):
        g = Graph(1, [])
        assert bounded_bipartition(g, {0}, 1) == (frozenset({0}), frozenset())

    def test_p5_alternating(self):
        g = Graph(5, [(i, i + 1) for i in range(4)])
        got = bounded_bipartition(g, range(5), 1)
        assert got in splits_within_bound(g, range(5), 1)
        assert got == (frozenset({0, 2, 4}), frozenset({1, 3}))

    @given(graphs_with_terminals(max_n=9, max_terminals=4))
    @settings(max_examples=80, deadline=None)
    def test_respects_bound_on_real_connectors(self, case):
        g, terms = case
        connector = minimum_connector(g, range(g.n), terms)
        bound = (len(terms) + 1) // 2
        side_a, side_b = bounded_bipartition(g, connector, bound)
        assert side_a | side_b == connector and not side_a & side_b
        assert (side_a, side_b) in splits_within_bound(g, connector, bound) or len(connector) > 12
        for side in (side_a, side_b):
            assert all(len(c) <= bound for c in connected_components(g, side))


class TestRefine:
    def test_extend_twice_on_path(self):
        g = Graph(3, [(0, 1), (1, 2)])
        req = SpannerRequest(g, frozenset(range(3)), frozenset({0}), 1)
        events = []
        got = refine_triple(
            req, Triple(frozenset({0}), frozenset({0}), frozenset(), 0), on_move=events.append
        )
        assert got == Triple(frozenset({0, 1, 2}), frozenset({0, 2}), frozenset({1}), 2)
        assert [e.kind for e in events] == ["extend", "extend"]
        assert [e.cross_after for e in events] == [1, 2]

    def test_reconnect_on_c4(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        req = SpannerRequest(g, frozenset(range(4)), frozenset(range(4)), 2)
        start = Triple(frozenset(range(4)), frozenset({0, 1}), frozenset({2, 3}), 2)
        events = []
        got = refine_triple(req, start, on_move=events.append)
        # the piece holding vertex 0 keeps its labels, the rest swaps
        assert got == Triple(frozenset(range(4)), frozenset({0, 2}), frozenset({1, 3}), 4)
        assert [e.kind for e in events] == ["reconnect"]

    def test_single_vertex_fixpoint(self):
        g = Graph(1, [])
        req = SpannerRequest(g, frozenset({0}), frozenset({0}), 1)
        start = Triple(frozenset({0}), frozenset({0}), frozenset(), 0)
        assert refine_triple(req, start) == start

    def test_bad_start_rejected(self):
        g = Graph(3, [(0, 1), (1, 2)])
        req = SpannerRequest(g, frozenset(range(3)), frozenset({0}), 1)
        with pytest.raises(GraphError, match="bound"):
            refine_triple(req, Triple(frozenset(range(3)), frozenset(range(3)), frozenset(), 0))


class TestBuildSpanner:
    def test_c6_two_terminals(self, c6):
        req = SpannerRequest(c6, frozenset(range(6)), frozenset({0, 3}), 1)
        got = build_spanner(req)
        assert got == Triple(
            frozenset(range(6)), frozenset({0, 2, 4}), frozenset({1, 3, 5}), 6
        )
        assert triple_violation(req, got) is None

    def test_single_vertex_component(self):
        g = Graph(1, [])
        req = SpannerRequest(g, frozenset({0}), frozenset({0}), 1)
        assert build_spanner(req) == Triple(frozenset({0}), frozenset({0}), frozenset(), 0)

    def test_k5_leftover_component(self, k5):
        req = SpannerRequest(k5, frozenset({2, 3, 4}), frozenset({2}), 1)
        got = build_spanner(req)
        assert (got.h_vertices, got.side_a, got.side_b) == (
            frozenset({2, 3}),
            frozenset({2}),
            frozenset({3}),
        )

    @given(graphs_with_terminals(max_n=11, max_terminals=4))
    @settings(max_examples=120, deadline=None)
    def test_guarantees_and_move_accounting(self, case):
        g, terms = case
        req = SpannerRequest(g, frozenset(range(g.n)), terms, (len(terms) + 1) // 2)
        events = []
        got = build_spanner(req, on_move=events.append)
        assert triple_violation(req, got) is None
        last = None
        for e in events:
            assert e.cross_after > e.cross_before
            assert e.move_index <= e.edge_cap
            if last is not None:
                assert e.cross_before == last.cross_after
            last = e
