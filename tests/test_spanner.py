import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcluster.graph import Graph, GraphError, InvariantViolation, connected_components
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
from helpers import (
    bounded_bipartition_reference,
    cross_components_reference,
    refine_triple_reference,
)


def outcome(fn, *args, **kwargs):
    """What a call returns, or the error it raises, for differential tests."""
    try:
        return fn(*args, **kwargs)
    except (GraphError, InvariantViolation) as exc:
        return type(exc), str(exc)


def refine_both(req, start):
    """refine_triple and its from-scratch reference on one start: outcomes and move events."""
    runs = []
    for fn in (refine_triple, refine_triple_reference):
        events = []
        runs.append((outcome(fn, req, start, on_move=events.append), events))
    return runs


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

    def test_matches_recursive_reference(self):
        # dense enough that many splits need backtracking and many fail
        rng = random.Random(0)
        found = {"split": 0, "none": 0}
        for _ in range(1500):
            n = rng.randint(3, 12)
            g = gen.connected_gnp(n, rng.uniform(0.2, 0.7), rng.randrange(10**6))
            bound = rng.randint(1, 3)
            want = outcome(bounded_bipartition_reference, g, range(n), bound)
            assert outcome(bounded_bipartition, g, range(n), bound) == want
            found["none" if want[0] is InvariantViolation else "split"] += 1
        assert min(found.values()) > 0, found

    def test_long_path_needs_no_recursion(self):
        n = 3000
        g = Graph(n, [(i, i + 1) for i in range(n - 1)])
        side_a, side_b = bounded_bipartition(g, range(n), 1)
        assert side_a == frozenset(range(0, n, 2))
        assert side_b == frozenset(range(1, n, 2))


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

    def test_extend_after_reconnect(self):
        # the reconnect swaps the piece {1, 2}; vertex 3 then joins side B
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        req = SpannerRequest(g, frozenset(range(4)), frozenset({0}), 2)
        start = Triple(frozenset({0, 1, 2}), frozenset({0, 1}), frozenset({2}), 1)
        events = []
        got = refine_triple(req, start, on_move=events.append)
        assert got == Triple(frozenset(range(4)), frozenset({0, 2}), frozenset({1, 3}), 3)
        assert [(e.kind, e.cross_after) for e in events] == [("reconnect", 2), ("extend", 3)]

    def test_single_vertex_fixpoint(self):
        g = Graph(1, [])
        req = SpannerRequest(g, frozenset({0}), frozenset({0}), 1)
        start = Triple(frozenset({0}), frozenset({0}), frozenset(), 0)
        assert refine_triple(req, start) == start

    @given(graphs_with_terminals(max_n=12, max_terminals=4))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_from_bounded_bipartition(self, case):
        g, terms = case
        bound = (len(terms) + 1) // 2
        connector = minimum_connector(g, range(g.n), terms)
        side_a, side_b = bounded_bipartition(g, connector, bound)
        req = SpannerRequest(g, frozenset(range(g.n)), terms, bound)
        start = Triple(connector, side_a, side_b, 0)
        new, ref = refine_both(req, start)
        assert new == ref

    def test_matches_reference_from_arbitrary_starts(self):
        # random splits of random vertex sets: many need reconnect moves,
        # and some fail a move check, which must fail the same way
        rng = random.Random(0)
        kinds = {"reconnect": 0, "extend": 0, "error": 0}
        for _ in range(400):
            n = rng.randint(2, 14)
            g = gen.connected_gnp(n, rng.uniform(0.15, 0.6), rng.randrange(10**6))
            h = frozenset(v for v in range(n) if rng.random() < 0.6) or frozenset({0})
            side_a = frozenset(v for v in h if rng.random() < 0.5)
            side_b = h - side_a
            pieces = connected_components(g, side_a) + connected_components(g, side_b)
            bound = max([1] + [len(c) for c in pieces])
            terms = frozenset(v for v in h if rng.random() < 0.3)
            req = SpannerRequest(g, frozenset(range(n)), terms, bound)
            new, ref = refine_both(req, Triple(h, side_a, side_b, 0))
            assert new == ref
            result, events = new
            for e in events:
                kinds[e.kind] += 1
            kinds["error"] += isinstance(result, tuple)
        assert min(kinds.values()) > 0, kinds

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
