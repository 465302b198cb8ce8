import random
import re
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcluster.graph import Graph, GraphError, InvariantViolation, bfs
from oddcluster.spanner import (
    SpannerRequest,
    Triple,
    bounded_bipartition,
    build_spanner,
    count_cross_edges,
    cross_connected,
    max_side_component,
    minimum_connector,
    refine_triple,
    triple_violation,
)
from oddcluster import generators as gen
from oddcluster import spanner

from conftest import graphs, graphs_with_terminals
from helpers import (
    bounded_bipartition_reference,
    connected_components_reference,
    cross_components_reference,
    max_side_component_reference,
    outcome,
    refine_triple_reference,
    triple_violation_reference,
)
from oracle import min_connector_bruteforce


def refine_both(req, start):
    """refine_triple and its from-scratch reference on one start: outcomes and
    move events, `edge_cap` included. Without the event hook, which makes it
    count the region's edges at once, refine_triple must end the same way."""
    runs = []
    for fn in (refine_triple, refine_triple_reference):
        events = []
        runs.append((outcome(fn, req, start, on_move=events.append), events))
    assert outcome(refine_triple, req, start) == runs[0][0]
    return runs


def splits_within_bound(g, vertices, bound):
    """Exhaustive oracle: all side splits whose same-side components fit the bound."""
    vs = sorted(vertices)
    out = []
    for bits in product((0, 1), repeat=len(vs)):
        a = frozenset(v for v, b in zip(vs, bits) if b == 0)
        b = frozenset(v for v, bb in zip(vs, bits) if bb == 1)
        if all(len(c) <= bound for c in connected_components_reference(g, a)) and all(
            len(c) <= bound for c in connected_components_reference(g, b)
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


@st.composite
def loose_sides(draw):
    """H and two sides drawn independently: the sides may overlap, miss
    vertices of H or hold vertices outside it."""
    g = draw(graphs(max_n=14))
    vertex_sets = st.sets(st.integers(min_value=0, max_value=g.n - 1))
    return g, draw(vertex_sets), draw(vertex_sets), draw(vertex_sets)


class TestCrossConnected:
    @given(st.one_of(two_sided_splits(), loose_sides()))
    @settings(max_examples=400)
    def test_matches_reference_count(self, case):
        # the one walk from the minimum vertex against the reference's count of pieces
        g, h, side_a, side_b = case
        assert cross_connected(g, h, side_a, side_b) == (len(cross_components_reference(g, h, side_a, side_b)) <= 1)

    def test_out_of_range_rejected(self, c6):
        with pytest.raises(GraphError) as exc:
            cross_connected(c6, {0, 6}, {0}, {6})
        assert str(exc.value) == "vertex 6 out of range for n=6"


class TestTripleViolationGuards:
    def test_out_of_range_vertex_in_h(self, c6):
        # H inside a component that holds a vertex c6 does not have
        req = SpannerRequest(c6, frozenset({0, 1, 6}), frozenset({0}), 1)
        triple = Triple(frozenset({0, 1, 6}), frozenset({0, 6}), frozenset({1}), 1)
        with pytest.raises(GraphError) as exc:
            triple_violation(req, triple)
        assert str(exc.value) == "vertex 6 out of range for n=6"
        assert outcome(triple_violation_reference, req, triple) == (GraphError, str(exc.value))

    @pytest.mark.parametrize("component", [frozenset(), frozenset({0, 1})])
    def test_empty_h_keeps_the_verdict(self, c6, component):
        req = SpannerRequest(c6, component, frozenset(), 1)
        triple = Triple(frozenset(), frozenset(), frozenset(), 0)
        assert triple_violation(req, triple) is None
        assert triple_violation_reference(req, triple) is None


class TestMaxSideComponent:
    def test_path_sides(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert max_side_component(g, {0, 2, 4}) == 1
        assert max_side_component(g, {0, 1, 2, 4}) == 3
        assert max_side_component(g, ()) == 0

    @given(g=graphs(max_n=14), data=st.data())
    @settings(max_examples=300)
    def test_matches_reference(self, g, data):
        # a few out-of-range entries check the error and its message
        side = data.draw(st.sets(st.integers(min_value=-2, max_value=g.n + 1)))
        assert outcome(max_side_component, g, side) == outcome(max_side_component_reference, g, side)


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

    def test_terminals_in_different_pieces_rejected(self, c6):
        # {0, 1} and {3, 4} are the pieces of the component; the search finds no connector
        with pytest.raises(GraphError, match="terminals are not connected inside the component"):
            minimum_connector(c6, {0, 1, 3, 4}, {0, 3})

    def test_terminals_in_one_piece_connected(self, c6):
        # the component need not be connected, only its terminals within it
        assert minimum_connector(c6, {0, 1, 3, 4}, {0, 1}) == frozenset({0, 1})

    def test_terminal_out_of_range_rejected(self, c6):
        with pytest.raises(GraphError, match="vertex 9 out of range for n=6"):
            minimum_connector(c6, {0, 9}, {0, 9})

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
            assert all(len(c) <= bound for c in connected_components_reference(g, side))

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

    def test_three_reconnects_each_swap_the_piece_of_the_minimum(self):
        # the piece of min(H) = 0 keeps its labels: {0}, then {0, 4, 6}, then all but 2
        g = Graph(7, [(0, 4), (1, 3), (2, 3), (3, 5), (3, 6), (4, 6)])
        req = SpannerRequest(g, frozenset(range(7)), frozenset({0}), 3)
        side_a = frozenset({0, 1, 4, 5})
        start = Triple(frozenset(range(7)), side_a, frozenset(range(7)) - side_a, 3)
        new, ref = refine_both(req, start)
        assert new == ref
        got, events = new
        assert [(e.kind, e.cross_before, e.cross_after) for e in events] == [
            ("reconnect", 3, 4), ("reconnect", 4, 5), ("reconnect", 5, 6)
        ]
        assert got == Triple(frozenset(range(7)), frozenset({0, 1, 2, 5, 6}), frozenset({3, 4}), 6)

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
            pieces = connected_components_reference(g, side_a) + connected_components_reference(g, side_b)
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

    @pytest.mark.parametrize("hooked", [True, False], ids=["with-events", "without-events"])
    def test_cap_stops_a_runaway_loop_at_the_region_edge_count(self, monkeypatch, hooked):
        # a crossing count that keeps rising and a crossing subgraph that never
        # connects: move 7 passes the 6 edges of C6, with or without the hook
        counts = iter(range(1, 100))
        monkeypatch.setattr(spanner, "count_cross_edges", lambda *args: next(counts))
        monkeypatch.setattr(spanner, "cross_bfs", lambda *args: ([0], [0]))
        g = gen.cycle(6)
        req = SpannerRequest(g, frozenset(range(6)), frozenset({0}), 2)
        start = Triple(frozenset({0, 1}), frozenset({0}), frozenset({1}), 1)
        events = []
        with pytest.raises(InvariantViolation, match="exceeded the region's edge count"):
            refine_triple(req, start, on_move=events.append if hooked else None)
        assert [(e.move_index, e.edge_cap) for e in events] == ([(i, 6) for i in range(1, 7)] if hooked else [])

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


TAMPERS = ("flip", "drop", "add", "count", "overlap", "bound", "terminal", "region")


def tampered_case(rng):
    """A spanner request, on the whole graph or on a connected part of it,
    and its built triple, then up to two random breaks: a vertex moved to
    the other side, dropped from H or added to it from outside, a wrong
    crossing count, a vertex on both sides, a smaller bound, a terminal
    outside H, or a region that H leaves."""
    n = rng.randint(1, 14)
    g = gen.connected_gnp(n, rng.uniform(0.15, 0.6), rng.randrange(10**6))
    order = list(bfs(g, rng.randrange(n), frozenset(range(n))))
    region = frozenset(order[: rng.randint(1, n)] if rng.random() < 0.4 else order)
    terms = frozenset(rng.sample(sorted(region), rng.randint(1, min(4, len(region)))))
    req = SpannerRequest(g, region, terms, (len(terms) + 1) // 2)
    triple = build_spanner(req)
    h, a, b = set(triple.h_vertices), set(triple.side_a), set(triple.side_b)
    cross = triple.cross_edges
    for kind in rng.sample(TAMPERS, rng.randint(0, 2)):
        outside = sorted(req.component - h)
        v = rng.choice(sorted(h))
        if kind == "flip":
            (a, b) = (a - {v}, b | {v}) if v in a else (a | {v}, b - {v})
        elif kind == "drop" and len(h) > 1:
            h, a, b = h - {v}, a - {v}, b - {v}
        elif kind == "add" and outside:
            w = rng.choice(outside)
            h.add(w)
            (a if rng.random() < 0.5 else b).add(w)
        elif kind == "count":
            cross += rng.choice((-1, 1))
        elif kind == "overlap":
            a.add(v)
            b.add(v)
        elif kind == "bound" and req.bound > 1:
            req = replace(req, bound=req.bound - 1)
        elif kind == "terminal" and outside:
            req = replace(req, terminals=req.terminals | {rng.choice(outside)})
        elif kind == "region":
            req = replace(req, component=req.component - {v})
        if kind in ("flip", "drop", "add") and rng.random() < 0.8:
            cross = count_cross_edges(g, a, b)  # so later checks get their turn
    return req, Triple(frozenset(h), frozenset(a), frozenset(b), cross)


TRIPLE_MESSAGES = (
    "sides do not partition H",
    "H misses a terminal",
    "H leaves the component",
    "H is not connected",
    "crossing edge count is wrong",
    "a same-side component exceeds the bound",
    "crossing subgraph is disconnected",
    "outside vertex v does not see both sides",
)


class TestTripleViolationAgainstReference:
    @given(rng=st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_on_tampered_triples(self, rng):
        req, triple = tampered_case(rng)
        assert outcome(triple_violation, req, triple) == outcome(triple_violation_reference, req, triple)

    def test_sweep_reaches_every_message(self):
        reached = set()
        for seed in range(800):
            req, triple = tampered_case(random.Random(seed))
            expected = triple_violation_reference(req, triple)
            assert triple_violation(req, triple) == expected, seed
            reached.add(expected and re.sub(r"\d+", "v", expected))
        assert reached == {None, *TRIPLE_MESSAGES}

