import importlib
import random
import re
from collections import Counter
from contextlib import contextmanager
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcluster.cli import run_color
from oddcluster.graph import Graph, GraphError, InvariantViolation, bfs
from oddcluster.graph_io import read_edgelist
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

from conftest import connected_graphs, graphs, graphs_with_terminals
from helpers import (
    bounded_bipartition_reference,
    connected_components_reference,
    cross_components_reference,
    load_workloads,
    max_side_component_reference,
    minimum_connector_reference,
    outcome,
    refine_triple_reference,
    refine_triple_two_loops,
    spanner_general_path,
    spanner_requests,
    sparse_gnp,
    triple_violation_reference,
)
from oracle import min_connector_bruteforce


def refine_both(req, start):
    """refine_triple and its from-scratch reference on one start: outcomes and
    move events, `edge_cap` (the edges inside H after the move) included.
    Without the event hook, refine_triple must end the same way."""
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


@st.composite
def connected_starts(draw):
    """A refine_triple request and start: a connected H grown inside a
    connected graph from a random vertex, a random split of H under the least
    bound that fits it, terminals in H, and a region of H and any other
    vertices. A random split often leaves the crossing subgraph
    disconnected, so reconnects fire, and extends after them."""
    g = draw(connected_graphs(min_n=2, max_n=12))
    h = [draw(st.integers(0, g.n - 1))]
    for _ in range(draw(st.integers(0, g.n - 1))):
        h.append(draw(st.sampled_from(sorted(g.neighborhood(h) - set(h)))))
    in_a = draw(st.lists(st.booleans(), min_size=len(h), max_size=len(h)))
    hs = frozenset(h)
    side_a = frozenset(v for v, bit in zip(h, in_a) if bit)
    side_b = hs - side_a
    bound = max(max_side_component(g, side_a), max_side_component(g, side_b))
    terms = draw(st.frozensets(st.sampled_from(h)))
    region = hs | draw(st.frozensets(st.integers(0, g.n - 1)))
    req = SpannerRequest(g, region, terms, bound)
    return req, Triple(hs, side_a, side_b, count_cross_edges(g, side_a, side_b))


def faulty_host(host, table):
    """`host` with the neighbor tuples of `table` in place of its own."""
    class Faulty(Graph):
        def neighbors(self, v):
            return table[v] if v in table else super().neighbors(v)

    return Faulty(host.n, host.edges())


@contextmanager
def refine_calls():
    """Within the block, the request and start of every refine_triple call,
    the spanner's and part 1's growth alike."""
    calls = []
    real = spanner.refine_triple
    decompose_module = importlib.import_module("oddcluster.decompose")  # the package exports a function of that name

    def recording(req, start, on_move=None):
        calls.append((req, start))
        return real(req, start, on_move=on_move)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spanner, "refine_triple", recording)
        mp.setattr(decompose_module, "refine_triple", recording)
        yield calls


# hosts whose neighbor tuples break a guarantee the moves rely on, with the
# terminals of the growth to run on them: two terminals give the spanner's
# start, and {0} part 1's growth start
FAULTY_HOSTS = [
    pytest.param(gen.grid(1, 6), {4: ()}, {0, 2}, id="path-no-edge-into-H"),
    pytest.param(gen.grid(1, 6), {4: (3, 4)}, {0, 2}, id="path-neighbor-on-its-side"),
    pytest.param(gen.cycle(8), {5: ()}, {0, 2}, id="c8-no-edge-into-H"),
    pytest.param(gen.cycle(8), {5: (4, 5)}, {0, 2}, id="c8-neighbor-on-its-side"),
    pytest.param(Graph(7, [(0, 1), (1, 2), (2, 3), (2, 4), (2, 5), (2, 6)]), {1: (2,), 2: ()}, {0, 2},
                 id="move-cap"),
    pytest.param(gen.grid(1, 3), {1: ()}, {0}, id="part-1-no-edge-into-H"),
    pytest.param(gen.grid(1, 3), {1: (0, 1)}, {0}, id="part-1-neighbor-on-its-side"),
    pytest.param(gen.cycle(6), {2: ()}, {0}, id="part-1-c6-depth-2-no-edge-into-H"),
    pytest.param(gen.cycle(6), {2: (1, 2, 3)}, {0}, id="part-1-c6-depth-2-neighbor-on-its-side"),
    pytest.param(gen.grid(3, 3), {4: ()}, {0}, id="part-1-grid-3x3-depth-2-no-edge-into-H"),
    pytest.param(gen.grid(3, 3), {4: (1, 3, 4, 5, 7)}, {0}, id="part-1-grid-3x3-depth-2-neighbor-on-its-side"),
]


def faulty_start(host, table, terms):
    """The request and start of the growth on `host` with `table`'s tuples:
    the spanner's, as build_spanner makes it, for two terminals; part 1's,
    H = A = {r}, for one."""
    g = faulty_host(host, table)
    region, terms = frozenset(range(g.n)), frozenset(terms)
    if len(terms) == 1:
        return SpannerRequest(g, region, terms, 1), Triple(terms, terms, frozenset(), 0)
    with refine_calls() as starts:
        outcome(build_spanner, SpannerRequest(g, region, terms, 1))
    assert len(starts) == 1
    return starts[0]


def same_as_two_loops(req, start):
    """refine_triple and the two-loop version on one start must give the same
    outcome, result or error, and the same MoveEvents; without the hook, the
    same outcome. The events, for the caller to count."""
    runs = []
    for fn in (refine_triple, refine_triple_two_loops):
        events = []
        runs.append((outcome(fn, req, start, on_move=events.append), events, outcome(fn, req, start)))
    assert runs[0] == runs[1]
    return runs[0][1]


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
        # {0, 1} and {3, 4} are the pieces of the component; the bounding BFS finds no path
        message = "terminals are not connected inside the component"
        with pytest.raises(GraphError, match=message):
            minimum_connector(c6, {0, 1, 3, 4}, {0, 3})
        assert outcome(minimum_connector_reference, c6, {0, 1, 3, 4}, {0, 3}) == (GraphError, message)

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

    @given(graphs_with_terminals(max_n=12, max_terminals=5), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_on_regions(self, case, data):
        # a region of the terminals and any other vertices, often disconnected
        g, terms = case
        region = terms | data.draw(st.frozensets(st.integers(0, g.n - 1)))
        got = outcome(minimum_connector, g, region, terms)
        assert got == outcome(minimum_connector_reference, g, region, terms)

    @pytest.mark.parametrize("seed, calls", [(0, 192), (13, 191)])
    def test_matches_reference_on_the_dense_batch(self, seed, calls):
        # every request of two or more terminals that decompose sends
        # build_spanner while the benchmark's dense batch is colored
        with spanner_requests() as sent:
            for text, t in load_workloads().build("dense_batch", seed):
                run_color(read_edgelist(text), t)
        requests = [req for req in sent if len(req.terminals) >= 2]
        assert len(requests) == calls
        for req in requests:
            args = (req.host, req.component, req.terminals)
            assert minimum_connector(*args) == minimum_connector_reference(*args)

    @pytest.mark.parametrize(
        "k", [2, 3, 4, pytest.param(5, marks=pytest.mark.slow), pytest.param(6, marks=pytest.mark.slow)]
    )
    @pytest.mark.parametrize("family", [gen.connected_gnp, sparse_gnp], ids=["connected_gnp", "sparse_gnp"])
    def test_matches_reference_on_random_regions(self, family, k):
        # a 500-vertex graph whole, then random regions of smaller ones,
        # where the terminals may lie in different pieces
        rng = random.Random(k)
        for trial in range(3):
            n = 500 if trial == 0 else rng.randrange(20, 300)
            g = family(n, rng.uniform(2, 4) / n, rng.randrange(10**6))
            keep = 1.0 if trial == 0 else rng.uniform(0.6, 0.95)
            region = frozenset(v for v in range(n) if rng.random() < keep)
            terms = frozenset(rng.sample(sorted(region), k))
            got = outcome(minimum_connector, g, region, terms)
            assert got == outcome(minimum_connector_reference, g, region, terms)


# the path 0-1-2 and the edge 3-4, apart
PATH_AND_EDGE = Graph(5, [(0, 1), (1, 2), (3, 4)])


class TestBoundedBipartition:
    @pytest.mark.parametrize(
        "h_vertices, bound, message",
        [
            ({0, 1, 2}, 0, "bound must be >= 1"),
            ((), 1, "h_vertices must be nonempty"),
            ({0, 1, 3}, 1, "h_vertices does not induce a connected subgraph"),
        ],
        ids=["bound", "empty", "disconnected"],
    )
    def test_start_checks(self, h_vertices, bound, message):
        with pytest.raises(GraphError) as exc:
            bounded_bipartition(PATH_AND_EDGE, h_vertices, bound)
        assert str(exc.value) == message

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
            kinds["error"] += not isinstance(result, Triple)
        assert min(kinds.values()) > 0, kinds

    @pytest.mark.parametrize("hooked", [True, False], ids=["with-events", "without-events"])
    def test_edges_inside_h_stop_a_runaway_loop(self, monkeypatch, hooked):
        # a crossing count that keeps rising from 1 and a crossing subgraph
        # that never connects, on the path 0..4 of C6, which has 4 edges:
        # move 4 = 4 - 1 + 1 would make 5 crossing edges, with or without the hook
        counts = iter(range(1, 100))
        monkeypatch.setattr(spanner, "count_cross_edges", lambda *args: next(counts))
        monkeypatch.setattr(spanner, "cross_bfs", lambda *args: ([0], [0]))
        g = gen.cycle(6)
        req = SpannerRequest(g, frozenset(range(6)), frozenset({0}), 2)
        start = Triple(frozenset(range(5)), frozenset({0, 2, 4}), frozenset({1, 3}), 1)
        events = []
        with pytest.raises(InvariantViolation) as exc:
            refine_triple(req, start, on_move=events.append if hooked else None)
        assert str(exc.value) == "crossing edges exceeded the edges inside H"
        assert [(e.move_index, e.cross_after, e.edge_cap) for e in events] == (
            [(i, i + 1, 4) for i in range(1, 4)] if hooked else []
        )

    def test_bad_start_rejected(self):
        g = Graph(3, [(0, 1), (1, 2)])
        req = SpannerRequest(g, frozenset(range(3)), frozenset({0}), 1)
        with pytest.raises(GraphError, match="bound"):
            refine_triple(req, Triple(frozenset(range(3)), frozenset(range(3)), frozenset(), 0))

    @pytest.mark.parametrize(
        "side_a, side_b, message",
        [
            ({0}, {0, 1}, "start sides do not partition H"),
            ({1}, {2}, "start H must sit between terminals and component"),  # H misses terminal 0
            ({0, 2}, {1, 3}, "start H must sit between terminals and component"),  # 3 is outside the region
            ({0, 1}, (), "start violates the side-component bound"),
        ],
        ids=["partition", "terminal", "component", "bound"],
    )
    def test_start_checks(self, side_a, side_b, message):
        # the region is the path 0-1-2 of PATH_AND_EDGE, with terminal 0 and bound 1
        req = SpannerRequest(PATH_AND_EDGE, frozenset({0, 1, 2}), frozenset({0}), 1)
        a, b = frozenset(side_a), frozenset(side_b)
        with pytest.raises(GraphError) as exc:
            refine_triple(req, Triple(a | b, a, b, 0))
        assert str(exc.value) == message


class TestOneStepMatchesTwoLoops:
    """refine_triple makes every move through one checked step; the version
    with one loop per move kind must agree with it on every start."""

    @pytest.mark.parametrize(
        "workload, seed, calls, extends",
        [("sparse_gnp", 0, 43, 2775), ("sparse_gnp", 13, 52, 2746),
         ("dense_batch", 0, 1533, 41029), ("dense_batch", 13, 1530, 41177)],
    )
    def test_every_call_on_the_benchmark_inputs(self, workload, seed, calls, extends):
        # spanner and part 1 growth alike (the traced benchmark counts only the
        # spanner's moves); the pipeline never reconnects
        with refine_calls() as made:
            for text, t, *_ in load_workloads().build(workload, seed):
                run_color(read_edgelist(text), t)
        kinds = Counter(e.kind for req, start in made for e in same_as_two_loops(req, start))
        assert (len(made), kinds) == (calls, Counter(extend=extends))

    @pytest.mark.parametrize("host, table, terms", FAULTY_HOSTS)
    def test_faulty_hosts(self, host, table, terms):
        # the hosts of the per-move-check tests: from the spanner's start and
        # from part 1's growth start, both versions end the same way after
        # the same events. Each fault is caught, the same way with and
        # without the hook: by a per-move check, or on the move-cap host,
        # whose tuples list some edges one way only, by the postcondition
        req, start = faulty_start(host, table, terms)
        same_as_two_loops(req, start)
        caught = outcome(build_spanner, req)
        assert caught[0] is InvariantViolation
        assert outcome(build_spanner, req, on_move=lambda e: None) == caught

    def test_random_connected_starts(self):
        # many starts have a disconnected crossing subgraph, and reconnects
        # must be made, some followed by extends
        seen = Counter()

        @given(connected_starts())
        @settings(max_examples=400, deadline=None)
        def check(case):
            kinds = [e.kind for e in same_as_two_loops(*case)]
            seen.update(kinds)
            seen["reconnect then extend"] += "reconnect" in kinds and kinds[-1] == "extend"

        check()
        assert min(seen[k] for k in ("reconnect", "extend", "reconnect then extend")) > 0, seen


class TestTheHookChangesNothing:
    """refine_triple bounds its moves by the edges inside H, which it tracks
    as H grows, and checks that bound the same way with or without
    `on_move`: a run ends the same both ways, and each event's `edge_cap` is
    the edge count of H after its move."""

    @pytest.mark.parametrize("host, table, terms", FAULTY_HOSTS)
    def test_faulty_hosts(self, host, table, terms):
        # where the tuples list an edge one way only, the edges inside H that
        # the moves add up and a recount of the tuples part ways (on the
        # move-cap host 2, 3, 4, 5 against 1, 2, 2, 3), so here each event
        # is held only to move_index <= cross_after <= edge_cap
        req, start = faulty_start(host, table, terms)
        events = []
        assert outcome(refine_triple, req, start, on_move=events.append) == outcome(refine_triple, req, start)
        for e in events:
            assert e.move_index <= e.cross_after <= e.edge_cap

    @pytest.mark.slow
    @pytest.mark.parametrize("workload, seed", [("sparse_gnp", 0), ("sparse_gnp", 13), ("dense_batch", 0), ("dense_batch", 13)])
    def test_every_call_on_the_benchmark_inputs(self, workload, seed):
        # spanner and part 1 growth alike; the reference recounts the edges
        # inside H from scratch after every move, for its check and its edge_cap
        with refine_calls() as made:
            for text, t, *_ in load_workloads().build(workload, seed):
                run_color(read_edgelist(text), t)
        for req, start in made:
            new, ref = refine_both(req, start)
            assert new == ref


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

    @pytest.mark.parametrize(
        "g, v, bound",
        [(gen.cycle(6), 3, 1), (gen.complete(5), 0, 2)],
        ids=["two-neighbors-outside", "four-neighbors-outside-bound-2"],
    )
    def test_single_vertex_component_matches_the_general_path(self, g, v, bound):
        # decompose makes such a part itself; build_spanner gives the same, and no move fires
        req = SpannerRequest(g, frozenset({v}), frozenset({v}), bound)
        events = []
        got = build_spanner(req, on_move=events.append)
        assert got == spanner_general_path(req) == Triple(frozenset({v}), frozenset({v}), frozenset(), 0)
        assert events == []

    @pytest.mark.parametrize(
        "component, terminals, bound, message",
        [
            ({0}, set(), 1, "terminals must be nonempty"),
            ({0}, {1}, 1, "terminal 1 outside component"),
            ({0}, {0, 1}, 1, "terminal 1 outside component"),
            ({0}, {0}, 0, "bound must be >= 1"),
            ({9}, {9}, 1, "vertex 9 out of range for n=6"),
            ({-1}, {-1}, 1, "vertex -1 out of range for n=6"),
        ],
        ids=["no-terminal", "other-terminal", "extra-terminal", "bound-0", "too-large", "negative"],
    )
    def test_single_vertex_component_errors(self, c6, component, terminals, bound, message):
        # a bad one-vertex request fails as on the general path, before any move
        req = SpannerRequest(c6, frozenset(component), frozenset(terminals), bound)
        events = []
        with pytest.raises(GraphError) as exc:
            build_spanner(req, on_move=events.append)
        assert str(exc.value) == message
        assert outcome(spanner_general_path, req) == (GraphError, message)
        assert events == []

    @pytest.mark.parametrize("hooked", [True, False], ids=["with-events", "without-events"])
    @pytest.mark.parametrize(
        "host, faulty, message, before",
        [
            (gen.grid(1, 6), {4: ()}, "move failed to increase crossing edges", 1),
            (gen.grid(1, 6), {4: (3, 4)}, "move broke the side-component bound", 1),
            (gen.cycle(8), {5: ()}, "move failed to increase crossing edges", 2),
            (gen.cycle(8), {5: (4, 5)}, "move broke the side-component bound", 2),
        ],
        ids=[
            "path-no-edge-into-H",
            "path-neighbor-on-its-side",
            "c8-no-edge-into-H",
            "c8-neighbor-on-its-side",
        ],
    )
    def test_per_move_checks_vouch_for_a_spanner_growth(self, host, faulty, message, before, hooked):
        # terminals {0, 2}: the connector is the path 0-1-2, split {0, 2} | {1},
        # and the growth extends 3 (and on C8 4) before the vertex with a
        # faulty neighbor tuple: an empty one lists no edge into H, one
        # listing the vertex itself puts a neighbor on its new side. Only the
        # per-move checks stand between either and a wrong part; the events
        # before it are those of the sound host, and none comes after
        region, terms = frozenset(range(host.n)), frozenset({0, 2})
        sound = []
        build_spanner(SpannerRequest(host, region, terms, 1), on_move=sound.append)
        events = []
        with pytest.raises(InvariantViolation) as exc:
            build_spanner(SpannerRequest(faulty_host(host, faulty), region, terms, 1),
                          on_move=events.append if hooked else None)
        assert str(exc.value) == message
        assert len(events) == (before if hooked else 0)
        assert [e[:4] for e in events] == [e[:4] for e in sound[: len(events)]]

    def test_move_cap_vouches_for_a_spanner_growth(self):
        # the path 0-1-2 with leaves 3..6 on 2, terminals {0, 2}; tuples that
        # list 0-1 and 2-3..6 one way only. Each extend adds as many edges
        # inside H as crossing edges, so the bound on the moves holds, and all
        # four leaves join side B. But 2 lists no edge, so H is not connected
        # by the host's own walk, and the postcondition refuses the part,
        # with or without the hook
        host = Graph(7, [(0, 1), (1, 2), (2, 3), (2, 4), (2, 5), (2, 6)])
        req = SpannerRequest(faulty_host(host, {1: (2,), 2: ()}), frozenset(range(7)), frozenset({0, 2}), 1)
        events = []
        for on_move in (events.append, None):
            with pytest.raises(InvariantViolation) as exc:
                build_spanner(req, on_move=on_move)
            assert str(exc.value) == "spanner postcondition failed: H is not connected"
        assert [(e.kind, e.move_index, e.cross_after, e.edge_cap) for e in events] == [
            ("extend", i, i + 1, i + 1) for i in (1, 2, 3, 4)
        ]

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
            req = req._replace(bound=req.bound - 1)
        elif kind == "terminal" and outside:
            req = req._replace(terminals=req.terminals | {rng.choice(outside)})
        elif kind == "region":
            req = req._replace(component=req.component - {v})
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

