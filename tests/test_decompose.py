import importlib
import random
import sys
import time
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oddcluster.decompose import (
    Decomposition,
    Part,
    StuckState,
    decompose,
    decomposition_to_json,
    decomposition_violation,
    pick_component,
)
from oddcluster.graph import Graph, GraphError, InvariantViolation, bfs, component_walks, connected_components
from oddcluster.cli import run_color
from oddcluster.graph_io import read_edgelist
from oddcluster.spanner import SpannerRequest
from oddcluster import generators as gen

from conftest import connected_graphs, graphs
from helpers import (
    OddClosedWalk,
    bipartite_growth,
    bipartition_or_odd_cycle,
    build_auxiliary_reference,
    decompose_reference,
    decomposition_violation_reference,
    first_part,
    full_recheck,
    load_workloads,
    maximal_bipartite_part_reference,
    outcome,
    parts_adjacent_reference,
    pick_component_reference,
    random_tree,
    region_walk,
    spanner_general_path,
    spanner_requests,
    sparse_gnp,
    terminals_reference,
    with_records,
)

decompose_module = importlib.import_module("oddcluster.decompose")  # the package exports a function of that name


def uncovered_by(g, parts, pool=None):
    """The region (all of g when pool is None) minus the parts' vertices."""
    region = frozenset(range(g.n)) if pool is None else frozenset(pool)
    return region.difference(*(p.vertices for p in parts))


def pick(g, parts, pool=None):
    """pick_component as decompose calls it after the given parts, with the
    owner map built from scratch and the cursor still at the start of the
    region, so it must skip the covered vertices."""
    region = range(g.n) if pool is None else pool
    owner = {v: i for i, p in enumerate(parts) for v in p.vertices}
    return pick_component(g, uncovered_by(g, parts, pool), deque(sorted(region)), owner, parts)


def check_requests(g, parts, sent, pool=None):
    """Each request holds the reference component after the parts built
    before it, one terminal per part adjacent to it, the least component
    vertex next to that part, and the side bound (k+1)//2. The spanner
    builds the parts of two or more vertices after the first, in order; a
    component of two or more vertices never yields a one-vertex part, as
    its other vertices would then see one side only."""
    built = [p for p in parts[1:] if len(p.vertices) > 1]
    assert len(sent) == len(built)
    for req, p in zip(sent, built):
        comp, adjacent = pick_component_reference(g, parts[: p.index - 1], pool)
        assert req.component == comp and p.vertices <= comp
        assert req.terminals == frozenset(terminals_reference(g, comp, adjacent))
        assert req.bound == (len(req.terminals) + 1) // 2


@st.composite
def graphs_with_pools(draw):
    g = draw(graphs(min_n=1, max_n=14))
    pool = draw(st.one_of(st.none(), st.sets(st.integers(min_value=0, max_value=g.n - 1))))
    return g, pool


@st.composite
def graphs_with_parts(draw):
    """A graph, up to four disjoint parts from random vertex labels, and a pool."""
    g, pool = draw(graphs_with_pools())
    labels = draw(st.lists(st.integers(min_value=-1, max_value=3), min_size=g.n, max_size=g.n))
    parts = []
    for k in range(4):
        vs = frozenset(v for v in range(g.n) if labels[v] == k)
        if vs:
            parts.append(Part(len(parts) + 1, vs, vs, frozenset()))
    return g, parts, pool


def count_growths(monkeypatch):
    """The list of every request maximal_bipartite_part sends refine_triple from now on."""
    sent = []
    real = decompose_module.refine_triple

    def counted(req, start, on_move=None):
        sent.append(req)
        return real(req, start, on_move=on_move)

    monkeypatch.setattr(decompose_module, "refine_triple", counted)
    return sent


def cut_bipartite_piece(g, keep_far):
    """g, which must not be bipartite, and a region cut from it: the growth's
    first part, a bipartite piece; with `keep_far`, plus every vertex that
    has no neighbor in it, so the region holds odd cycles the walk never meets."""
    piece = bipartite_growth(g).vertices
    assert len(piece) < g.n
    if keep_far:
        return g, piece | (frozenset(range(g.n)) - piece - g.neighborhood(piece))
    return g, piece


def benchmark_graph(name, index=0):
    return read_edgelist(load_workloads().build(name, 0)[index][0])


BIPARTITE_REGION_CASES = {
    "grid-workload": lambda: (benchmark_graph("grid_bipartite"), None),
    **{
        f"connected-bipartite-2000-p{p}": lambda p=p: (gen.connected_bipartite(2000, p, 1), None)
        for p in (0.001, 0.005, 0.02)
    },
    "tree-3000": lambda: (random_tree(3000, 2), None),
    "even-cycle-1000": lambda: (gen.cycle(1000), None),
    "sparse-gnp-workload-piece": lambda: cut_bipartite_piece(benchmark_graph("sparse_gnp"), False),
    "sparse-gnp-workload-piece-and-far": lambda: cut_bipartite_piece(benchmark_graph("sparse_gnp"), True),
    "dense-batch-piece": lambda: cut_bipartite_piece(benchmark_graph("dense_batch", 1), False),
    "dense-batch-piece-and-far": lambda: cut_bipartite_piece(benchmark_graph("dense_batch", 1), True),
}


class TestMaximalBipartitePart:
    def test_bipartite_graph_is_swallowed_whole(self, c6):
        part = first_part(c6)
        assert part.vertices == frozenset(range(6))
        assert part.side_a == frozenset({0, 2, 4})

    def test_c5_stops_at_path(self, c5):
        part = first_part(c5)
        assert part.vertices == frozenset({0, 1, 2, 3})
        assert (part.side_a, part.side_b) == (frozenset({0, 2}), frozenset({1, 3}))

    def test_triangle(self):
        part = first_part(gen.complete(3))
        assert part.vertices == frozenset({0, 1})

    @given(connected_graphs(max_n=12))
    @settings(max_examples=60)
    def test_result_is_maximal(self, g):
        part = first_part(g)
        color = {v: (1 if v in part.side_b else 0) for v in part.vertices}
        for u, v in g.edges():
            if u in color and v in color:
                assert color[u] != color[v]
        # no neighbor of the part can join while keeping one side clean
        for v in sorted(frozenset(range(g.n)) - part.vertices):
            touched = frozenset(g.neighbors(v)) & part.vertices
            if touched:
                assert {color[u] for u in touched} == {0, 1}

    @given(graphs_with_pools())
    @settings(max_examples=300)
    def test_matches_reference(self, case):
        g, pool = case
        assert outcome(first_part, g, pool) == outcome(maximal_bipartite_part_reference, g, pool)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_on_larger_graphs(self, seed):
        rng = random.Random(seed)
        g = gen.connected_gnp(300, rng.uniform(0.005, 0.03), seed)
        for pool in (None, frozenset(v for v in range(g.n) if rng.random() < 0.7)):
            assert first_part(g, pool) == maximal_bipartite_part_reference(g, pool)

    @pytest.mark.parametrize(
        "host, faulty, nbrs, message",
        [
            (gen.grid(1, 3), 1, (), "move failed to increase crossing edges"),
            (gen.grid(1, 3), 1, (0, 1), "move broke the side-component bound"),
            (gen.cycle(6), 2, (), "move failed to increase crossing edges"),
            (gen.cycle(6), 2, (1, 2, 3), "move broke the side-component bound"),
            (gen.grid(3, 3), 4, (), "move failed to increase crossing edges"),
            (gen.grid(3, 3), 4, (1, 3, 4, 5, 7), "move broke the side-component bound"),
        ],
        ids=[
            "no-edge-into-H",
            "neighbor-on-its-side",
            "c6-depth-2-no-edge-into-H",
            "c6-depth-2-neighbor-on-its-side",
            "grid-3x3-depth-2-no-edge-into-H",
            "grid-3x3-depth-2-neighbor-on-its-side",
        ],
    )
    def test_per_move_checks_vouch_for_part_1(self, host, faulty, nbrs, message):
        # a bipartite region with a faulty neighbor tuple for one vertex: the
        # path 0-1-2's first extend, or a vertex at depth 2. An empty tuple
        # lists no edge into H, which the 2-coloring walk checks itself; a
        # tuple listing the vertex itself is an edge inside its level, which
        # hands over to the growth, whose extend then fails the bound. The
        # recheck does not walk part 1, so these checks alone catch either,
        # also when run_color hands decompose the walk that found the piece.
        class Faulty(Graph):
            def neighbors(self, v):
                return nbrs if v == faulty else super().neighbors(v)

        g = Faulty(host.n, host.edges())
        for call in (first_part, lambda g: decompose(g, 4, region_walk(g)), lambda g: run_color(g, 4)):
            with pytest.raises(InvariantViolation) as exc:
                call(g)
            assert str(exc.value) == message

    @pytest.mark.parametrize("region", BIPARTITE_REGION_CASES.values(), ids=list(BIPARTITE_REGION_CASES))
    def test_bipartite_region_is_one_walk(self, monkeypatch, region):
        # at benchmark size, the 2-coloring walk gives the growth's part,
        # and the growth does not run
        g, pool = region()
        growths = count_growths(monkeypatch)
        part = first_part(g, pool)
        assert part == bipartite_growth(g, pool)
        assert growths == []
        assert not isinstance(bipartition_or_odd_cycle(g, part.vertices), OddClosedWalk)

    @pytest.mark.parametrize("region", BIPARTITE_REGION_CASES.values(), ids=list(BIPARTITE_REGION_CASES))
    def test_bipartite_region_needs_no_pick(self, monkeypatch, region):
        # decompose on the region's bipartite piece, all of it but for any
        # far vertices: part 1 covers it, and no component is picked
        g, pool = region()
        part = first_part(g, pool)
        picks = []
        real = decompose_module.pick_component
        monkeypatch.setattr(decompose_module, "pick_component", lambda *args: picks.append(args) or real(*args))
        for t in (3, 4, 6):
            assert decompose(g, t, region_walk(g, part.vertices)) == Decomposition(t, (part,))
        assert picks == []

    def test_odd_cycle_runs_the_growth(self, monkeypatch):
        # K3 and every input of the benchmark's dense batch: the walk meets
        # an edge inside a level, and the growth runs once from scratch
        graphs = [gen.complete(3)] + [read_edgelist(text) for text, _ in load_workloads().build("dense_batch", 0)]
        growths = count_growths(monkeypatch)
        for g in graphs:
            assert first_part(g) == bipartite_growth(g)
        assert len(growths) == len(graphs)


class TestPickComponent:
    def test_k5_after_first_part(self, k5):
        first = first_part(k5)
        assert pick(k5, [first]) == (frozenset({2, 3, 4}), [first])

    def test_lowest_vertex_component_first(self):
        g = Graph(5, [(0, 1), (2, 3)])
        part = Part(1, frozenset({0, 1}), frozenset({0}), frozenset({1}))
        assert pick(g, [part]) == (frozenset({2, 3}), [])

    def test_terminal_per_adjacent_part(self):
        # path 0-1-2-3-4-5-6: parts {0} and {6}, component {1..5} next to
        # both; its terminals are checked on the requests decompose sends
        g = Graph(7, [(i, i + 1) for i in range(6)])
        parts = [Part(1, frozenset({0}), frozenset({0}), frozenset()),
                 Part(2, frozenset({6}), frozenset({6}), frozenset())]
        assert pick(g, parts) == pick_component_reference(g, parts) == (frozenset(range(1, 6)), parts)

    def test_isolated_vertex_next_to_several_parts(self):
        # 3, the minimum uncovered vertex, has no uncovered neighbor: 0, 2
        # and 5 lie in parts 1, 2 and 3, and 7 is outside the region; the
        # other uncovered vertex, 4, sees parts 2 and 4
        g = Graph(8, [(0, 3), (2, 3), (3, 5), (3, 7), (1, 2), (1, 4), (4, 6)])
        parts = [Part(k + 1, frozenset(vs), frozenset(vs), frozenset()) for k, vs in enumerate([{0}, {1, 2}, {5}, {6}])]
        pool = set(range(7))
        assert pick(g, parts, pool) == pick_component_reference(g, parts, pool) == (frozenset({3}), parts[:3])

    def test_all_covered_rejected(self, c6):
        part = first_part(c6)
        with pytest.raises(GraphError, match="cover"):
            pick(c6, [part])

    @given(graphs_with_parts())
    @settings(max_examples=300)
    def test_matches_reference_on_random_parts(self, case):
        g, parts, pool = case
        assert outcome(pick, g, parts, pool) == outcome(pick_component_reference, g, parts, pool)

    @pytest.mark.parametrize("t", [3, 4, 5])
    @given(g=connected_graphs(max_n=20))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_on_decomposition_prefixes(self, t, g):
        with spanner_requests() as sent:
            parts = decompose(g, t, region_walk(g)).parts
        check_requests(g, parts, sent)
        for k in range(1, len(parts) + 1):
            prefix = parts[:k]
            assert outcome(pick, g, prefix) == outcome(pick_component_reference, g, prefix)

    @pytest.mark.parametrize("seed", range(4))
    def test_terminals_match_the_scan_on_larger_graphs(self, seed):
        # every prefix of n=150 runs at t=3..6, whole and on a connected sub-region
        rng = random.Random(seed)
        g = gen.connected_gnp(150, rng.uniform(0.01, 0.04), seed)
        sub = frozenset(bfs(g, 0, frozenset(v for v in range(g.n) if rng.random() < 0.7) | {0}))
        for pool in (None, sub):
            with spanner_requests() as sent:
                parts = decompose(g, 3 + seed, region_walk(g, pool)).parts
            check_requests(g, parts, sent, pool)
            for k in range(1, len(parts) + 1):
                prefix = parts[:k]
                assert outcome(pick, g, prefix, pool) == outcome(pick_component_reference, g, prefix, pool)


@pytest.mark.parametrize("name, singles", [("sparse_gnp", 152), ("dense_batch", 1294)])
def test_one_vertex_components_on_benchmark_inputs(monkeypatch, name, singles):
    # Over the seed-0 benchmark requests, decomposed per component as
    # run_color does, every pick equals the reference pick, every spanner
    # request passes check_requests, so none is of one vertex, and decompose
    # makes each one-vertex pick the part the general path builds; `singles`
    # pins how many there are.
    real_pick = decompose_module.pick_component
    picked = set()  # the vertex of each one-vertex pick of the current run

    def checked_pick(g, uncovered, pending, owner, parts):
        got = real_pick(g, uncovered, pending, owner, parts)
        assert got == pick_component_reference(g, parts, uncovered | owner.keys())
        if len(got[0]) == 1:
            picked.update(got[0])
        return got

    monkeypatch.setattr(decompose_module, "pick_component", checked_pick)
    made = 0
    for text, t in load_workloads().build(name, 0):
        g = read_edgelist(text)
        for walk in component_walks(g):
            picked.clear()
            with spanner_requests() as sent:
                outcome = decompose(g, t, walk)
            check_requests(g, outcome.parts, sent, walk.piece)
            singles_made = [p for p in outcome.parts[1:] if len(p.vertices) == 1]
            for p in singles_made:
                assert p.vertices <= picked
                h, a, b, _ = spanner_general_path(SpannerRequest(g, p.vertices, p.vertices, 1))
                assert (p.vertices, p.side_a, p.side_b) == (h, a, b)
            made += len(singles_made)
            if isinstance(outcome, StuckState):
                break
    assert made == singles


def test_terminals_scanned_only_for_spanner_parts(monkeypatch):
    # K6 at t=3 builds parts {0,1} and {2,3}, then gets stuck on {4,5},
    # which touches both: one scan, for part 2's single terminal
    calls = []
    real = decompose_module.touching

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(decompose_module, "touching", counted)
    k6 = gen.complete(6)
    outcome = decompose(k6, 3, region_walk(k6))
    assert isinstance(outcome, StuckState) and outcome.component == frozenset({4, 5})
    assert [p.vertices for p in outcome.parts] == [frozenset({0, 1}), frozenset({2, 3})]
    assert len(calls) == 1


# Disconnected regions: the region's walk from its minimum vertex reaches
# only that vertex's piece, and decompose runs on that piece alone.
DISCONNECTED_REGIONS = [
    pytest.param(
        # the triangle {0, 2, 3} and the stray edge 1-4: the walk from 0
        # reaches the triangle only, covered by the parts {0, 2} and {3}
        Graph(5, [(0, 2), (0, 3), (2, 3), (1, 4)]), 3, None,
        id="stray-piece-picked-first",
    ),
    pytest.param(
        # K5 and the stray edge 5-6: the walk from 0 reaches K5 only, which
        # gets stuck at t=3 on {4}
        Graph(7, [*gen.complete(5).edges(), (5, 6)]), 3, None,
        id="root-piece-stuck-first",
    ),
    pytest.param(
        # the same, as a sub-region that leaves out vertex 7, the only link
        Graph(8, [*gen.complete(5).edges(), (5, 6), (4, 7), (6, 7)]), 3, set(range(7)),
        id="root-piece-stuck-first-in-a-sub-region",
    ),
]


# K5 gets stuck at t=3 on {4} after the parts {0,1} and {2,3}. Two other
# pieces are left uncovered: {5}, next to part 1, and {6,7}, whose minimum
# sees no part but whose 7 sees part 2.
K5_AND_TWO_PIECES = [*gen.complete(5).edges(), (0, 5), (1, 5), (6, 7), (2, 7), (3, 7)]
PIECES_THAT_TOUCH_PARTS = [
    pytest.param(Graph(8, K5_AND_TWO_PIECES), None, id="whole-graph"),
    # vertex 8, outside the sub-region, hangs off 4
    pytest.param(Graph(9, K5_AND_TWO_PIECES + [(4, 8)]), set(range(8)), id="sub-region"),
    # the stray edge 8-9 is linked to 4 through 10
    pytest.param(Graph(11, K5_AND_TWO_PIECES + [(8, 9), (9, 10), (4, 10)]), None, id="long-stuck-component"),
]
A_PIECE_THAT_TOUCHES_NO_PART = [
    pytest.param(Graph(10, K5_AND_TWO_PIECES + [(8, 9)]), None, id="whole-graph"),
    # vertex 10, the only link of the stray edge, is left out
    pytest.param(Graph(11, K5_AND_TWO_PIECES + [(8, 9), (9, 10), (4, 10)]), set(range(10)), id="sub-region"),
]


def at_t3(cases, prefix):
    """The (g, within) cases as (g, 3, within), their ids prefixed."""
    return [pytest.param(p.values[0], 3, p.values[1], id=prefix + p.id) for p in cases]


def k5_and_thousands_of_pieces():
    """K5 plus 20,000 vertices next to 0 and 1: at t=3 a run gets stuck on
    {4} and leaves 20,000 singleton pieces, each touching part 1."""
    n = 20_005
    return Graph(n, [*gen.complete(5).edges(), *((v, u) for u in range(5, n) for v in (0, 1))])


def for_each_region(cases):
    """A Hypothesis @example(case=(g, within)) for each (g, ..., within) case."""
    def add(test):
        for p in cases:
            test = example(case=(p.values[0], p.values[-1]))(test)
        return test
    return add


class TestStuckRegionWalk:
    """A stuck run walks none of the uncovered vertices outside its
    component: its region is the piece of the walk it is given, connected as
    walked."""

    @pytest.mark.parametrize("g, within", PIECES_THAT_TOUCH_PARTS)
    def test_pieces_that_touch_parts_keep_the_stuck_state(self, g, within):
        stuck = decompose(g, 3, region_walk(g, within))
        assert isinstance(stuck, StuckState)
        assert [sorted(p.vertices) for p in stuck.parts] == [[0, 1], [2, 3]]
        assert 4 in stuck.component and [p.index for p in stuck.adjacent_parts] == [1, 2]

    @pytest.mark.parametrize(
        "g, within",
        [
            pytest.param(gen.complete(5), None, id="k5"),
            *PIECES_THAT_TOUCH_PARTS,
            pytest.param(k5_and_thousands_of_pieces(), None, id="k5-and-thousands-of-pieces"),
        ],
    )
    def test_a_stuck_run_walks_only_its_picks(self, monkeypatch, g, within):
        # every BFS of the run is a pick's walk of its component: none
        # walks the leftover pieces
        callers = []
        real = decompose_module.bfs

        def traced(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(*args)

        monkeypatch.setattr(decompose_module, "bfs", traced)
        assert isinstance(decompose(g, 3, region_walk(g, within)), StuckState)
        assert callers and set(callers) == {"pick_component"}

    @pytest.mark.parametrize("t", [3, 4, 5])
    @given(case=graphs_with_pools())
    @for_each_region(DISCONNECTED_REGIONS + A_PIECE_THAT_TOUCHES_NO_PART)
    @settings(max_examples=200, deadline=None)
    def test_a_region_is_decomposed_inside_its_walk(self, t, case):
        # connected or not: a completed run covers exactly the piece of the
        # region's walk from its minimum vertex, and a stuck one stops inside it
        g, pool = case
        if pool is not None and not pool:  # an empty region has no walk
            return
        walk = region_walk(g, pool)
        result = decompose(g, t, walk)
        covered = frozenset().union(*(p.vertices for p in result.parts))
        if isinstance(result, Decomposition):
            assert covered == walk.piece
        else:
            assert covered.isdisjoint(result.component) and covered | result.component <= walk.piece

    def test_thousands_of_pieces_take_one_walk(self):
        # The walk of the region visits each vertex once, and the stuck run
        # walks none of the 20,000 leftover pieces, so the walk and the run
        # take a few component walks of the graph; a walk that copied the
        # rest of the uncovered vertices once per piece would take about 150.
        g = k5_and_thousands_of_pieces()

        def best_of_3(f, *args):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                out = f(*args)
                times.append(time.perf_counter() - start)
            return out, min(times)

        stuck, run = best_of_3(lambda g: decompose(g, 3, region_walk(g)), g)
        _, walk = best_of_3(connected_components, g)
        assert isinstance(stuck, StuckState) and stuck.component == {4}
        assert [sorted(p.vertices) for p in stuck.parts] == [[0, 1], [2, 3]]
        assert run < 40 * walk


class TestDecomposeAgainstReference:
    """decompose on a region's walk against decompose_reference, the version
    that took the region and proved it connected lazily, on the walk's
    piece: the same result or the same error, message included."""

    @pytest.mark.parametrize("t", [3, 4, 5, 6])
    @given(case=graphs_with_pools())
    @settings(max_examples=150, deadline=None)
    def test_random_regions(self, t, case):
        g, pool = case
        if pool is not None and not pool:  # an empty region has no walk
            return
        walk = region_walk(g, pool)
        assert outcome(decompose, g, t, walk) == outcome(decompose_reference, g, t, walk.piece)

    @pytest.mark.parametrize(
        "g, t, within",
        DISCONNECTED_REGIONS
        + at_t3(PIECES_THAT_TOUCH_PARTS, "k5-touch-")
        + at_t3(A_PIECE_THAT_TOUCHES_NO_PART, "k5-refused-"),
    )
    def test_hand_built_regions(self, g, t, within):
        walk = region_walk(g, within)
        assert outcome(decompose, g, t, walk) == outcome(decompose_reference, g, t, walk.piece)

    @pytest.mark.parametrize("seed", [0, 13])
    def test_every_dense_batch_component(self, seed):
        # each component by itself, walked as a region and as run_color hands it over
        for text, t in load_workloads().build("dense_batch", seed):
            g = read_edgelist(text)
            for walk in component_walks(g):
                expected = outcome(decompose_reference, g, t, walk.piece)
                assert outcome(decompose, g, t, region_walk(g, walk.piece)) == expected
                assert outcome(decompose, g, t, walk) == expected


class TestDecompose:
    def test_c6_single_part(self, c6):
        outcome = decompose(c6, 3, region_walk(c6))
        assert isinstance(outcome, Decomposition)
        assert len(outcome.parts) == 1
        assert outcome.parts[0].vertices == frozenset(range(6))

    def test_k5_gets_stuck(self, k5):
        outcome = decompose(k5, 3, region_walk(k5))
        assert isinstance(outcome, StuckState)
        assert [sorted(p.vertices) for p in outcome.parts] == [[0, 1], [2, 3]]
        assert outcome.component == frozenset({4})
        assert [p.index for p in outcome.adjacent_parts] == [1, 2]

    def test_k4_completes_without_certifying_anything(self, k4):
        # completion never claims the graph is odd-minor free
        outcome = decompose(k4, 3, region_walk(k4))
        assert isinstance(outcome, Decomposition)
        assert [sorted(p.vertices) for p in outcome.parts] == [[0, 1], [2, 3]]

    def test_a_missing_record_trips_the_pairwise_check(self, monkeypatch, k5):
        # parts built without records: the stuck component {3, 4} sees parts 1 and 2 as apart
        monkeypatch.setattr(decompose_module, "Part", lambda *fields: Part(*fields[:4]))
        with pytest.raises(InvariantViolation) as exc:
            decompose(k5, 3, region_walk(k5))
        assert str(exc.value) == "adjacent parts 1 and 2 are not pairwise adjacent"

    def test_small_t_rejected(self, c6):
        with pytest.raises(GraphError):
            decompose(c6, 2, region_walk(c6))

    def test_region_restriction(self, k5):
        outcome = decompose(k5, 4, region_walk(k5, {2, 3, 4}))
        assert isinstance(outcome, Decomposition)
        covered = set()
        for p in outcome.parts:
            covered |= p.vertices
        assert covered == {2, 3, 4}

    @pytest.mark.parametrize("t", [3, 4, 5])
    @given(g=connected_graphs(max_n=20))
    @settings(max_examples=80, deadline=None)
    def test_outcome_invariants(self, t, g):
        outcome = decompose(g, t, region_walk(g))
        if isinstance(outcome, Decomposition):
            assert full_recheck(g, outcome) is None
        else:
            assert len(outcome.adjacent_parts) >= t - 1
            for i, p in enumerate(outcome.adjacent_parts):
                assert any(frozenset(g.neighbors(v)) & p.vertices for v in outcome.component)
                for q in outcome.adjacent_parts[i + 1 :]:
                    assert parts_adjacent_reference(g, p, q)
            # a stuck run is never rechecked: its records are checked here
            assert outcome.parts == with_records(g, outcome.parts)

    @given(connected_graphs(max_n=20))
    @settings(max_examples=40, deadline=None)
    def test_connected_bipartite_always_one_part(self, g):
        if isinstance(bipartition_or_odd_cycle(g, range(g.n)), OddClosedWalk):
            return
        outcome = decompose(g, 3, region_walk(g))
        assert isinstance(outcome, Decomposition)
        assert len(outcome.parts) == 1


def split_part(index, side_a, side_b, earlier=()):
    a, b = frozenset(side_a), frozenset(side_b)
    return Part(index, a | b, a, b, frozenset(earlier))


PATH3 = Graph(3, [(0, 1), (1, 2)])
PATH4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
# two disjoint edges and a hub that sees both sides of each
TWO_EDGES_AND_HUB = Graph(5, [(0, 1), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)])
HUB_PARTS = (split_part(1, {0}, {1}), split_part(2, {2}, {3}), split_part(3, {4}, ()))
# Tie-breaks. Parts 1-3 are the edges {0,1}, {2,3}, {4,5}, one vertex a side.
# Vertex 6 misses side B of part 2, while the component {4,5,6} touches
# parts 1 and 2: both fail at prefix 2, and the side check comes first,
# although the component's minimum vertex is smaller.
SIDE_AND_COMPONENT = Graph(7, [(0, 1), (2, 3), (4, 5), (0, 4), (1, 4), (2, 4), (3, 4), (2, 6), (4, 6), (5, 6)])
SIDE_AND_COMPONENT_PARTS = (
    split_part(1, {0}, {1}), split_part(2, {2}, {3}), split_part(3, {4}, {5}), split_part(4, {6}, ()),
)
# After prefix 3, the parts {6,9} and {7,8} are two components. Through 9,
# {6,9} touches parts 2 and 3, and through 8, {7,8} touches parts 1 and 3;
# neither pair is adjacent. The smaller minimum vertex wins, although {6,9}
# has the larger maximum and neither component's minimum touches a part.
TWO_COMPONENTS_EDGES = [
    (0, 1), (2, 3), (4, 5), (6, 9), (7, 8),
    (2, 9), (3, 9), (4, 9), (5, 9), (0, 8), (1, 8), (4, 8), (5, 8),
]
TWO_COMPONENTS = Graph(10, TWO_COMPONENTS_EDGES + [(0, 2), (1, 2)])
TWO_COMPONENTS_PARTS = SIDE_AND_COMPONENT_PARTS[:3] + (split_part(4, {6}, {9}), split_part(5, {7}, {8}))
# The same, with vertex 10 missing side B of part 1: prefix 1 beats prefix 3.
PREFIXES_1_AND_3 = Graph(11, TWO_COMPONENTS_EDGES + [(0, 2), (1, 2), (0, 10)])
PREFIXES_1_AND_3_PARTS = TWO_COMPONENTS_PARTS + (split_part(6, {10}, ()),)
# Without the edges between parts 1 and 2, the component {4,...,9} after
# prefix 2 touches both: prefix 2 beats the two failures at prefix 3.
PREFIXES_2_AND_3 = Graph(10, TWO_COMPONENTS_EDGES)
PART_FAULTS = (
    "part 1: not connected", "part 1: same-side component exceeds 1", "part 1: crossing subgraph disconnected",
)


@pytest.mark.parametrize(
    "g, d, message",
    [
        (PATH3, Decomposition(3, (split_part(2, {0, 2}, {1}),)), "part at position 0 has index 2"),
        (
            PATH3,
            Decomposition(3, (Part(1, frozenset({0, 1, 2}), frozenset({0}), frozenset({1})),)),
            "part 1: sides do not partition its vertices",
        ),
        (
            PATH3,
            Decomposition(3, (split_part(1, {0, 2}, {1}), split_part(2, {2}, ()))),
            "part 2: overlaps an earlier part",
        ),
        (
            PATH3,
            Decomposition(3, (split_part(1, {0}, {2}), split_part(2, {1}, ()))),
            "part 1: not connected",
        ),
        (PATH3, Decomposition(3, (split_part(1, {0, 1}, {2}),)), "part 1: same-side component exceeds 1"),
        (
            PATH4,
            Decomposition(5, (split_part(1, {0, 3}, {1, 2}),)),
            "part 1: crossing subgraph disconnected",
        ),
        (PATH4, Decomposition(3, (split_part(1, {0, 2}, {1}),)), "parts do not cover the region"),
        (
            PATH4,
            Decomposition(3, (split_part(1, {0, 2}, {1}), split_part(2, {3}, ()))),
            "vertex 3 adjacent to part 1 misses a side",
        ),
        (TWO_EDGES_AND_HUB, Decomposition(3, HUB_PARTS), "a component after part 2 touches 2 parts"),
        (
            TWO_EDGES_AND_HUB,
            Decomposition(4, HUB_PARTS),
            "parts 1 and 2 touch one component but are not adjacent",
        ),
        (
            SIDE_AND_COMPONENT,
            Decomposition(3, SIDE_AND_COMPONENT_PARTS),
            "vertex 6 adjacent to part 2 misses a side",
        ),
        (
            TWO_COMPONENTS,
            Decomposition(4, TWO_COMPONENTS_PARTS),
            "parts 2 and 3 touch one component but are not adjacent",
        ),
        (
            PREFIXES_1_AND_3,
            Decomposition(4, PREFIXES_1_AND_3_PARTS),
            "vertex 10 adjacent to part 1 misses a side",
        ),
        (
            PREFIXES_2_AND_3,
            Decomposition(4, TWO_COMPONENTS_PARTS),
            "parts 1 and 2 touch one component but are not adjacent",
        ),
        (
            # clean but for part 2, which records itself in place of part 1
            gen.complete(4),
            Decomposition(3, (split_part(1, {0}, {1}), split_part(2, {2}, {3}, earlier={2}))),
            "part 2: recorded earlier parts differ from those it touches",
        ),
    ],
    ids=[
        "index",
        "partition",
        "overlap",
        "disconnected-part",
        "side-component",
        "crossing-subgraph",
        "cover",
        "misses-side",
        "too-many-parts",
        "non-adjacent-parts",
        "side-check-before-component-at-one-prefix",
        "smaller-component-minimum-at-one-prefix",
        "side-miss-at-prefix-1-before-prefix-3",
        "component-at-prefix-2-before-prefix-3",
        "wrong-record",
    ],
)
def test_tampered_decomposition_rejected(g, d, message):
    # a fault in a part's own guarantees is caught where decompose builds the
    # part, so only the test-side part checks before the recheck report it
    check = full_recheck if message in PART_FAULTS else decomposition_violation
    assert check(g, d) == message
    assert decomposition_violation_reference(g, d) == message


def carve_bipartite_pieces(g, region, rng):
    """Cut `region` into parts that pass the per-part checks at any t >= 3:
    each grows from a random start, in BFS order, by vertices whose
    neighbors in the part all lie on one side, up to four vertices. Each
    part gets the record of its earlier neighbors that decompose would give."""
    left = set(region)
    parts = []
    while left:
        start = rng.choice(sorted(left))
        size = rng.randint(1, 4)
        side = {start: 0}
        for v in bfs(g, start, left):
            sides = {side[w] for w in frozenset(g.neighbors(v)) if w in side}
            if len(side) < size and len(sides) == 1:
                side[v] = 1 - sides.pop()
        vertices = frozenset(side)
        a = frozenset(v for v in vertices if side[v] == 0)
        parts.append(Part(len(parts) + 1, vertices, a, vertices - a))
        left -= vertices
    return with_records(g, parts)


def edge_pair_case(rng):
    """Parts {2i, 2i+1}, one vertex a side. Each vertex may join both ends of
    an earlier part, now and then only one, so the side checks mostly pass
    and the component checks decide."""
    k = rng.randint(2, 10)
    density = rng.uniform(0.05, 0.4)
    edges = [(2 * i, 2 * i + 1) for i in range(k)]
    for j in range(1, k):
        for v in (2 * j, 2 * j + 1):
            for i in range(j):
                if rng.random() < density:
                    edges += [(2 * i, v)] + ([(2 * i + 1, v)] if rng.random() < 0.95 else [])
    g = Graph(2 * k, edges)
    parts = with_records(g, (split_part(i + 1, {2 * i}, {2 * i + 1}) for i in range(k)))
    return g, Decomposition(rng.randint(3, 6), parts), None


def connected_subregion(g, rng):
    """A BFS prefix from a random vertex: it induces a connected subgraph."""
    order = list(bfs(g, rng.randrange(g.n), frozenset(range(g.n))))
    return frozenset(order[: rng.randint(1, len(order))])


def recheck_case(kind, rng):
    """(graph, decomposition, region) to recheck: a clean decompose output
    rechecked at its own t or a smaller one, a quarter of them with one
    index added to or dropped from one part's record, a random carving, or
    edge-pair parts. About a third of the graph cases use a connected
    sub-region."""
    if kind == "edge-pairs":
        return edge_pair_case(rng)
    n = rng.randint(1, 18)
    g = gen.connected_gnp(n, rng.uniform(0.1, 0.6), rng.randrange(10**6))
    region = connected_subregion(g, rng) if rng.random() < 0.35 else None
    if kind == "carving":
        parts = carve_bipartite_pieces(g, range(g.n) if region is None else region, rng)
        return g, Decomposition(rng.randint(3, 6), parts), region
    t = rng.randint(3, 6)
    d = decompose(g, t, region_walk(g, region))
    if not isinstance(d, Decomposition):
        return None
    t, parts = rng.randint(3, t), d.parts
    if rng.random() < 0.25:
        i = rng.randrange(len(parts))
        wrong = parts[i]._replace(earlier=parts[i].earlier ^ {rng.randint(1, len(parts))})
        parts = parts[:i] + (wrong,) + parts[i + 1 :]
    return g, Decomposition(t, parts), region


RECHECK_KINDS = ("decomposition", "carving", "edge-pairs")


class TestRecheckAgainstReference:
    @given(kind=st.sampled_from(RECHECK_KINDS), rng=st.randoms(use_true_random=False))
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, kind, rng):
        case = recheck_case(kind, rng)
        if case is not None:
            assert full_recheck(*case) == decomposition_violation_reference(*case)

    def test_sweep_reaches_every_prefix_message(self):
        reached = set()
        for seed in range(600):
            case = recheck_case(RECHECK_KINDS[seed % 3], random.Random(seed))
            if case is None:
                continue
            expected = decomposition_violation_reference(*case)
            assert full_recheck(*case) == expected, seed
            reached.add(expected and expected.split()[0])
        # None, then the side check, the part count and the part pair
        assert {None, "vertex", "a", "parts"} <= reached

    @given(g=graphs(min_n=1, max_n=12), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_on_random_splits(self, g, data):
        # parts from random labels, each split at random: the per-part checks
        # (connected, same-side bound, crossing subgraph) fail in every order
        labels = data.draw(st.lists(st.integers(min_value=0, max_value=3), min_size=g.n, max_size=g.n))
        in_a = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
        parts = []
        for k in range(4):
            vs = frozenset(v for v in range(g.n) if labels[v] == k)
            if vs:
                a = frozenset(v for v in vs if in_a[v])
                parts.append(Part(len(parts) + 1, vs, a, vs - a))
        d = Decomposition(data.draw(st.integers(min_value=3, max_value=6)), with_records(g, parts))
        assert full_recheck(g, d) == decomposition_violation_reference(g, d)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference_on_larger_graphs(self, seed):
        rng = random.Random(seed)
        g = gen.connected_gnp(150, rng.uniform(0.02, 0.06), seed)
        for region in (None, connected_subregion(g, rng)):
            d = decompose(g, 6, region_walk(g, region))
            assert isinstance(d, Decomposition)
            for t in range(3, 7):
                case = (g, Decomposition(t, d.parts), region)
                assert full_recheck(*case) == decomposition_violation_reference(*case)


def flip_vertex(p, v):
    """Part p with vertex v moved to its other side."""
    if v in p.side_a:
        return p._replace(side_a=p.side_a - {v}, side_b=p.side_b | {v})
    return p._replace(side_a=p.side_a | {v}, side_b=p.side_b - {v})


@pytest.fixture(scope="module")
def benchmark_size_decomposition():
    """The size of the benchmark's sparse_gnp workload: n=3000, average degree 6, t=4."""
    g = gen.connected_gnp(3000, 6 / 2999, 0)
    d = decompose(g, 4, region_walk(g))
    assert isinstance(d, Decomposition) and len(d.parts) > 100
    return g, d


def benchmark_size_case(d, kind):
    """The decomposition rechecked as is or at t=3, or tampered with."""
    if kind == "clean":
        return d
    if kind == "t=3":
        return Decomposition(3, d.parts)
    if kind == "late-vertex-flipped":  # in the last part with two vertices or more
        i = max(i for i, p in enumerate(d.parts) if len(p.vertices) > 1)
        flipped = flip_vertex(d.parts[i], min(d.parts[i].vertices))
        return Decomposition(d.t, d.parts[:i] + (flipped,) + d.parts[i + 1 :])
    if kind == "late-part-dropped":
        return Decomposition(d.t, d.parts[:-1])
    if kind == "records-corrupted":  # parts 100 and l: each record gains or loses part 1
        return Decomposition(d.t, tuple(
            p._replace(earlier=p.earlier ^ {1}) if p.index in (100, len(d.parts)) else p for p in d.parts
        ))
    # parts 2 and 3 swapped: the only check left to fail is a side check
    p2, p3 = d.parts[1:3]
    return Decomposition(d.t, (d.parts[0], p3._replace(index=2), p2._replace(index=3)) + d.parts[3:])


class TestRecheckAtBenchmarkSize:
    @pytest.mark.parametrize(
        "kind, message",
        [
            ("clean", None),
            ("t=3", "a component after part 2 touches 2 parts"),
            ("late-vertex-flipped", "part 166: same-side component exceeds 1"),
            ("late-part-dropped", "parts do not cover the region"),
            ("records-corrupted", "part 100: recorded earlier parts differ from those it touches"),
            ("parts-2-and-3-swapped", "vertex 967 adjacent to part 2 misses a side"),
        ],
    )
    def test_matches_reference(self, benchmark_size_decomposition, kind, message):
        g, d = benchmark_size_decomposition
        case = benchmark_size_case(d, kind)
        assert full_recheck(g, case) == decomposition_violation_reference(g, case) == message

    def test_grid_matches_reference(self):
        g = gen.grid(100, 100)
        d = decompose(g, 4, region_walk(g))
        assert len(d.parts) == 1
        flipped = Decomposition(4, (flip_vertex(d.parts[0], 5050),))
        for case, message in ((d, None), (flipped, "part 1: same-side component exceeds 1")):
            assert full_recheck(g, case) == decomposition_violation_reference(g, case) == message


def assert_records_match_reference(g, d):
    """Each part's record `earlier` names its earlier neighbors in the part
    graph that build_auxiliary_reference reads off every edge of g."""
    aux = build_auxiliary_reference(g, d)
    for pos, p in enumerate(d.parts):
        assert p.earlier == {q + 1 for q in aux.neighbors(pos) if q < pos}, p.index


class TestRecheckOfSpannerParts:
    """decompose rechecks its parts without the part-local checks made where
    each was built: refine_triple's per-move checks or the 2-coloring walk
    on part 1, the partition check on a one-vertex part, build_spanner's
    triple_violation on the rest. The tests run those checks on every part
    of every output, by full_recheck, before the recheck."""

    @pytest.mark.parametrize(
        "g, t, part, message",
        [
            # part 2 is {3}; part 1 has the same-side edge 0-1
            (PATH4, 3, split_part(1, {0, 1}, {2}), "part 1: same-side component exceeds 1"),
            # part 2 is {4}; part 1's crossing edges 0-1 and 2-3 are two pieces
            (
                Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), 5, split_part(1, {0, 3}, {1, 2}),
                "part 1: crossing subgraph disconnected",
            ),
        ],
        ids=["oversize-side", "disconnected-crossing-subgraph"],
    )
    def test_bad_first_part_fails_the_recheck(self, g, t, part, message):
        d = Decomposition(t, (part, split_part(2, {g.n - 1}, (), earlier={1})))
        assert full_recheck(g, d) == decomposition_violation_reference(g, d) == message

    @pytest.mark.parametrize(
        "parts, message",
        [
            ((split_part(1, {0}, {1}), split_part(3, {2}, {3})), "part at position 1 has index 3"),
            (
                (split_part(1, {0}, {1}), Part(2, frozenset({2, 3}), frozenset({2, 3}), frozenset({3}))),
                "part 2: sides do not partition its vertices",
            ),
            ((split_part(1, {0}, {1}), split_part(2, {1}, {2, 3})), "part 2: overlaps an earlier part"),
            ((split_part(1, {0}, {1}), split_part(2, {2}, ())), "parts do not cover the region"),
        ],
        ids=["index", "partition", "overlap", "cover"],
    )
    def test_vouched_parts_keep_the_other_checks(self, parts, message):
        assert decomposition_violation(PATH4, Decomposition(3, parts)) == message

    def test_benchmark_size_outputs_pass_the_full_recheck(self, benchmark_size_decomposition):
        g, d = benchmark_size_decomposition
        assert full_recheck(g, d) is None
        assert_records_match_reference(g, d)
        g = gen.grid(100, 100)
        assert full_recheck(g, decompose(g, 4, region_walk(g))) is None

    def test_dense_outputs_pass_the_full_recheck(self):
        # the benchmark's dense batch: n in 80..160, p in 0.03..0.15, t 3..6;
        # at t=3 every run gets stuck, at t=6 almost none
        completed = 0
        for seed in range(80):
            rng = random.Random(seed)
            g = gen.connected_gnp(rng.randint(80, 160), rng.uniform(0.03, 0.15), seed)
            d = decompose(g, 3 + seed % 4, region_walk(g))
            if isinstance(d, Decomposition):
                assert full_recheck(g, d) is None
                assert_records_match_reference(g, d)
                completed += 1
        assert completed >= 20

    @pytest.mark.slow
    def test_records_match_reference_at_scale(self):
        g = gen.chain_components(sparse_gnp(10**5, 6 / (10**5 - 1)))
        d = decompose(g, 4, region_walk(g))
        assert isinstance(d, Decomposition) and len(d.parts) > 1000
        assert full_recheck(g, d) is None
        assert_records_match_reference(g, d)


class TestRecheckGuards:
    def test_out_of_range_vertex_in_a_part(self):
        # PATH3 has no vertex 5; the region's range check meets it
        d = Decomposition(3, (split_part(1, {0, 2, 5}, {1}),))
        with pytest.raises(GraphError) as exc:
            decomposition_violation(PATH3, d, {0, 1, 2, 5})
        assert str(exc.value) == "vertex 5 out of range for n=3"
        assert outcome(decomposition_violation_reference, PATH3, d, {0, 1, 2, 5}) == (GraphError, str(exc.value))

    def test_negative_vertex_in_the_region(self):
        # a negative id is refused, not read from the end of a neighbor table
        d = Decomposition(3, (split_part(1, {0, 2, -1}, {1}),))
        with pytest.raises(GraphError) as exc:
            decomposition_violation(PATH3, d, {0, 1, 2, -1})
        assert str(exc.value) == "vertex -1 out of range for n=3"
        # with no region given, the region is every vertex, and such a part fails the cover check
        assert decomposition_violation(PATH3, d) == "parts do not cover the region"

    @pytest.mark.parametrize("position", [0, 1, 2, 3])
    @pytest.mark.parametrize("t", [3, 4])
    def test_empty_part_keeps_the_verdict(self, position, t):
        # an empty part passes every per-part check and lies in no component
        parts = list(HUB_PARTS)
        parts.insert(position, Part(0, frozenset(), frozenset(), frozenset()))
        d = Decomposition(t, tuple(p._replace(index=i + 1) for i, p in enumerate(parts)))
        assert decomposition_violation(TWO_EDGES_AND_HUB, d) == decomposition_violation_reference(TWO_EDGES_AND_HUB, d)

    def test_only_empty_parts_over_an_empty_region(self):
        empty = Part(1, frozenset(), frozenset(), frozenset())
        for t in (1, 3):
            d = Decomposition(t, (empty, empty._replace(index=2)))
            assert decomposition_violation(PATH3, d, ()) is None
            assert decomposition_violation_reference(PATH3, d, ()) is None


def test_json_round_trip(k4):
    d = decompose(k4, 3, region_walk(k4))
    obj = decomposition_to_json(d)
    assert obj["parts"][0]["H"] == [0, 1]
