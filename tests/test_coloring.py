import collections
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcluster.coloring import (
    ClusteredColoring,
    ColoringRejection,
    ColoringReport,
    build_auxiliary,
    color_parts,
    coloring_from_json,
    coloring_to_json,
    product_coloring,
    verify_coloring,
)
from oddcluster.cli import run_color
from oddcluster.decompose import Decomposition, Part, decompose
from oddcluster.graph import Graph, GraphError
from oddcluster import generators as gen

from conftest import connected_graphs, graphs
from helpers import build_auxiliary_reference, outcome, verify_coloring_reference, with_records

Color = collections.namedtuple("Color", "hue side")


def path_of_parts(earlier=({1}, {2})):
    """Three parts in a path of adjacencies: {0,1} - {2,3} - {4,5}; parts 2
    and 3 record `earlier` as given, by default their true records."""
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    parts = (
        Part(1, frozenset({0, 1}), frozenset({0}), frozenset({1})),
        Part(2, frozenset({2, 3}), frozenset({2}), frozenset({3}), frozenset(earlier[0])),
        Part(3, frozenset({4, 5}), frozenset({4}), frozenset({5}), frozenset(earlier[1])),
    )
    return g, Decomposition(4, parts)


class TestAuxiliary:
    def test_single_part_is_edgeless(self, c6):
        d = decompose(c6, 3)
        aux = build_auxiliary(d)
        assert aux.n == 1 and aux.m == 0

    def test_k4_two_adjacent_parts(self, k4):
        d = decompose(k4, 3)
        aux = build_auxiliary(d)
        assert aux.n == 2 and aux.edges() == [(0, 1)]

    def test_part_path(self):
        g, d = path_of_parts()
        aux = build_auxiliary(d)
        assert aux.edges() == [(0, 1), (1, 2)]

    def test_reads_the_records_not_the_graph(self):
        # decomposition_violation checks the records; build_auxiliary takes them as given
        g, d = path_of_parts(earlier=({1}, {1, 2}))
        assert build_auxiliary(d).edges() == [(0, 1), (0, 2), (1, 2)]


class TestPartHues:
    def test_edgeless(self):
        aux = Graph(3, [])
        assert color_parts(aux, 3) == {1: 1, 2: 1, 3: 1}

    def test_single_edge(self):
        aux = Graph(2, [(0, 1)])
        assert color_parts(aux, 3) == {1: 1, 2: 2}

    def test_path_reuses_first_hue(self):
        aux = Graph(3, [(0, 1), (1, 2)])
        assert color_parts(aux, 3) == {1: 1, 2: 2, 3: 1}


class TestProductColoring:
    def test_k4(self, k4):
        d = decompose(k4, 3)
        hues = color_parts(build_auxiliary(d), 3)
        coloring = product_coloring(d, hues)
        assert coloring.colors == {0: (1, 1), 1: (1, 2), 2: (2, 1), 3: (2, 2)}
        report = verify_coloring(k4, coloring, 3)
        assert report == ColoringReport(colors_used=4, max_component=1, max_defect=0)

    def test_c6_uses_two_colors(self, c6):
        d = decompose(c6, 3)
        hues = color_parts(build_auxiliary(d), 3)
        coloring = product_coloring(d, hues)
        assert set(coloring.colors.values()) == {(1, 1), (1, 2)}

    def test_single_vertex(self):
        g = Graph(1, [])
        d = decompose(g, 3)
        coloring = product_coloring(d, {1: 1})
        assert coloring.colors == {0: (1, 1)}


class TestVerifier:
    def test_rejects_one_big_class(self, k4):
        coloring = ClusteredColoring(3, {v: (1, 1) for v in range(4)})
        got = verify_coloring(k4, coloring, 3)
        assert isinstance(got, ColoringRejection)
        assert got.component == (0, 1, 2, 3)

    def test_rejects_uncolored_vertex(self, k4):
        coloring = ClusteredColoring(3, {0: (1, 1)})
        got = verify_coloring(k4, coloring, 3)
        assert isinstance(got, ColoringRejection) and "uncolored" in got.reason

    def test_rejects_out_of_range_hue(self, k4):
        coloring = ClusteredColoring(3, {v: (9, 1) for v in range(4)})
        got = verify_coloring(k4, coloring, 3)
        assert isinstance(got, ColoringRejection) and "out of range" in got.reason

    def test_defect_never_exceeds_component_bound(self, k5):
        # valid improper coloring of K_5 for t=6: one pair repeated
        coloring = ClusteredColoring(
            6, {0: (1, 1), 1: (1, 1), 2: (1, 2), 3: (2, 1), 4: (2, 2)}
        )
        report = verify_coloring(k5, coloring, 6)
        assert isinstance(report, ColoringReport)
        assert report.max_component == 2 and report.max_defect == 1
        assert report.max_defect <= report.max_component - 1


class TestPipelineProperty:
    @pytest.mark.parametrize("t", [3, 5])
    @given(g=connected_graphs(max_n=20))
    @settings(max_examples=80, deadline=None)
    def test_completed_decompositions_always_verify(self, t, g):
        # the coloring bounds hold for every completed run, stuck or not being possible
        outcome = decompose(g, t)
        if not isinstance(outcome, Decomposition):
            return
        hues = color_parts(build_auxiliary(outcome), t)
        coloring = product_coloring(outcome, hues)
        report = verify_coloring(g, coloring, t)
        assert isinstance(report, ColoringReport)
        assert report.colors_used <= 2 * t - 2
        assert report.max_component <= (t - 1) // 2

    @given(connected_graphs(max_n=16))
    @settings(max_examples=60, deadline=None)
    def test_monochromatic_components_stay_inside_one_side(self, g):
        outcome = decompose(g, 4)
        if not isinstance(outcome, Decomposition):
            return
        hues = color_parts(build_auxiliary(outcome), 4)
        coloring = product_coloring(outcome, hues)
        homes = []
        for p in outcome.parts:
            homes.append(p.side_a)
            homes.append(p.side_b)
        seen = set()
        for v in range(g.n):
            if v in seen:
                continue
            comp = {v}
            stack = [v]
            while stack:
                x = stack.pop()
                for y in g.neighbors(x):
                    if y not in comp and coloring.colors[y] == coloring.colors[v]:
                        comp.add(y)
                        stack.append(y)
            seen |= comp
            assert any(comp <= home for home in homes)


class TestJson:
    def test_round_trip(self, k4):
        d = decompose(k4, 3)
        coloring = product_coloring(d, color_parts(build_auxiliary(d), 3))
        obj = coloring_to_json(coloring, 4)
        assert obj == {"t": 3, "colors": [[1, 1], [1, 2], [2, 1], [2, 2]]}
        assert coloring_from_json(obj) == coloring

    def test_uncolored_vertex_rejected(self):
        coloring = ClusteredColoring(3, {0: (1, 1), 2: (1, 2)})
        with pytest.raises(GraphError) as exc:
            coloring_to_json(coloring, 4)
        assert str(exc.value) == "vertex 1 is uncolored"

    def test_report_json(self, c6):
        report = run_color(c6, 3).payload["report"]
        assert list(report) == ["colors_used", "max_component", "max_defect"]
        assert report == {"colors_used": 2, "max_component": 1, "max_defect": 0}


class TestAuxiliaryAgainstReference:
    @pytest.mark.parametrize("t", [3, 4, 5])
    @given(g=connected_graphs(max_n=20))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_on_decompositions(self, t, g):
        result = decompose(g, t)
        if isinstance(result, Decomposition):
            # rechecked at a smaller t too, where a part may see too many earlier ones
            for t2 in range(3, t + 1):
                d = Decomposition(t2, result.parts)
                assert outcome(build_auxiliary, d) == outcome(build_auxiliary_reference, g, d)

    @given(g=graphs(max_n=14), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_on_disjoint_parts(self, g, data):
        # parts from random labels; label -1 leaves a vertex outside every part
        labels = data.draw(st.lists(st.integers(min_value=-1, max_value=4), min_size=g.n, max_size=g.n))
        parts = []
        for k in range(5):
            vs = frozenset(v for v in range(g.n) if labels[v] == k)
            if vs:
                parts.append(Part(len(parts) + 1, vs, vs, frozenset()))
        t = data.draw(st.integers(min_value=3, max_value=6))
        d = Decomposition(t, with_records(g, parts))
        assert outcome(build_auxiliary, d) == outcome(build_auxiliary_reference, g, d)


def tampered_coloring(rng):
    """A graph, t, and a coloring: the pipeline's own, or random pairs from a
    small palette, then a few vertices recolored, some out of range, uncolored
    or malformed."""
    n = rng.randint(1, 24)
    g = gen.connected_gnp(n, rng.uniform(0.05, 0.5), rng.randrange(10**6))
    t = rng.randint(2, 6)
    result = decompose(g, max(t, 3))
    if isinstance(result, Decomposition) and rng.random() < 0.5:
        d = Decomposition(max(t, 3), result.parts)
        colors = dict(product_coloring(d, color_parts(build_auxiliary(d), d.t)).colors)
    else:
        colors = {v: (rng.randint(1, max(1, t - 1)), rng.randint(1, 2)) for v in range(n)}
    for _ in range(rng.choice((0, 0, 1, 3))):
        v = rng.randrange(n)
        roll = rng.random()
        if roll < 0.6:
            colors[v] = (rng.randint(1, max(1, t - 1)), rng.randint(1, 2))
        elif roll < 0.75:
            colors[v] = (rng.randint(0, t), rng.randint(0, 3))
        elif roll < 0.85:
            colors.pop(v, None)
        else:
            colors[v] = rng.choice(([1, 1], (1, 1, 1), (1,), "11"))
    return g, ClusteredColoring(t, colors), t


class TestVerifierAgainstReference:
    @given(rng=st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_on_tampered_colorings(self, rng):
        g, coloring, t = tampered_coloring(rng)
        assert verify_coloring(g, coloring, t) == verify_coloring_reference(g, coloring, t)

    def test_sweep_reaches_every_verdict(self):
        reached = set()
        for seed in range(500):
            g, coloring, t = tampered_coloring(random.Random(seed))
            expected = verify_coloring_reference(g, coloring, t)
            assert verify_coloring(g, coloring, t) == expected, seed
            if isinstance(expected, ColoringReport):
                reached.add("report with defect" if expected.max_defect else "report")
            else:
                reached.add(" ".join(w for w in expected.reason.split() if w.isalpha()))
        # the 2t-2 color limit cannot fail once every pair is in range
        assert reached == {
            "report",
            "report with defect",
            "vertex is uncolored",
            "vertex color is malformed",
            "vertex color out of range",
            "monochromatic component of size exceeds",
        }


# (graph, colors, t, expected verdict); each is also checked against the reference
NAMED_VERIFIER_CASES = [
    pytest.param(
        Graph(3, [(0, 1), (1, 2)]), {0: (1, 1), 1: (1.0, 1), 2: (1, 1)}, 3,
        ColoringRejection("vertex 1 color (1.0, 1) out of range"),
        id="float-hue-beside-its-valid-class",
    ),
    pytest.param(
        Graph(3, [(0, 1), (1, 2)]), {0: (1, 1), 1: (1, 1.0), 2: (1, 1)}, 3,
        ColoringRejection("vertex 1 color (1, 1.0) out of range"),
        id="float-side-beside-its-valid-class",
    ),
    pytest.param(
        Graph(3, [(0, 1), (1, 2)]), {0: (True, 1), 1: (1, 1), 2: (2, 2)}, 3,
        ColoringRejection("monochromatic component of size 2 exceeds 1", (0, 1)),
        id="bool-hue-joins-the-class-it-equals",
    ),
    pytest.param(
        Graph(3, [(0, 1), (1, 2)]), {0: (1, 1), 1: (1, 2), 2: (1, 1)}, 2,
        ColoringRejection("monochromatic component of size 1 exceeds 0", (0,)),
        id="t2-singletons",
    ),
    pytest.param(
        Graph(3, [(0, 1), (1, 2)]), {0: (1, 2), 1: (1, 2), 2: (1, 1)}, 2,
        ColoringRejection("monochromatic component of size 2 exceeds 0", (0, 1)),
        id="t2-vertex-0-in-a-pair",
    ),
    pytest.param(
        # class (1, 1) is {0, 3, 5} and holds {3, 5}; class (1, 2) is {1, 2, 4}
        # and holds {2, 4}, which has the smaller minimum though its class
        # comes second and starts with the singleton 1
        Graph(6, [(0, 1), (2, 4), (3, 5), (4, 5)]),
        {0: (1, 1), 1: (1, 2), 2: (1, 2), 3: (1, 1), 4: (1, 2), 5: (1, 1)}, 3,
        ColoringRejection("monochromatic component of size 2 exceeds 1", (2, 4)),
        id="oversize-minimum-not-first-of-its-class",
    ),
    pytest.param(
        Graph(40, [(2 * i, 2 * i + 1) for i in range(20)] + [(2 * i + 1, 2 * i + 2) for i in range(19)]),
        {v: (1 + v // 2 % 4, 1) for v in range(40)}, 5,
        ColoringReport(colors_used=4, max_component=2, max_defect=1),
        id="t5-many-two-vertex-components",
    ),
    pytest.param(
        # a record is a tuple of two fields, with an in-range hue first
        Graph(3, [(0, 1), (1, 2)]), {0: (1, 1), 1: ClusteredColoring(2, {0: (1, 1)}), 2: (1, 1)}, 3,
        ColoringRejection("vertex 1 color ClusteredColoring(t=2, colors={0: (1, 1)}) out of range"),
        id="record-as-a-color",
    ),
    pytest.param(
        # any tuple of two ints is a color, a caller's namedtuple too
        Graph(3, [(0, 1), (1, 2)]), {v: Color(1, 1 + v % 2) for v in range(3)}, 3,
        ColoringReport(colors_used=2, max_component=1, max_defect=0),
        id="namedtuple-colors",
    ),
]


class TestVerifierNamedCases:
    @pytest.mark.parametrize("g, colors, t, expected", NAMED_VERIFIER_CASES)
    def test_verdict(self, g, colors, t, expected):
        coloring = ClusteredColoring(t, colors)
        assert verify_coloring_reference(g, coloring, t) == expected
        assert verify_coloring(g, coloring, t) == expected

    def test_grid_coloring_and_a_tampered_copy(self):
        g = gen.grid(100, 100)
        d = decompose(g, 4)
        coloring = product_coloring(d, color_parts(build_auxiliary(d), 4))
        expected = ColoringReport(colors_used=2, max_component=1, max_defect=0)
        assert verify_coloring(g, coloring, 4) == verify_coloring_reference(g, coloring, 4) == expected
        # vertex 5050 takes the color of its neighbors: a star of five
        colors = dict(coloring.colors)
        colors[5050] = colors[5051]
        tampered = ClusteredColoring(4, colors)
        star = (4950, 5049, 5050, 5051, 5150)
        expected = ColoringRejection("monochromatic component of size 5 exceeds 1", star)
        assert verify_coloring(g, tampered, 4) == verify_coloring_reference(g, tampered, 4) == expected
