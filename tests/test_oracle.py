import pytest
from hypothesis import given, settings

from oddcluster.graph import Graph, GraphError
from oddcluster.spanner import minimum_connector
from oddcluster import generators as gen

from conftest import connected_graphs, graphs, graphs_with_terminals
from helpers import OddClosedWalk, bipartition_or_odd_cycle
from oracle import (
    BudgetExceeded,
    OracleBudget,
    has_odd_expansion,
    min_connector_bruteforce,
)


class TestHasOddExpansion:
    def test_c5_contains_odd_triangle_minor(self, c5):
        assert has_odd_expansion(c5, 3) is True

    def test_c6_is_bipartite(self, c6):
        assert has_odd_expansion(c6, 3) is False

    def test_k4_all_singletons(self, k4):
        assert has_odd_expansion(k4, 4) is True

    def test_t_above_n(self):
        assert has_odd_expansion(Graph(2, [(0, 1)]), 3) is False

    def test_t1_and_t2(self):
        budget = OracleBudget(max_t=9)
        assert has_odd_expansion(Graph(1, []), 1, budget) is True
        assert has_odd_expansion(Graph(2, []), 2, budget) is False
        assert has_odd_expansion(Graph(2, [(0, 1)]), 2, budget) is True

    def test_budget_caps(self):
        with pytest.raises(BudgetExceeded):
            has_odd_expansion(gen.petersen(), 3)
        with pytest.raises(BudgetExceeded):
            has_odd_expansion(gen.complete(4), 5)

    def test_petersen_needs_bigger_budget(self):
        assert has_odd_expansion(gen.petersen(), 3, OracleBudget(max_n=10)) is True

    @given(graphs(max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_monotone_downward_in_t(self, g):
        budget = OracleBudget(max_t=9)
        answers = [has_odd_expansion(g, t, budget) for t in (2, 3, 4)]
        for smaller, larger in zip(answers, answers[1:]):
            assert smaller or not larger

    @given(connected_graphs(max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_t3_means_not_bipartite(self, g):
        witness = bipartition_or_odd_cycle(g, range(g.n))
        assert has_odd_expansion(g, 3) == isinstance(witness, OddClosedWalk)

    def test_confirms_every_pipeline_certificate_on_dense_graphs(self):
        import random

        from oddcluster.cli import run_color

        rng = random.Random(5)
        confirmed = 0
        for i in range(60):
            n = rng.randint(4, 9)
            g = gen.connected_gnp(n, rng.choice((0.4, 0.6, 0.8)), seed=4000 + i)
            for t in (3, 4):
                result = run_color(g, t)
                if result.exit_code == 3:
                    assert has_odd_expansion(g, t) is True
                    confirmed += 1
        assert confirmed >= 5  # the dense sample must actually exercise agreement


class TestMinConnectorBruteforce:
    def test_path(self):
        g = Graph(5, [(i, i + 1) for i in range(4)])
        assert min_connector_bruteforce(g, {0, 4}) == frozenset(range(5))

    def test_c6_lexicographic(self, c6):
        assert min_connector_bruteforce(c6, {0, 3}) == frozenset({0, 1, 2, 3})

    def test_singleton(self, c6):
        assert min_connector_bruteforce(c6, {4}) == frozenset({4})

    def test_size_cap(self):
        with pytest.raises(BudgetExceeded):
            min_connector_bruteforce(gen.complete(13), {0, 1})

    def test_disconnected_terminals(self):
        with pytest.raises(GraphError):
            min_connector_bruteforce(Graph(4, [(0, 1), (2, 3)]), {0, 3})

    @given(graphs_with_terminals(max_n=9, max_terminals=3))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_dynamic_program(self, case):
        g, terms = case
        assert min_connector_bruteforce(g, terms) == minimum_connector(g, range(g.n), terms)
