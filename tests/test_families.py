"""Inputs with no odd K_t minor, at the sizes the benchmark serves and above.

A bipartite graph has no odd K_t expansion for any t >= 3, since such an
expansion holds an odd cycle, so a certificate for one would prove a bug.
Each bipartite family of `helpers.BIPARTITE_FAMILIES`, up to 10^4 vertices,
and one 10^5 input (marked slow) are run at every t from 3 to 8. Each run
must be colored, and its artifact must pass verify_coloring after a JSON
round trip. A connected bipartite region is its own first part, so each
component is one part, and a connected input with an edge takes 2 colors.

A graph with no K_t minor has no odd K_t expansion either. Partial
(t-2)-trees, of treewidth at most t-2, are run at every t from 3 to 9, and
the two planar families, triangulated grids and Apollonian networks, at
every t from 5 to 9, each up to 10^4 vertices, and one 10^5 partial 3-tree
at t=5 (marked slow). Each run must be colored, with the same artifact check.
"""

import json

import pytest

from oddcluster.cli import EXIT_OK, run_color
from oddcluster.coloring import ColoringRejection, coloring_from_json, verify_coloring
from oddcluster.graph import connected_components

from helpers import BIPARTITE_FAMILIES, apollonian, partial_ktree, sparse_bipartite, triangulated_grid


def check_colored(g, t):
    """run_color colors g at t, and the artifact passes verify_coloring after
    a JSON round trip; the run and the verifier's report."""
    result = run_color(g, t)
    assert result.exit_code == EXIT_OK, (t, result.payload)
    checked = verify_coloring(g, coloring_from_json(json.loads(json.dumps(result.artifact))), t)
    assert not isinstance(checked, ColoringRejection), (t, checked)
    return result, checked


def check_bipartite_runs(g):
    components = len(connected_components(g))
    for t in range(3, 9):
        result, checked = check_colored(g, t)
        assert len(result.decompositions) == components
        assert all(len(d.parts) == 1 for d in result.decompositions), t
        if components == 1 and g.n >= 2:
            assert checked.colors_used == 2, t


@pytest.mark.parametrize("name", list(BIPARTITE_FAMILIES))
def test_bipartite_input_is_colored_at_every_t(name):
    check_bipartite_runs(BIPARTITE_FAMILIES[name]())


@pytest.mark.slow
def test_bipartite_input_at_scale():
    check_bipartite_runs(sparse_bipartite(10**5, 8 / 10**5, 7))


@pytest.mark.parametrize("n, keep", [(30, 1.0), (2000, 1.0), (2000, 0.7), (10**4, 0.7)])
@pytest.mark.parametrize("t", range(3, 10))
def test_partial_ktree_is_colored(t, n, keep):
    check_colored(partial_ktree(n, t - 2, keep, seed=t * n), t)


@pytest.mark.parametrize(
    "make",
    [lambda: triangulated_grid(6), lambda: triangulated_grid(45), lambda: triangulated_grid(100),
     lambda: apollonian(30, 1), lambda: apollonian(2000, 2), lambda: apollonian(10**4, 3)],
    ids=["triangulated-grid-36", "triangulated-grid-2025", "triangulated-grid-10000",
         "apollonian-30", "apollonian-2000", "apollonian-10000"],
)
def test_planar_input_is_colored_at_every_t_from_5(make):
    g = make()
    for t in range(5, 10):
        check_colored(g, t)


@pytest.mark.slow
def test_partial_3tree_at_scale():
    check_colored(partial_ktree(10**5, 3, 0.8, seed=5), 5)
