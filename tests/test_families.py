"""Inputs with no odd K_t minor, at the sizes the benchmark serves and above.

A bipartite graph has no odd K_t expansion for any t >= 3, since such an
expansion holds an odd cycle, so a certificate for one would prove a bug.
Each bipartite family of `helpers.BIPARTITE_FAMILIES`, up to 10^4 vertices,
and one 10^5 input (marked slow) are run at every t from 3 to 8. Each run
must be colored, and its artifact must pass verify_coloring after a JSON
round trip. A connected bipartite region is its own first part, so each
component is one part, and a connected input with an edge takes 2 colors.
"""

import json

import pytest

from oddcluster.cli import EXIT_OK, run_color
from oddcluster.coloring import ColoringRejection, coloring_from_json, verify_coloring
from oddcluster.graph import connected_components

from helpers import BIPARTITE_FAMILIES, sparse_bipartite


def check_bipartite_runs(g):
    components = len(connected_components(g))
    for t in range(3, 9):
        result = run_color(g, t)
        assert result.exit_code == EXIT_OK, (t, result.payload)
        checked = verify_coloring(g, coloring_from_json(json.loads(json.dumps(result.artifact))), t)
        assert not isinstance(checked, ColoringRejection), (t, checked)
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
