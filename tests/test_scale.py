"""The pipeline at the sizes the benchmark serves: n=3000 sparse random and
the 100x100 grid, t=4. Each artifact must survive a JSON round trip and its
own verifier."""

import json

import pytest

from oddcluster import generators as gen
from oddcluster.certificate import certificate_from_json, verify_certificate
from oddcluster.cli import EXIT_CERT, EXIT_OK, run_color
from oddcluster.coloring import ColoringRejection, coloring_from_json, verify_coloring


@pytest.mark.parametrize(
    "make",
    [lambda: gen.connected_gnp(3000, 6 / 2999), lambda: gen.grid(100, 100)],
    ids=["gnp-3000", "grid-100x100"],
)
def test_artifact_verifies_after_json_round_trip(make):
    g = make()
    result = run_color(g, 4)
    artifact = json.loads(json.dumps(result.artifact))
    if result.exit_code == EXIT_OK:
        checked = verify_coloring(g, coloring_from_json(artifact), 4)
        assert not isinstance(checked, ColoringRejection), checked
        assert checked.max_component <= 1
    else:
        assert result.exit_code == EXIT_CERT
        assert verify_certificate(g, certificate_from_json(artifact)) is None
