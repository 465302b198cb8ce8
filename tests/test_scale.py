"""The pipeline at the sizes the benchmark serves, n=3000 sparse random and
the 100x100 grid, and beyond them at n=5000, n=10^4 and n=10^5 (marked
slow) sparse random, all at t=4. Each artifact must survive a JSON round
trip and its own verifier."""

import json
import math

import pytest

from oddcluster import generators as gen
from oddcluster.certificate import certificate_from_json, verify_certificate
from oddcluster.cli import EXIT_CERT, EXIT_OK, run_color
from oddcluster.coloring import ColoringRejection, coloring_from_json, verify_coloring

from helpers import sparse_gnp


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: gen.connected_gnp(3000, 6 / 2999), id="gnp-3000"),
        pytest.param(lambda: gen.grid(100, 100), id="grid-100x100"),
        pytest.param(lambda: gen.connected_gnp(5000, 6 / 4999), id="gnp-5000"),
        pytest.param(lambda: gen.chain_components(sparse_gnp(10**4, 6 / 9999)), id="sparse-gnp-10000"),
        pytest.param(
            lambda: gen.chain_components(sparse_gnp(10**5, 6 / (10**5 - 1))),
            id="sparse-gnp-100000",
            marks=pytest.mark.slow,
        ),
    ],
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


@pytest.mark.parametrize("n, p", [(3000, 6 / 2999), (60, 0.5)])
def test_sparse_gnp_sampler_edge_count(n, p):
    # m is binomial over the n(n-1)/2 pairs
    pairs = n * (n - 1) // 2
    for seed in range(5):
        m = sparse_gnp(n, p, seed).m
        assert abs(m - p * pairs) < 5 * math.sqrt(pairs * p * (1 - p))
