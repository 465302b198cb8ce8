"""Certifying clustered coloring for graphs without odd clique minors.

Given a graph and t >= 3, either color the vertices with at most 2t-2
colors so that every monochromatic component has at most ceil((t-2)/2)
vertices, or produce an odd K_t-expansion certificate. Both outputs come
with independent verifiers.
"""

from .graph import Graph, GraphError, InvariantViolation
from .certificate import certificate_from_json, verify_certificate
from .coloring import coloring_from_json, verify_coloring
from .cli import PipelineResult, run_color

__all__ = [
    "Graph",
    "GraphError",
    "InvariantViolation",
    "certificate_from_json",
    "verify_certificate",
    "coloring_from_json",
    "verify_coloring",
    "PipelineResult",
    "run_color",
]
