"""flipdist: edge-flip distance machinery for constrained planar triangulations.

The package turns the classical crossing-count upper bound on flip distance
into runnable code: exact predicates, constrained triangulations, crossing
reports, a strictly-decreasing flip morph, a brute-force flip-graph oracle
and audits for every structural claim the morph depends on.
"""

from .errors import FlipdistError
from .triangulation import (
    Instance,
    Triangulation,
    faces,
    flip,
    greedy_triangulate,
    interior_edge_count,
    quadrilateral_of,
    validate,
)
from .crossings import CrossingReport, count_pair
from .morph import FlipSequence, intersection_upper_bound, morph
from .oracle import build_flip_graph, enumerate_triangulations_direct, exact_flip_distance

__all__ = [
    "FlipdistError",
    "Instance",
    "Triangulation",
    "faces",
    "flip",
    "greedy_triangulate",
    "interior_edge_count",
    "quadrilateral_of",
    "validate",
    "CrossingReport",
    "count_pair",
    "FlipSequence",
    "intersection_upper_bound",
    "morph",
    "build_flip_graph",
    "enumerate_triangulations_direct",
    "exact_flip_distance",
]

__version__ = "0.1.0"
