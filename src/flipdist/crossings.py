"""Proper-intersection bookkeeping between two triangulations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import geometry, kernels
from .geometry import Segment
from .triangulation import (
    Edge,
    Quadrilateral,
    Triangulation,
    canonical_edge,
    require_same_instance,
)

# The segments of a quadrilateral abcd that quad_crossers reports on: its
# four sides in ccw order, the diagonal ac and the flip's new diagonal bd.
QUAD_SEGMENTS = ("ab", "bc", "cd", "da", "ac", "bd")


@dataclass(frozen=True)
class CrossingReport:
    """Crossing totals of one triangulation against another.

    ``per_edge`` maps every edge of the first triangulation to the number of
    edges of the second properly crossing it (border edges are always 0).
    ``max_edges`` lists the edges attaining the maximum count, in canonical
    order; it is empty iff ``total`` is 0.
    """

    total: int
    per_edge: Mapping[Edge, int]
    max_edges: tuple[Edge, ...]


def count_pair(t1: Triangulation, t2: Triangulation) -> CrossingReport:
    """The crossing report of t1 against t2.

    Only interior edges can cross: border edges belong to both
    triangulations, and crossing one would break planarity.
    """
    require_same_instance(t1, t2)
    per_edge: dict[Edge, int] = {e: 0 for e in sorted(t1.edges)}
    counts = kernels.crossing_counts(
        t1.interior_array(), t2.interior_array()
    ).tolist()
    for e, c in zip(t1.interior_edges(), counts):
        per_edge[e] = c
    total = sum(counts)
    if total > 0:
        best = max(counts)
        max_edges = tuple(
            e for e, c in zip(t1.interior_edges(), counts) if c == best
        )
    else:
        max_edges = ()
    return CrossingReport(total=total, per_edge=per_edge, max_edges=max_edges)


def count_segment(s: Segment, t: Triangulation) -> int:
    """Crossings of an arbitrary segment with t, no region checks."""
    return sum(
        geometry.properly_intersect(s, t.segment(e)) for e in t.edges
    )


def quad_crossers(
    t1: Triangulation, quads: Sequence[Quadrilateral], t2: Triangulation
) -> np.ndarray:
    """Which t2 edges properly cross the segments of each quadrilateral of
    t1, as a boolean (len(quads), 6, |t2.edges|) grid.

    Entry (k, s, j) is whether the j-th edge of ``sorted(t2.edges)`` crosses
    the segment ``QUAD_SEGMENTS[s]`` of ``quads[k]``: its sides ``ab``,
    ``bc``, ``cd``, ``da``, its diagonal ``ac`` and the other diagonal
    ``bd``.  Every edge of t2 is tested, border edges included.  The
    distinct segments go to one :func:`kernels.crossing_matrix` call:
    adjacent quadrilaterals share sides, so there are about half as many as
    the 6 * len(quads) rows.
    """
    require_same_instance(t1, t2)
    inst = t1.instance
    segment_row: dict[Edge, int] = {}
    rows = []
    for quad in quads:
        a, b, c, d = quad.vertices
        for u, v in ((a, b), (b, c), (c, d), (d, a), (a, c), (b, d)):
            rows.append(segment_row.setdefault(canonical_edge(u, v), len(segment_row)))
    edges = sorted(t2.edges)
    hits = kernels.crossing_matrix(
        inst.segments(list(segment_row)), inst.segments(edges)
    )
    return hits[rows].reshape(len(quads), len(QUAD_SEGMENTS), len(edges))
