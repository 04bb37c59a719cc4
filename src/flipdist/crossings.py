"""Proper-intersection bookkeeping between two triangulations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from . import geometry, kernels
from .errors import (
    InstanceMismatch,
    QuadNotInTriangulation,
    SegmentOutsideRegion,
)
from .geometry import Segment
from .triangulation import (
    Edge,
    Quadrilateral,
    Triangulation,
    canonical_edge,
    quadrilateral_of,
)


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


def _require_same_instance(t1: Triangulation, t2: Triangulation) -> None:
    if t1.instance != t2.instance:
        raise InstanceMismatch("triangulations have different instances")


def count_pair(t1: Triangulation, t2: Triangulation) -> CrossingReport:
    """The crossing report of t1 against t2.

    Only interior edges can cross: border edges belong to both
    triangulations, and crossing one would break planarity.
    """
    _require_same_instance(t1, t2)
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


def segment_crossing_count(s: Segment, t: Triangulation) -> int:
    """Crossings between a vertex-to-vertex segment and t.

    The segment's open interior must lie in the region; a segment that
    properly crosses a border edge, or whose midpoint is strictly outside,
    raises SegmentOutsideRegion.
    """
    inst = t.instance
    if s[0] not in inst.points or s[1] not in inst.points:
        raise SegmentOutsideRegion(f"segment {s} endpoints are not vertices")
    coords = inst.border_coords()
    i = inst.points.index(s[0])
    j = inst.points.index(s[1])
    if canonical_edge(i, j) not in inst.border_edges:
        for poly in coords:
            for bs in geometry.segments_of_polygon(poly):
                if geometry.properly_intersect(s, bs):
                    raise SegmentOutsideRegion(
                        f"segment {s} crosses the border"
                    )
        if geometry.midpoint_in_region(s, coords) == geometry.OUTSIDE:
            raise SegmentOutsideRegion(f"segment {s} leaves the region")
    return count_segment(s, t)


@dataclass(frozen=True)
class QuadCrossingCounts:
    """Classified crossing counts of one quadrilateral against t2.

    Segment labels are the quad sides in ccw order (``ab``, ``bc``, ``cd``,
    ``da``) plus the diagonals ``ac`` (in t1) and ``bd``.  ``pair_counts``
    holds, for every unordered label pair, the number of t2 edges crossing
    both segments; ``corner_counts[(v, xy)]`` counts t2 edges emerging from
    corner v that cross segment xy.
    """

    seg_counts: Mapping[str, int]
    pair_counts: Mapping[tuple[str, str], int]
    corner_counts: Mapping[tuple[str, str], int]
    ac_in_t2: bool
    bd_in_t2: bool
    labels: tuple[str, ...] = field(
        default=("ab", "bc", "cd", "da", "ac", "bd")
    )


def classified_counts(
    t1: Triangulation, quad: Quadrilateral, t2: Triangulation
) -> QuadCrossingCounts:
    """Per-side, per-pair and per-corner crossing counts for one quadrilateral."""
    _require_same_instance(t1, t2)
    if quad.diagonal not in t1.edges:
        raise QuadNotInTriangulation(f"diagonal {quad.diagonal} not in t1")
    actual = quadrilateral_of(t1, quad.diagonal)
    if actual is None or actual.opposite != quad.opposite:
        raise QuadNotInTriangulation(
            f"{quad.diagonal} is not the diagonal of this quadrilateral in t1"
        )
    inst = t1.instance
    a, b, c, d = quad.vertices
    segments = {
        "ab": (inst.points[a], inst.points[b]),
        "bc": (inst.points[b], inst.points[c]),
        "cd": (inst.points[c], inst.points[d]),
        "da": (inst.points[d], inst.points[a]),
        "ac": (inst.points[a], inst.points[c]),
        "bd": (inst.points[b], inst.points[d]),
    }
    corners = {"a": a, "b": b, "c": c, "d": d}
    crossers: dict[str, set[Edge]] = {label: set() for label in segments}
    for e in t2.edges:
        seg = t2.segment(e)
        for label, qseg in segments.items():
            if geometry.properly_intersect(seg, qseg):
                crossers[label].add(e)
    labels = ("ab", "bc", "cd", "da", "ac", "bd")
    seg_counts = {label: len(crossers[label]) for label in labels}
    pair_counts = {
        (labels[i], labels[j]): len(crossers[labels[i]] & crossers[labels[j]])
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
    }
    corner_counts = {}
    for cname, v in corners.items():
        incident = [e for e in t2.edges if v in e]
        for label in labels:
            qseg = segments[label]
            corner_counts[(cname, label)] = sum(
                geometry.properly_intersect(t2.segment(e), qseg)
                for e in incident
            )
    return QuadCrossingCounts(
        seg_counts=seg_counts,
        pair_counts=pair_counts,
        corner_counts=corner_counts,
        ac_in_t2=canonical_edge(a, c) in t2.edges,
        bd_in_t2=canonical_edge(b, d) in t2.edges,
    )
