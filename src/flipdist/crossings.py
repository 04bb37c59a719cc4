"""Proper-intersection bookkeeping between two triangulations.

Every grid here is gathered from the two triangulations' sign tables
(:func:`edge_signs`): the int8 sign of every vertex against the line of
each of a triangulation's own edges.  Edges e and f cross properly iff
the ends of f have strictly opposite signs in e's row and the ends of e
strictly opposite signs in f's (:func:`kernels.segment_crossings`).  A
sign is the sign of an exact determinant on either backend, so every
count is exact.
"""

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
    edge_signs,
    require_same_instance,
    require_valid,
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


def interior_crossings(t1: Triangulation, t2: Triangulation) -> np.ndarray:
    """Boolean grid: entry (i, j) is whether ``t2.interior_edges()[j]``
    properly crosses ``t1.interior_edges()[i]``, gathered from the interior
    rows of the two triangulations' sign tables (:func:`edge_signs`)."""
    s1, s2 = edge_signs(t1), edge_signs(t2)
    return kernels.segment_crossings(
        t1.instance._packed,
        s1.interior_ends, s2.interior_ends, s1.interior_signs, s2.interior_signs,
    )


def count_pair(t1: Triangulation, t2: Triangulation) -> CrossingReport:
    """The crossing report of t1 against t2: the row sums of
    :func:`interior_crossings`.

    Only interior edges can cross: border edges belong to both
    triangulations, and crossing one would break planarity.  Raises
    InstanceMismatch unless both triangulate one instance, and
    InvariantViolation (:func:`require_valid`) unless both are valid.
    """
    require_same_instance(t1, t2)
    require_valid(t1, "t1")
    require_valid(t2, "t2")
    per_edge: dict[Edge, int] = {e: 0 for e in sorted(t1.edges)}
    counts = interior_crossings(t1, t2).sum(axis=1).tolist()
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


def count_edges(edges: Sequence[Edge], t: Triangulation) -> list[int]:
    """For each vertex pair of ``edges``, the number of t's interior edges
    properly crossing it, gathered from the interior rows of t's sign
    table."""
    table = edge_signs(t)
    ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return kernels.segment_crossings(
        t.instance._packed, ends, table.interior_ends, None, table.interior_signs
    ).sum(axis=1).tolist()


def count_segment(s: Segment, t: Triangulation) -> int:
    """Crossings of an arbitrary segment with t, no region checks."""
    return sum(
        geometry.properly_intersect(s, t.segment(e)) for e in t.edges
    )


def _quad_ends(quads: Sequence[Quadrilateral]) -> np.ndarray:
    """The segments ``QUAD_SEGMENTS`` of each quadrilateral abcd, directed
    as named: an int64 (len(quads), 6, 2) array of vertex ids."""
    corners = np.array([q.vertices for q in quads], dtype=np.int64).reshape(-1, 4)
    return corners[:, [0, 1, 1, 2, 2, 3, 3, 0, 0, 2, 1, 3]].reshape(-1, 6, 2)


def quad_crossers(
    t1: Triangulation, quads: Sequence[Quadrilateral], t2: Triangulation
) -> np.ndarray:
    """Which t2 edges properly cross the segments of each quadrilateral of
    t1, as a boolean (len(quads), 6, |t2.edges|) grid.

    Entry (k, s, j) is whether the j-th of t2's sorted edges, the rows of
    its table (``edge_signs(t2).edges``), crosses the segment
    ``QUAD_SEGMENTS[s]`` of ``quads[k]``: its sides ``ab``, ``bc``, ``cd``,
    ``da``, its diagonal ``ac`` and the other diagonal ``bd``.  Every edge
    of t2 is tested, border edges included.  The segments go to one
    :func:`kernels.segment_crossings` call.  The sides and ``ac`` are edges
    of t1, so their signs are rows of t1's sign table; only the ``bd``
    diagonals need new rows.  t2's lines read its own table.
    """
    require_same_instance(t1, t2)
    inst = t1.instance
    s1, s2 = edge_signs(t1), edge_signs(t2)
    ends = _quad_ends(quads)
    signs = np.empty((len(quads), len(QUAD_SEGMENTS), inst.n), dtype=np.int8)
    signs[:, :5] = s1.rows(ends[:, :5])
    signs[:, 5] = kernels.orientation_signs(inst._packed, ends[:, 5])
    hits = kernels.segment_crossings(
        inst._packed, ends.reshape(-1, 2), s2.ends,
        signs.reshape(-1, inst.n), s2.signs,
    )
    return hits.reshape(len(quads), len(QUAD_SEGMENTS), len(s2.ends))


def inside_quads(t1: Triangulation, quads: Sequence[Quadrilateral]) -> np.ndarray:
    """Boolean (len(quads), n) grid: entry (k, v) is whether vertex v lies
    strictly inside ``quads[k]``, a quadrilateral abcd of t1 whose faces
    abc and acd are ccw: in the open abc, in the open acd or on the open
    diagonal ac.

    The two triangles lie on opposite sides of ac (b on its right, d on
    its left), so their union is the simple polygon abcd.  A point
    a + t(c - a) of the line ac is strictly left of ab iff t > 0 and of bc
    iff t < 1, so abc's two outer sides also place the points of that
    line: exactly those of the open diagonal are inside.  So v is inside
    iff it is strictly left of cd and da when it is strictly left of ac,
    and strictly left of ab and bc otherwise.  All five segments are edges
    of t1, so each answer is a sign in a row of t1's sign table, read with
    its sign reversed where the segment runs from its larger id to its
    smaller.
    """
    ends = _quad_ends(quads)[:, :5]
    tails, heads = ends[..., 0], ends[..., 1]
    signs = edge_signs(t1).rows(ends)
    left = np.where((tails < heads)[..., None], signs > 0, signs < 0)
    ab, bc, cd, da, ac = left.transpose(1, 0, 2)
    return np.where(ac, cd & da, ab & bc)
