"""Exact integer-arithmetic predicates.

All coordinates are Python ints, so every determinant is computed without
rounding.  The coordinate magnitude cap ``COORD_LIMIT`` exists only so that
the optional int64 batch kernels (see :mod:`flipdist.kernels`) have a bound
they can certify against overflow; the scalar predicates here are exact for
arbitrary integers.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Point = tuple[int, int]
Segment = tuple[Point, Point]

# |x|, |y| <= COORD_LIMIT for instance points.
COORD_LIMIT = 1 << 30

INSIDE = "inside"
ON_BOUNDARY = "on_boundary"
OUTSIDE = "outside"


def orient(p: Point, q: Point, r: Point) -> int:
    """Sign of the signed area of triangle pqr: +1 ccw, -1 cw, 0 collinear."""
    det = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    if det > 0:
        return 1
    if det < 0:
        return -1
    return 0


def properly_intersect(s1: Segment, s2: Segment) -> bool:
    """True iff the open segments share exactly one point.

    Segments that only touch at an endpoint, have an endpoint in the other's
    interior, or are collinear (including superimposed) do not properly
    intersect.  Equivalent to a strict crossing: the endpoints of each segment
    lie strictly on opposite sides of the other's supporting line.
    """
    p, q = s1
    r, s = s2
    o1 = orient(p, q, r)
    o2 = orient(p, q, s)
    if o1 * o2 >= 0:
        return False
    o3 = orient(r, s, p)
    o4 = orient(r, s, q)
    return o3 * o4 < 0


def point_on_open_segment(p: Point, s: Segment) -> bool:
    """True iff p lies strictly between the endpoints of s."""
    a, b = s
    if orient(a, b, p) != 0:
        return False
    # Strictly inside: p is past a towards b and past b towards a.
    da = (p[0] - a[0]) * (b[0] - a[0]) + (p[1] - a[1]) * (b[1] - a[1])
    db = (p[0] - b[0]) * (a[0] - b[0]) + (p[1] - b[1]) * (a[1] - b[1])
    return da > 0 and db > 0


def point_on_closed_segment(p: Point, s: Segment) -> bool:
    a, b = s
    if p == a or p == b:
        return True
    return point_on_open_segment(p, s)


def ray_crossing_parity(p: Point, polygon: Sequence[Point]) -> bool:
    """Crossing parity of a rightward ray from p with the polygon boundary.

    Uses the half-open vertical rule (an edge counts iff its endpoints
    straddle p's y with the lower endpoint inclusive), which is the symbolic
    perturbation that makes vertex hits unambiguous.  Assumes p is not on the
    boundary.
    """
    inside = False
    n = len(polygon)
    for i in range(n):
        a = polygon[i]
        b = polygon[(i + 1) % n]
        if (a[1] > p[1]) == (b[1] > p[1]):
            continue
        # Edge straddles the horizontal line through p; the ray crosses it
        # iff p is strictly on the left of the upward-directed edge.
        if b[1] > a[1]:
            if orient(a, b, p) > 0:
                inside = not inside
        else:
            if orient(b, a, p) > 0:
                inside = not inside
    return inside


def point_in_region(p: Point, border: Sequence[Sequence[Point]]) -> str:
    """Classify p against the region bounded by border[0] minus hole interiors.

    Returns one of ``"inside"``, ``"on_boundary"``, ``"outside"``.
    """
    for polygon in border:
        n = len(polygon)
        for i in range(n):
            if point_on_closed_segment(p, (polygon[i], polygon[(i + 1) % n])):
                return ON_BOUNDARY
    if not ray_crossing_parity(p, border[0]):
        return OUTSIDE
    for hole in border[1:]:
        if ray_crossing_parity(p, hole):
            return OUTSIDE
    return INSIDE


def midpoint_in_region(s: Segment, border: Sequence[Sequence[Point]]) -> str:
    """Classify the midpoint of s, exactly, by doubling all coordinates."""
    a, b = s
    mid = (a[0] + b[0], a[1] + b[1])
    scaled = [[(x * 2, y * 2) for (x, y) in polygon] for polygon in border]
    return point_in_region(mid, scaled)


def segments_of_polygon(polygon: Sequence[Point]) -> Iterable[Segment]:
    n = len(polygon)
    for i in range(n):
        yield (polygon[i], polygon[(i + 1) % n])
