"""Constrained triangulations: construction, validation, faces, flips."""

from __future__ import annotations

import functools
import operator
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import geometry, kernels
from .errors import (
    EdgeNotInTriangulation,
    InstanceMismatch,
    InvariantViolation,
    NotATriangulation,
    NotFlippable,
)
from .geometry import INSIDE, Point, Segment

Edge = tuple[int, int]
# Edge -> the third vertex of each face incident to it (see apex_map).
ApexMap = dict[Edge, tuple[int, ...]]


def canonical_edge(i: int, j: int) -> Edge:
    return (i, j) if i < j else (j, i)


def interior_edge_count(n: int, n_b: int, h: int) -> int:
    """Number of interior edges of any triangulation with these parameters.

    Derived from Euler's relation for a triangulated region with h holes
    (n - e + f = 1 - h) together with the face/edge incidence count
    3f = 2*e_int + n_b, which gives e_int = 3n - 2*n_b - 3 + 3h.
    """
    return 3 * n - 2 * n_b - 3 + 3 * h


def _as_int(v) -> Optional[int]:
    """v as an exact int (numpy integers too); None for a bool or non-integer."""
    try:
        return None if isinstance(v, bool) else operator.index(v)
    except TypeError:
        return None


def _as_ints(values, size: Optional[int] = None) -> Optional[tuple]:
    """values as a tuple of _as_int results; None when values is not
    iterable or, with ``size``, not of that length."""
    try:
        out = tuple(_as_int(v) for v in values)
    except TypeError:
        return None
    return out if size is None or len(out) == size else None


class Instance:
    """A point set with border constraints: an outer polygon plus holes.

    ``points`` defines vertex ids by position.  ``border[0]`` is the outer
    polygon, the rest are holes; each polygon is a list of vertex ids.
    An instance is valid by construction: ``__init__`` raises
    InvariantViolation listing every violation :meth:`validate` finds, so
    code handed an Instance never checks it again.
    """

    def __init__(
        self,
        points: Sequence[Point],
        border: Sequence[Sequence[int]],
    ):
        pairs = [_as_ints(p, 2) for p in points]
        polygons = [_as_ints(poly) for poly in border]
        malformed = [
            f"point {i} is not a pair of integers" if p is None
            else f"point {i} has a non-integer coordinate"
            for i, p in enumerate(pairs) if p is None or None in p
        ] + [
            f"border[{b}] is not a list of vertex ids" if poly is None
            else f"border[{b}] has a non-integer vertex id"
            for b, poly in enumerate(polygons) if poly is None or None in poly
        ]
        if malformed:
            raise InvariantViolation("invalid instance", malformed)
        self.points: tuple[Point, ...] = tuple(pairs)
        self.border: tuple[tuple[int, ...], ...] = tuple(polygons)
        self.n = len(self.points)
        self.n_b = sum(len(poly) for poly in self.border)
        self.h = len(self.border) - 1
        # The edges of each border polygon, in border order.
        self.polygon_edges: tuple[frozenset[Edge], ...] = tuple(
            frozenset(
                canonical_edge(poly[k], poly[(k + 1) % len(poly)])
                for k in range(len(poly))
            )
            for poly in self.border
        )
        self.border_edges: frozenset[Edge] = frozenset().union(
            *self.polygon_edges
        )
        self._admissible: Optional[tuple[Edge, ...]] = None
        violations = self.validate()
        if violations:
            raise InvariantViolation("invalid instance", violations)

    def __eq__(self, other):
        return (
            isinstance(other, Instance)
            and self.points == other.points
            and self.border == other.border
        )

    def __hash__(self):
        return hash((self.points, self.border))

    def __repr__(self):
        return f"Instance(n={self.n}, n_b={self.n_b}, h={self.h})"

    def border_coords(self) -> list[list[Point]]:
        return [[self.points[v] for v in poly] for poly in self.border]

    def segment(self, e: Edge) -> Segment:
        return (self.points[e[0]], self.points[e[1]])

    @property
    def is_pinched(self) -> bool:
        """True when two border polygons share a vertex."""
        seen: set[int] = set()
        for poly in self.border:
            for v in set(poly):
                if v in seen:
                    return True
            seen.update(poly)
        return False

    def validate(self) -> list[str]:
        """All violated instance invariants, empty when valid."""
        out: list[str] = []
        if len(set(self.points)) != self.n:
            out.append("duplicate points")
        if not self.border:
            out.append("no outer border polygon")
            return out
        for b, poly in enumerate(self.border):
            if len(poly) < 3:
                out.append(f"border[{b}] has fewer than 3 vertices")
                continue
            if any(v < 0 or v >= self.n for v in poly):
                out.append(f"border[{b}] has out-of-range vertex ids")
                continue
            if len(set(poly)) != len(poly):
                out.append(f"border[{b}] repeats a vertex")
            segs = list(
                geometry.segments_of_polygon([self.points[v] for v in poly])
            )
            for i in range(len(segs)):
                for j in range(i + 1, len(segs)):
                    if geometry.properly_intersect(segs[i], segs[j]):
                        out.append(f"border[{b}] is not simple")
        if out:
            return out
        coords = self.border_coords()
        # Polygons must not overlap: no crossings, no shared edges.
        for b1 in range(len(self.border)):
            for b2 in range(b1 + 1, len(self.border)):
                for s1 in geometry.segments_of_polygon(coords[b1]):
                    for s2 in geometry.segments_of_polygon(coords[b2]):
                        if geometry.properly_intersect(s1, s2):
                            out.append(
                                f"border[{b1}] and border[{b2}] cross"
                            )
        for b1 in range(len(self.border)):
            for b2 in range(b1 + 1, len(self.border)):
                if self.polygon_edges[b1] & self.polygon_edges[b2]:
                    out.append(f"border[{b1}] and border[{b2}] share an edge")
        # Point containment rules.
        outer = [coords[0]]
        for i, p in enumerate(self.points):
            where = geometry.point_in_region(p, outer)
            if where == geometry.OUTSIDE:
                out.append(f"point {i} lies strictly outside the outer border")
        for b in range(1, len(self.border)):
            hole = [coords[b]]
            for i, p in enumerate(self.points):
                if i in self.border[b]:
                    continue
                if geometry.point_in_region(p, hole) == INSIDE:
                    out.append(f"point {i} lies strictly inside hole {b}")
            for v in self.border[b]:
                if geometry.point_in_region(self.points[v], outer) == geometry.OUTSIDE:
                    out.append(f"hole {b} vertex {v} is outside the outer border")
        inside, _ = _segment_defects(self, sorted(self.border_edges))
        out += [f"point {k} lies on the interior of border edge {e}" for k, e in inside]
        return out

    def admissible_pairs(self) -> tuple[Edge, ...]:
        """All vertex pairs whose open segment can be a triangulation edge:
        those with no :func:`_segment_defects` that cross no border edge."""
        if self._admissible is None:
            pairs = [(i, j) for i in range(self.n) for j in range(i + 1, self.n)]
            crossing = kernels.crossing_matrix(
                kernels.segments_array([self.segment(e) for e in pairs]),
                kernels.segments_array([self.segment(e) for e in self.border_edges]),
            ).any(axis=1)
            pairs = [e for e, c in zip(pairs, crossing) if not c]
            inside, leaving = _segment_defects(self, pairs)
            bad = {e for _, e in inside}.union(leaving)
            self._admissible = tuple(e for e in pairs if e not in bad)
        return self._admissible


def _segment_defects(inst: Instance, edges: Sequence[Edge]) -> tuple[list, list]:
    """Why the segments of ``edges`` are not admissible, in edge order.

    ``(k, e)`` for every vertex k strictly inside a segment e, and every
    non-border e whose midpoint is not inside the region.  A segment free of
    both that crosses no border edge is admissible.
    """
    coords = inst.border_coords()
    inside: list[tuple[int, Edge]] = []
    leaving: list[Edge] = []
    for e in edges:
        seg = inst.segment(e)
        inside += [
            (k, e) for k, p in enumerate(inst.points)
            if k not in e and geometry.point_on_open_segment(p, seg)
        ]
        if e not in inst.border_edges and (
            geometry.midpoint_in_region(seg, coords) != INSIDE
        ):
            leaving.append(e)
    return inside, leaving


class Quadrilateral(NamedTuple):
    """Two adjacent triangles abc, acd sharing the diagonal ac.

    ``vertices`` lists a, b, c, d in counter-clockwise boundary order, so
    the diagonal is (a, c) and the flip replacement is (b, d).
    """

    diagonal: Edge
    opposite: Edge
    strictly_convex: bool
    vertices: tuple[int, int, int, int]


class Triangulation:
    """An immutable maximal edge set over an instance.

    Equality and hashing are on the edge set, matching set-equality of
    triangulations.  The edge -> apex map is derived on demand and cached.
    """

    def __init__(self, instance: Instance, edges: Iterable[Edge]):
        self.instance = instance
        self.edges: frozenset[Edge] = frozenset(
            canonical_edge(*e) for e in edges
        )
        self._apexes: Optional[ApexMap] = None
        self._violations: Optional[list[str]] = None
        self._interior_sorted: Optional[tuple[Edge, ...]] = None
        self._interior_array = None

    def __eq__(self, other):
        return (
            isinstance(other, Triangulation)
            and self.instance == other.instance
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash(self.edges)

    def __repr__(self):
        return f"Triangulation({len(self.edges)} edges over {self.instance!r})"

    def key(self) -> tuple[Edge, ...]:
        """Canonical identity: the sorted edge list."""
        return tuple(sorted(self.edges))

    def segment(self, e: Edge) -> Segment:
        return self.instance.segment(e)

    def interior_edges(self) -> tuple[Edge, ...]:
        if self._interior_sorted is None:
            self._interior_sorted = tuple(
                sorted(self.edges - self.instance.border_edges)
            )
        return self._interior_sorted

    def interior_array(self):
        """Interior-edge coordinates packed for the batch kernels."""
        if self._interior_array is None:
            self._interior_array = kernels.segments_array(
                [self.segment(e) for e in self.interior_edges()]
            )
        return self._interior_array


def require_same_instance(t1: Triangulation, t2: Triangulation) -> None:
    """Raise InstanceMismatch unless both triangulate the same instance."""
    if t1.instance != t2.instance:
        raise InstanceMismatch("triangulations have different instances")


def angular_cmp(
    origin: Point, points: Sequence[Point]
) -> Callable[[int, int], int]:
    """Exact comparator ordering vertex ids ccw around origin.

    Angles start at the positive x direction; -1, 0 and 1 mean before, at
    the same angle as, and after.
    """

    def half(p: Point) -> int:
        dx, dy = p[0] - origin[0], p[1] - origin[1]
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def cmp(u: int, v: int) -> int:
        pu, pv = points[u], points[v]
        hu, hv = half(pu), half(pv)
        if hu != hv:
            return -1 if hu < hv else 1
        cross = (pu[0] - origin[0]) * (pv[1] - origin[1]) - (
            pu[1] - origin[1]
        ) * (pv[0] - origin[0])
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        return 0

    return cmp


def faces(t: Triangulation) -> tuple[tuple[int, int, int], ...]:
    """All bounded triangular faces inside the region, as ccw vertex triples.

    Traces the rotation system: around each vertex, neighbours are sorted by
    exact angle; following predecessor links walks every face with its
    interior on the left.  Cycles with positive signed area are the interior
    faces.  The outer cycle comes out clockwise (negative area) and is
    dropped; each hole interior is a bounded face too, traced ccw, and is
    recognized by its boundary polygon and dropped as well.  Not cached:
    :func:`apex_map` is the per-triangulation cache.
    """
    inst = t.instance
    pts = inst.points
    hole_signatures = [
        (frozenset(poly), edges)
        for poly, edges in zip(inst.border[1:], inst.polygon_edges[1:])
    ]
    adj: dict[int, list[int]] = {}
    for a, b in t.edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    order: dict[int, list[int]] = {}
    pos: dict[tuple[int, int], int] = {}
    for v, nbrs in adj.items():
        nbrs.sort(key=functools.cmp_to_key(angular_cmp(pts[v], pts)))
        order[v] = nbrs
        for idx, u in enumerate(nbrs):
            pos[(v, u)] = idx
    result: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int]] = set()
    for a, b in sorted(t.edges):
        for start in ((a, b), (b, a)):
            if start in seen:
                continue
            cycle = []
            cur = start
            while cur not in seen:
                seen.add(cur)
                cycle.append(cur[0])
                u, v = cur
                nbrs = order[v]
                cur = (v, nbrs[(pos[(v, u)] - 1) % len(nbrs)])
            area2 = 0
            for i in range(len(cycle)):
                p = pts[cycle[i]]
                q = pts[cycle[(i + 1) % len(cycle)]]
                area2 += p[0] * q[1] - q[0] * p[1]
            if area2 <= 0:
                continue  # outer face
            cycle_edges = frozenset(
                canonical_edge(cycle[i], cycle[(i + 1) % len(cycle)])
                for i in range(len(cycle))
            )
            if (frozenset(cycle), cycle_edges) in hole_signatures:
                continue  # the untriangulated interior of a hole
            if len(cycle) != 3:
                raise NotATriangulation(
                    f"bounded face {cycle} has {len(cycle)} vertices"
                )
            result.append(tuple(cycle))
    result.sort(key=sorted)
    return tuple(result)


def apex_map(t: Triangulation) -> ApexMap:
    """Edge -> the third vertex of each face incident to it, cached on t.

    A face is determined by an edge and its apex, so this is the edge ->
    incident-faces map: one apex for a border edge, two for an interior one.
    Every edge bounds a face, so the keys are t's edges.  Faces are traced
    once per triangulation; callers must not mutate the shared map.
    """
    if t._apexes is None:
        t._apexes = _apexes_of(faces(t))
    return t._apexes


def _apexes_of(triangles: Iterable[tuple[int, int, int]]) -> ApexMap:
    apexes: ApexMap = {}
    for a, b, c in triangles:
        for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
            e = canonical_edge(u, v)
            apexes[e] = apexes.get(e, ()) + (w,)
    return apexes


def apex_quadrilateral(
    pts: Sequence[Point], apexes: ApexMap, e: Edge
) -> Optional[Quadrilateral]:
    """The quadrilateral with e as diagonal, read from an edge -> apex map.

    Every edge of a triangulation bounds a face, so the map's keys are its
    edges.  None for a border edge.
    """
    e = canonical_edge(*e)
    incident = apexes.get(e)
    if incident is None:
        raise EdgeNotInTriangulation(f"edge {e} not in triangulation")
    if len(incident) < 2:
        return None
    a, c = e
    x, y = incident
    if geometry.orient(pts[a], pts[c], pts[x]) < 0:
        b, d = x, y
    else:
        b, d = y, x
    # The faces abc and acd are non-degenerate, so b and d lie strictly on
    # opposite sides of ac; the quadrilateral is strictly convex iff a and c
    # lie strictly on opposite sides of bd too, i.e. the diagonals cross.
    strictly_convex = (
        geometry.orient(pts[b], pts[d], pts[a])
        * geometry.orient(pts[b], pts[d], pts[c])
        < 0
    )
    return Quadrilateral(
        diagonal=e,
        opposite=canonical_edge(b, d),
        strictly_convex=strictly_convex,
        vertices=(a, b, c, d),  # ccw boundary order
    )


def _require_flippable(e: Edge, quad: Optional[Quadrilateral]) -> Quadrilateral:
    if quad is None:
        raise NotFlippable(f"edge {e} is a border edge")
    if not quad.strictly_convex:
        raise NotFlippable(f"quadrilateral of {e} is not strictly convex")
    return quad


def quadrilateral_of(t: Triangulation, e: Edge) -> Optional[Quadrilateral]:
    """The quadrilateral with e as diagonal, or None for a border edge."""
    return apex_quadrilateral(t.instance.points, apex_map(t), e)


def flip(t: Triangulation, e: Edge) -> Triangulation:
    """Replace diagonal e with the opposite diagonal of its quadrilateral."""
    e = canonical_edge(*e)
    quad = _require_flippable(e, quadrilateral_of(t, e))
    return Triangulation(t.instance, (t.edges - {e}) | {quad.opposite})


def _replace_apex(apexes: ApexMap, e: Edge, old: int, new: int) -> None:
    pair = apexes[e]
    i = pair.index(old)
    apexes[e] = pair[:i] + (new,) + pair[i + 1:]


def flip_apexes(apexes: ApexMap, quad: Quadrilateral) -> None:
    """Rewrite an apex map in place for the flip of ``quad``'s diagonal.

    The ccw faces abc and acd become abd and bcd: the four sides of the
    quadrilateral change one apex each, the diagonal is replaced.
    """
    a, b, c, d = quad.vertices
    _replace_apex(apexes, canonical_edge(a, b), c, d)
    _replace_apex(apexes, canonical_edge(b, c), a, d)
    _replace_apex(apexes, canonical_edge(c, d), a, b)
    _replace_apex(apexes, canonical_edge(d, a), c, b)
    del apexes[quad.diagonal]
    apexes[quad.opposite] = (a, c)


class MutableTriangulation:
    """A triangulation that flips in place, in O(1) per flip.

    Holds a copy of ``apex_map(t)``; each flip rewrites the two faces of its
    quadrilateral and touches only the five edges they contain, where
    :func:`flip` builds a new triangulation whose faces are traced again.
    """

    def __init__(self, t: Triangulation):
        self.instance = t.instance
        self.apexes: ApexMap = dict(apex_map(t))

    @property
    def edges(self):
        """The current edge set: every edge bounds a face."""
        return self.apexes.keys()

    def quadrilateral(self, e: Edge) -> Optional[Quadrilateral]:
        """The quadrilateral with e as diagonal, or None for a border edge."""
        return apex_quadrilateral(self.instance.points, self.apexes, e)

    def flip(self, e: Edge) -> None:
        """Replace diagonal e with the opposite diagonal, in place."""
        e = canonical_edge(*e)
        quad = _require_flippable(e, self.quadrilateral(e))
        flip_apexes(self.apexes, quad)

    def freeze(self) -> Triangulation:
        """An immutable copy of the current edge set."""
        return Triangulation(self.instance, self.edges)


def greedy_triangulate(
    inst: Instance,
    priority: Optional[Callable[[Edge], object]] = None,
) -> Triangulation:
    """Build a triangulation by inserting admissible pairs in priority order.

    Border edges are inserted first; every further candidate is accepted iff
    it crosses no accepted edge.  An admissible pair never crosses a border
    edge, so only the accepted interior edges are tested.  The default
    priority is lexicographic on (min id, max id), which makes the output
    deterministic.
    """
    candidates = list(inst.admissible_pairs())
    candidates.sort(key=priority if priority is not None else lambda e: e)
    accepted_segs: list[Segment] = []
    chosen = set(inst.border_edges)
    for e in candidates:
        if e in chosen:
            continue
        seg = inst.segment(e)
        if any(geometry.properly_intersect(seg, s) for s in accepted_segs):
            continue
        chosen.add(e)
        accepted_segs.append(seg)
    return Triangulation(inst, chosen)


def validate(t: Triangulation) -> list[str]:
    """Every violated triangulation invariant; empty means valid.

    A valid triangulation costs one :func:`faces` trace: it is accepted by
    the face certificate of :func:`_face_certificate`, whose edge -> apex
    map becomes ``t``'s cached :func:`apex_map`.  Any other set gets the full
    checks of :func:`_violations`, so each violation names its edges.  The
    verdict is cached on ``t``; each call returns a fresh list.
    """
    if t._violations is None:
        apexes = _face_certificate(t)
        if apexes is None:
            t._violations = _violations(t)
        else:
            t._violations = []
            if t._apexes is None:
                t._apexes = apexes
    return list(t._violations)


def _area2(points: Sequence[Point]) -> int:
    """Twice the signed area of a polygon, exactly (the shoelace formula)."""
    return sum(
        p[0] * q[1] - q[0] * p[1] for p, q in geometry.segments_of_polygon(points)
    )


def _face_certificate(t: Triangulation) -> Optional[ApexMap]:
    """t's edge -> apex map when its faces prove it valid, else None.

    The certificate, at the cost of one :func:`faces` trace:

    1. every border edge is in t and every edge id is valid;
    2. ``faces(t)`` traces exactly ``2n - n_b - 2 + 2h`` ccw triangles, the
       face count Euler's relation gives (see :func:`interior_edge_count`);
    3. in their apex map every border edge has one apex, every other edge two;
    4. twice their total area equals twice the region's, |outer| - sum |hole|.

    Why it suffices.  For a point p on no edge let D(p) be the number of
    traced triangles containing p.  A traced triangle lies left of each of
    its directed sides, and each directed edge bounds one traced face, so an
    edge with two apexes has a triangle on each side and D does not change
    across it; across a border edge D changes by 1.  The instance's border
    edges meet only at endpoints, so along any path D changes parity exactly
    where the number of border polygons containing p does.  Both are 0 far
    away, so D is odd, hence at least 1, wherever p is in the region (inside
    the outer polygon and in no hole): D >= [region].  The region's area is
    the integral of [outer] - sum [hole] <= [region], so 4 makes D = [region]
    almost everywhere: the triangles tile the region once.  Then
    * no two edges cross: near the crossing their triangles would overlap;
    * no vertex k with an edge lies inside an edge e: e is not a border
      edge (the instance forbids that), so e's two triangles cover a disc
      around k, which overlaps the corner of a triangle at k;
    * so the triangles triangulate the region on the n' vertices they use,
      and Euler's relation gives 2n' - n_b - 2 + 2h triangles: by 2, n' = n,
      so no vertex is isolated (nor, by the point above, inside an edge) and
      t has ``interior_edge_count`` interior edges;
    * a non-border edge's open segment is covered from both sides and meets
      no border edge, so its midpoint is inside the region.
    These are the checks of :func:`_violations`, which would find nothing.
    Conversely, unless a hole overlaps another or leaves the outer polygon
    (which only a pinched instance can do), each valid triangulation
    passes: its rotation system is sorted by exact angle, so its bounded
    faces are traced as its triangles.  Any input that fails gets the full
    checks.
    """
    inst = t.instance
    if not inst.border_edges <= t.edges or any(
        not 0 <= a < b < inst.n for a, b in t.edges
    ):
        return None
    try:
        triangles = faces(t)
    except NotATriangulation:
        return None
    if len(triangles) != 2 * inst.n - inst.n_b - 2 + 2 * inst.h:
        return None
    apexes = _apexes_of(triangles)
    if len(apexes) != len(t.edges) or any(
        len(incident) != (1 if e in inst.border_edges else 2)
        for e, incident in apexes.items()
    ):
        return None
    outer, *holes = (abs(_area2(poly)) for poly in inst.border_coords())
    pts = inst.points
    area2 = sum(_area2([pts[a], pts[b], pts[c]]) for a, b, c in triangles)
    return apexes if area2 == outer - sum(holes) else None


def _violations(t: Triangulation) -> list[str]:
    inst = t.instance
    out = [f"missing border edge {e}" for e in sorted(inst.border_edges - t.edges)]
    edges = sorted(t.edges)
    for e in edges:
        if e[0] < 0 or e[1] >= inst.n or e[0] == e[1]:
            out.append(f"invalid edge {e}")
            return out
    packed = kernels.segments_array([inst.segment(e) for e in edges])
    crossing = np.triu(kernels.crossing_matrix(packed, packed))
    for i, j in zip(*np.nonzero(crossing)):  # row-major: i, then j
        out.append(f"edges {edges[i]} and {edges[j]} cross")
    inside, leaving = _segment_defects(inst, edges)
    out += [f"vertex {k} lies inside edge {e}" for k, e in inside]
    out += [f"edge {e} leaves the region" for e in leaving]
    expected = interior_edge_count(inst.n, inst.n_b, inst.h)
    actual = len(t.edges - inst.border_edges)
    if not out and actual == expected:
        return out
    candidates = sorted(set(inst.admissible_pairs()) - t.edges)
    blocked = kernels.crossing_matrix(
        kernels.segments_array([inst.segment(e) for e in candidates]), packed
    ).any(axis=1)
    for cand, hit in zip(candidates, blocked):
        if not hit:
            out.append(f"not maximal: edge {cand} could be added")
    if not out and actual != expected:
        out.append(f"interior edge count {actual} != expected {expected}")
    return out
