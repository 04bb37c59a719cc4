"""Constrained triangulations: construction, validation, faces, flips."""

from __future__ import annotations

import functools
import operator
from itertools import accumulate, chain, pairwise
from typing import Callable, Collection, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import geometry, kernels
from .errors import (
    EdgeNotInTriangulation,
    InstanceMismatch,
    InvariantViolation,
    NotATriangulation,
    NotFlippable,
)
from .geometry import INSIDE, OUTSIDE, Point, Segment

Edge = tuple[int, int]
# Edge -> the third vertex of each face incident to it (see apex_map).
ApexMap = dict[Edge, tuple[int, ...]]
# The sides ab, bc, cd, da of a quadrilateral abcd, each a canonical edge.
Sides = tuple[Edge, Edge, Edge, Edge]


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


def _exact_ints(points: tuple, border: tuple) -> Optional[tuple]:
    """``points`` and ``border`` as tuples of tuples when every point is a
    tuple or list of two exact ints and every polygon a tuple or list of
    exact ints (a bool is not one), else None: :func:`_coerced`'s fast path,
    which recognises by type alone the input that needs no coercion."""
    if not (
        {*map(type, points), *map(type, border)} <= {tuple, list}
        and {*map(len, points)} <= {2}
    ):
        return None
    points, border = tuple(map(tuple, points)), tuple(map(tuple, border))
    values = chain(chain.from_iterable(points), chain.from_iterable(border))
    return (points, border) if {*map(type, values)} <= {int} else None


def _coerced(points, border) -> tuple:
    """``points`` and ``border`` as tuples of tuples, with every coordinate
    and id an exact int (numpy integers too); raises InvariantViolation
    naming each point and polygon that is not one."""
    points, border = tuple(points), tuple(border)
    exact = _exact_ints(points, border)
    if exact is not None:
        return exact
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
    return tuple(pairs), tuple(polygons)


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
        points, border = _coerced(points, border)
        self.points: tuple[Point, ...] = points
        self.border: tuple[tuple[int, ...], ...] = border
        self.n = len(self.points)
        self.n_b = sum(len(poly) for poly in self.border)
        self.h = len(self.border) - 1
        # The polygons with valid ids, whose directed edges, in border order,
        # are the rows of the sign table (see :meth:`validate`), and those
        # edges canonical, from one pass: the edges of each such polygon.
        # validate reports the other polygons, and an instance with one is
        # refused before anything reads their edges.
        self._valid = [
            b for b, poly in enumerate(self.border)
            if len(poly) >= 3 and 0 <= min(poly) and max(poly) < self.n
        ]
        self._ends = _directed_edges([self.border[b] for b in self._valid])
        self._sides: list[Edge] = [
            (a, b) if a < b else (b, a) for a, b in self._ends.tolist()
        ]
        starts = accumulate((len(self.border[b]) for b in self._valid), initial=0)
        edges = {
            b: frozenset(self._sides[lo:hi])
            for b, (lo, hi) in zip(self._valid, pairwise(starts))
        }
        self.polygon_edges: tuple[frozenset[Edge], ...] = tuple(
            edges.get(b, frozenset()) for b in range(len(self.border))
        )
        self.border_edges: frozenset[Edge] = frozenset(self._sides)
        self._admissible: Optional[tuple[Edge, ...]] = None
        self._edge_index: Optional[dict[Edge, int]] = None
        # The points packed once for the kernels (see :meth:`segments`), and
        # the sign table that :meth:`validate` builds from them.
        self._packed = kernels.Points(self.points)
        self._signs: Optional[np.ndarray] = None
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

    @functools.cached_property
    def region_area2(self) -> int:
        """Twice the region's area, exactly: |outer| - sum |hole|."""
        outer, *holes = (abs(_area2(poly)) for poly in self.border_coords())
        return outer - sum(holes)

    def segment(self, e: Edge) -> Segment:
        return (self.points[e[0]], self.points[e[1]])

    def segments(self, edges: Sequence[Edge]) -> np.ndarray:
        """The segments of ``edges``, vertex-id pairs, packed as the
        coordinate kernel (:func:`kernels.crossing_matrix`) reads them: an
        (m, 4) array [ax, ay, bx, by].  Under the int64
        gate its rows index the packed points; beyond it the coordinates
        themselves are packed, as Python ints past int64."""
        if self._packed.array is None:
            return kernels.segments_array([self.segment(e) for e in edges])
        ids = np.array(edges, dtype=np.int64).reshape(-1, 2)
        return self._packed.array[ids].reshape(-1, 4)

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
        """All violated instance invariants, empty when valid.

        Builds the instance's sign table, which :meth:`admissible_pairs`
        reads too: the sign of every vertex against the line of every
        directed edge of the polygons with valid ids, in border order
        (:func:`kernels.orientation_signs`, int8).  The border crossings,
        the vertices on border edges and the ray parity that places every
        other point are read off it.
        """
        out: list[str] = []
        if len(set(self.points)) != self.n:
            out.append("duplicate points")
        if not self.border:
            out.append("no outer border polygon")
            return out
        # The sign table: rows are the directed edges of every polygon with
        # valid ids, in border order.
        valid, ends, sides = self._valid, self._ends, self._sides
        packed = self._packed
        signs = self._signs = kernels.orientation_signs(packed, ends)
        owner = [b for b in valid for _ in self.border[b]]
        # Consecutive edges share a vertex, so they never cross and need no
        # mask.  The first crossing of each pair of polygons, by owner ids,
        # in row-major order: within one polygon it names the earlier edge
        # first.
        rows, cols = np.nonzero(
            kernels.segment_crossings(packed, ends, ends, signs, signs)
        )
        witness: dict[tuple[int, int], str] = {}
        for i, j in zip(rows.tolist(), cols.tolist()):
            witness.setdefault(
                (owner[i], owner[j]), f"edges {sides[i]} and {sides[j]} cross"
            )
        for b, poly in enumerate(self.border):
            if len(poly) < 3:
                out.append(f"border[{b}] has fewer than 3 vertices")
                continue
            if b not in valid:
                out.append(f"border[{b}] has out-of-range vertex ids")
                continue
            if len(set(poly)) != len(poly):
                out.append(f"border[{b}] repeats a vertex")
            if (b, b) in witness:
                out.append(f"border[{b}] is not simple: {witness[b, b]}")
        if out:
            return out
        # Polygons must not overlap: no crossings, no shared edges.
        for b1 in range(len(self.border)):
            for b2 in range(b1 + 1, len(self.border)):
                if (b1, b2) in witness:
                    out.append(
                        f"border[{b1}] and border[{b2}] cross: {witness[b1, b2]}"
                    )
        for b1 in range(len(self.border)):
            for b2 in range(b1 + 1, len(self.border)):
                if self.polygon_edges[b1] & self.polygon_edges[b2]:
                    out.append(f"border[{b1}] and border[{b2}] share an edge")
        # Point containment rules.  The points are distinct and every polygon
        # has rows.  Point k is on polygon b's boundary when it is one of b's
        # corners or lies inside one of b's edges.
        rows, ks = kernels.vertices_inside(packed, ends, signs)
        found = {(sides[r], k) for r, k in zip(rows.tolist(), ks.tolist())}
        hits = [(k, e) for e, k in sorted(found)]
        corners = [set(poly) for poly in self.border]
        on = [
            corners[b] | {k for k, e in hits if e in edges}
            for b, edges in enumerate(self.polygon_edges)
        ]
        # Otherwise ray parity places it.
        parity = _ray_parities(self, ends)
        for k in np.flatnonzero(~parity[0]).tolist():
            if k not in on[0]:
                out.append(f"point {k} lies strictly outside the outer border")
        for b in range(1, len(self.border)):
            for k in np.flatnonzero(parity[b]).tolist():
                if k not in on[b]:
                    out.append(f"point {k} lies strictly inside hole {b}")
            # A hole that shares vertices with the outer polygon can lie in
            # a notch outside it, and one that shares vertices with another
            # hole can nest inside it, with no vertex outside or inside and
            # no crossing edge.  Without a shared vertex neither can: the
            # hole would have a vertex outside the outer polygon, or inside
            # the other hole or on its edges.
            for b2 in range(len(self.border)):
                if b2 == b or corners[b].isdisjoint(corners[b2]):
                    continue
                coords = [self.points[v] for v in self.border[b2]]
                for e in sorted(self.polygon_edges[b]):
                    w = geometry.midpoint_in_region(self.segment(e), [coords])
                    if b2 == 0 and w == OUTSIDE:
                        out.append(f"hole {b} edge {e} is outside the outer border")
                    elif b2 > 0 and w == INSIDE:
                        out.append(f"hole {b} edge {e} lies inside hole {b2}")
        out += [f"point {k} lies on the interior of border edge {e}" for k, e in hits]
        return out

    def admissible_pairs(self) -> tuple[Edge, ...]:
        """All vertex pairs whose open segment can be a triangulation edge,
        sorted: those that cross no border edge, hold no vertex strictly
        inside, and are border edges or have their midpoint strictly inside
        the region.

        Every border edge qualifies in a valid instance.  Any other pair is
        read off signs alone, from the instance's sign table S (the sign of
        every vertex against the line of every directed border edge, built by
        :meth:`validate`) and one table of the pair's line against every
        vertex, in three filters:

        1. It leaves both endpoints into the region.  A vertex on no polygon
           lies strictly inside the region (the instance's point rules), so
           every direction leaves it into the region.  At a border vertex v
           the direction to q must lie strictly inside the region's corner at
           v on every polygon through v (a pinched vertex has one corner per
           polygon).  With each row of S signed so that the region is on its
           left, let a -> v and v -> b be the corner's rows: q is inside iff
           it is left of both rows at a convex or straight corner, and left
           of either at a reflex one, where the row a -> v is negative at b.
        2. It crosses no border edge.  A proper crossing needs the pair's
           ends strictly on opposite sides of the edge's line, so an edge
           with no vertex strictly on one side of its line cannot be
           crossed, and only the others are tested: a pair crosses edge ab
           iff its ends have opposite signs in ab's row of S and a and b
           have opposite signs against the pair's line.  A convex instance
           without holes tests none.
        3. No vertex lies inside it: one that does is a zero of the pair's
           line other than its own ends, in its bounding box.

        Why 1 replaces the midpoint: the open segment of a pair that passes
        2 and 3 misses the border.  It contains no vertex, so it meets no
        border edge at an endpoint; a touch inside both segments off their
        common line would be a proper crossing; on their common line, the
        open segment is not the border edge itself, so one of its ends would
        lie inside the border edge, which the instance forbids.  So the open
        segment lies in the open region or wholly outside it, and its points
        near either endpoint decide which: near v only the border edges at v
        come near, and the segment leaves v along none of them (that would
        put a vertex inside one of the two).  Every filter changes the order
        of work, not the result, and each reads signs only, so the pairs are
        exact on both kernels.
        """
        if self._admissible is None:
            ends = self._ends
            ids = np.stack(np.triu_indices(self.n, 1), axis=1)
            table = np.zeros((self.n, self.n), dtype=bool)
            table[tuple(ends.T)] = table[tuple(ends.T[::-1])] = True
            keep = table[tuple(ids.T)]
            others = np.flatnonzero(~keep)
            others = others[_leaves_into_region(self, ends, ids[others])]
            others = others[~_crosses_or_holds(self, ends, ids[others])]
            keep[others] = True
            self._admissible = tuple(map(tuple, ids[keep].tolist()))
        return self._admissible

    def edge_index(self) -> dict[Edge, int]:
        """Admissible pair -> its position in :meth:`admissible_pairs`: the
        bit that stands for it in a triangulation's :meth:`Triangulation.key`."""
        if self._edge_index is None:
            self._edge_index = {e: i for i, e in enumerate(self.admissible_pairs())}
        return self._edge_index

    def edges_of(self, key: int) -> tuple[Edge, ...]:
        """The sorted edge list a :meth:`Triangulation.key` stands for."""
        pairs = self.admissible_pairs()
        edges = []
        while key:
            low = key & -key
            edges.append(pairs[low.bit_length() - 1])
            key ^= low
        return tuple(edges)


def _directed_edges(polygons: Sequence[Sequence[int]]) -> np.ndarray:
    """The directed edges of ``polygons``, whose ids must be valid, in
    border order: an (m, 2) int64 array of tail and head ids."""
    tails = [v for poly in polygons for v in poly]
    heads = [v for poly in polygons for v in (*poly[1:], *poly[:1])]
    return np.array([tails, heads], dtype=np.int64).T.reshape(-1, 2)


def _ray_parities(inst: Instance, ends: np.ndarray) -> np.ndarray:
    """Boolean (polygons, n) table: entry (b, k) is
    ``geometry.ray_crossing_parity(point k, polygon b)``, read off the sign
    table of the directed edges ``ends`` of every polygon.

    The half-open rule of that predicate: a rightward ray from p crosses
    edge ab iff exactly one of a and b lies above p and p is strictly left
    of the edge directed upwards, whose sign is the row's when b is the one
    above and the opposite one otherwise.
    """
    signs, y = inst._signs, inst._packed.exact[:, 1]
    tail_above, head_above = (y[v][:, None] > y for v in ends.T)
    crossed = (tail_above != head_above) & np.where(head_above, signs > 0, signs < 0)
    starts = list(accumulate(map(len, inst.border[:-1]), initial=0))
    return np.logical_xor.reduceat(crossed, starts, axis=0)


def _leaves_into_region(
    inst: Instance, ends: np.ndarray, pairs: np.ndarray
) -> np.ndarray:
    """Whether each pair of vertex ids leaves both of its ends into the
    region: filter 1 of :meth:`Instance.admissible_pairs`, read off the sign
    table of the directed border edges ``ends``."""
    n, sizes = inst.n, [len(poly) for poly in inst.border]
    # Each row signed with the region on its left: the outer polygon ccw,
    # each hole cw.
    left = np.repeat(
        [
            1 if (_area2(coords) > 0) == (b == 0) else -1
            for b, coords in enumerate(inst.border_coords())
        ],
        sizes,
    ).astype(np.int8)
    region = inst._signs * left[:, None]
    # The corner at the tail v of each row lies between the rows a -> v and
    # v -> b of its polygon, directed region-wise.  q is inside it iff q is
    # left of both rows, or of either at a reflex corner: where a -> v is
    # negative at b.
    row = np.arange(len(ends))
    position = np.concatenate([np.arange(k) for k in sizes])
    before = row - position + (position - 1) % np.repeat(sizes, sizes)
    into, out = np.where(left > 0, before, row), np.where(left > 0, row, before)
    reflex = region[into, np.where(left > 0, ends[out, 1], ends[out, 0])] < 0
    left_of_in, left_of_out = region[into] > 0, region[out] > 0
    inside = np.where(
        reflex[:, None], left_of_in | left_of_out, left_of_in & left_of_out
    )
    # Entry (v, q): whether the direction from v to q is inside every corner
    # at v, one per polygon through v; a vertex on no polygon has none.
    enters = np.ones((n, n), dtype=bool)
    corner = ends[:, 0]
    enters[corner] = inside
    pinched = np.bincount(corner, minlength=n)[corner] > 1
    if pinched.any():
        np.logical_and.at(enters, corner[pinched], inside[pinched])
    p, q = pairs.T
    return enters[p, q] & enters[q, p]


def _crosses_or_holds(
    inst: Instance, ends: np.ndarray, pairs: np.ndarray
) -> np.ndarray:
    """Whether each pair of vertex ids crosses a border edge or holds a
    vertex strictly inside: filters 2 and 3 of
    :meth:`Instance.admissible_pairs`.  Per block of pairs, one table of
    their lines against every vertex feeds both kernels, with the
    instance's sign table, whose rows are the directed border edges
    ``ends``, for the border edges a pair could cross."""
    crossable = _crossable(inst._signs)
    border, border_signs = ends[crossable], inst._signs[crossable]
    out = np.zeros(len(pairs), dtype=bool)
    # A block is one gather's worth of int8 cells: orientation_signs blocks
    # its int64 temporaries itself.
    step = kernels._rows_per_block(inst.n, kernels._GATHER_BLOCK)
    for lo in range(0, len(pairs), step):
        block = pairs[lo:lo + step]
        line = kernels.orientation_signs(inst._packed, block)
        bad = out[lo:lo + step]
        # The border rows come first, so only the block's table is
        # transposed.
        if len(crossable):
            bad |= kernels.segment_crossings(
                inst._packed, border, block, border_signs, line
            ).any(axis=0)
        bad[kernels.vertices_inside(inst._packed, block, line)[0]] = True
    return out


def _crossable(signs: np.ndarray) -> np.ndarray:
    """The rows of a sign table whose line has a vertex strictly on each
    side: the only border edges that a vertex pair can cross properly."""
    return np.flatnonzero((signs > 0).any(axis=1) & (signs < 0).any(axis=1))


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
        # The triangles whose face certificate validate accepted, and the
        # ids of their sides (see _face_certificate).
        self._triangles: Optional[np.ndarray] = None
        self._sides: Optional[np.ndarray] = None
        self._key: Optional[int] = None
        self._violations: Optional[list[str]] = None
        self._interior_sorted: Optional[tuple[Edge, ...]] = None
        self._interior_array = None
        self._table: Optional[EdgeSigns] = None

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

    def key(self) -> int:
        """Canonical identity: an int with bit i set iff the instance's i-th
        admissible pair is an edge; ``instance.edges_of`` decodes it.
        Computed once.

        Raises NotATriangulation for an edge that is not an admissible pair.
        """
        if self._key is None:
            index = self.instance.edge_index()
            try:
                self._key = sum(1 << index[e] for e in self.edges)
            except KeyError as exc:
                raise NotATriangulation(
                    f"edge {exc.args[0]} is not an admissible pair"
                ) from None
        return self._key

    def segment(self, e: Edge) -> Segment:
        return self.instance.segment(e)

    def interior_edges(self) -> tuple[Edge, ...]:
        if self._interior_sorted is None:
            self._interior_sorted = tuple(
                sorted(self.edges - self.instance.border_edges)
            )
        return self._interior_sorted

    def interior_array(self):
        """Interior-edge coordinates packed for the coordinate kernel
        (:func:`kernels.crossing_matrix`), which only the tests and the
        benchmark's cross-check call; the package reads :func:`edge_signs`."""
        if self._interior_array is None:
            self._interior_array = self.instance.segments(self.interior_edges())
        return self._interior_array


class EdgeSigns:
    """A triangulation's sign table: the int8 sign of every vertex against
    the line of each of its own edges, directed from its smaller id to its
    larger (:func:`kernels.orientation_signs`).  Built by :func:`edge_signs`.

    ``interior_ends``, the triangulation's sorted interior edges as an
    (m, 2) int64 array of vertex ids, and ``interior_signs``, their rows,
    are built at once: :func:`crossings.count_pair`, ``count_edges`` and
    the morph read only them.  ``edges``, the triangulation's edges sorted,
    and their ``ends``, ``codes`` (u * n + v) and ``signs`` are built the
    first time the audits or :func:`validate`'s full checks read them, the
    signs by one :func:`kernels.orientation_signs` call over ``ends``.
    """

    def __init__(self, t: Triangulation):
        self.instance = t.instance
        self._edges = t.edges
        self.interior_ends = _edge_ends(t.interior_edges())
        self.interior_signs = kernels.orientation_signs(
            t.instance._packed, self.interior_ends
        )

    @functools.cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self._edges))

    @functools.cached_property
    def ends(self) -> np.ndarray:
        return _edge_ends(self.edges)

    @functools.cached_property
    def codes(self) -> np.ndarray:
        return self.ends[:, 0] * self.instance.n + self.ends[:, 1]

    @functools.cached_property
    def signs(self) -> np.ndarray:
        return kernels.orientation_signs(self.instance._packed, self.ends)

    def rows(self, ends: np.ndarray) -> np.ndarray:
        """The rows of the edges ``ends``, a (..., 2) array of vertex ids
        naming edges of the table in either direction: each row is directed
        from the smaller id to the larger, whichever way it is named."""
        tails, heads = ends[..., 0], ends[..., 1]
        codes = np.minimum(tails, heads) * self.instance.n + np.maximum(tails, heads)
        return self.signs[np.searchsorted(self.codes, codes)]


def edge_signs(t: Triangulation) -> EdgeSigns:
    """t's sign table (:class:`EdgeSigns`), the rows of its own sorted
    edges, built on first read and cached on t, like :func:`apex_map`.
    Every pair question about t gathers its crossings from it
    (:func:`kernels.segment_crossings`): ``count_pair``, the morph's
    crosser masks and the audits.  t's edge ids must be valid.
    """
    if t._table is None:
        t._table = EdgeSigns(t)
    return t._table


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
    """All triangles of t, as ccw vertex triples: the triangles whose face
    certificate :func:`validate` accepted (:func:`_face_certificate`), read
    without a second trace.  Raises InvariantViolation (:func:`require_valid`)
    unless t is a valid triangulation.

    Each triangle (x, y, z) starts at its smallest vertex x when y < z and is
    (z, x, y) otherwise, and the triangles are sorted by their sorted
    triples.  Not cached: :func:`apex_map` is the per-triangulation cache.
    """
    return _face_tuple(_accepted_triangles(t))


def _faces_exact(t: Triangulation) -> tuple[np.ndarray, list[int]]:
    """t's triangles by an exact angular sort at each vertex, as rows
    (x, y, z) ccw from their smallest vertex x, in no particular order, and
    their twice-areas, as Python ints.

    Traces the rotation system: around each vertex its neighbours sorted by
    exact angle, and the face after half-edge u->v is v->w for the neighbour
    w just before u around v.  The triangles are the 3-cycles of that
    permutation that :func:`_kept` keeps.  The edge ids must be valid.
    """
    pts = t.instance.points
    adj: dict[int, list[int]] = {}
    for a, b in t.edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    pos: dict[tuple[int, int], int] = {}
    for v, nbrs in adj.items():
        nbrs.sort(key=functools.cmp_to_key(angular_cmp(pts[v], pts)))
        for idx, u in enumerate(nbrs):
            pos[(v, u)] = idx

    def after(u: int, v: int) -> int:
        nbrs = adj[v]
        return nbrs[pos[(v, u)] - 1]

    # Each 3-cycle once, from its half-edge x -> y out of its smallest vertex.
    cycles = []
    for x, y in t.edges:
        z = after(x, y)
        if x < z and after(y, z) == x and after(z, x) == y:
            cycles.append((x, y, z))
    found = np.array(cycles, dtype=np.int64).reshape(-1, 3)
    areas = [_area2([pts[x], pts[y], pts[z]]) for x, y, z in cycles]
    keep = _kept(t.instance, found, np.array([a > 0 for a in areas], dtype=bool))
    return found[keep], [a for a, k in zip(areas, keep.tolist()) if k]


def _kept(inst: Instance, cycles: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """Which face 3-cycles, rows (x, y, z) ccw from their smallest vertex x,
    are triangles: those of positive area, less the interiors of the
    triangular holes."""
    x, y, z = cycles.T
    lo, hi = np.minimum(y, z), np.maximum(y, z)
    keep = positive.copy()
    for poly in inst.border[1:]:
        if len(poly) == 3:
            a, b, c = sorted(poly)
            keep &= (x != a) | (lo != b) | (hi != c)
    return keep


def _numbered_edges(t: Triangulation) -> tuple[Edge, ...]:
    """t's edges as the face certificate numbers them: border edges first,
    so edge i bounds one triangle if i < len(border edges), else two."""
    return (*t.instance.border_edges, *t.interior_edges())


def _edge_ends(edges: Collection[Edge]) -> np.ndarray:
    """``edges`` as an (m, 2) int64 array, in iteration order."""
    m = len(edges)
    return np.fromiter(chain.from_iterable(edges), np.int64, 2 * m).reshape(m, 2)


def _batch_trace(inst: Instance, ends: np.ndarray) -> Optional[tuple]:
    """The triangles of the edges ``ends``, an (m, 2) array of valid vertex
    ids, from one sort of all half-edges; None when the sort is not provably
    the exact rotation system.

    Half-edge h < m runs from the first end of edge h to the second, and
    h + m is its twin.  Half-edges are sorted by (origin, half-plane, float
    angle).  Each adjacent pair at one origin is then checked exactly: the
    half-plane rises, or the pair turns strictly ccw.  When every pair
    passes, each vertex's neighbours are strictly increasing in exact
    angle, which is the order the exact sort gives, so the faces are
    :func:`_faces_exact`'s.  The face after half-edge h is
    ``prev[twin[h]]``, a permutation of the half-edges.  Its triangles are
    the 3-cycles that :func:`_kept` keeps.

    Returns, by sorted position, each half-edge's origin and its own number
    h; then a (k, 3) array of the positions of each triangle's half-edges,
    ccw from its smallest vertex, and the k twice-areas.

    Both the turn tests and the twice-areas are exact in int64.  Under the
    gate a direction's coordinates are at most 2^31 in magnitude, so a
    product of two is at most 2^62.  A turn test compares two products.  A
    twice-area is the difference of two, whose true value is at most 2^62
    too (a triangle in the gate's square of side 2^31 has at most half its
    area), so int64's wrapping arithmetic gives it exactly.
    """
    points = inst._packed
    m2 = 2 * len(ends)
    tail, head = ends[:, 0], ends[:, 1]
    ex, ey = points.x[head] - points.x[tail], points.y[head] - points.y[tail]
    origin, dest = np.concatenate([tail, head]), np.concatenate([head, tail])
    dx, dy = np.concatenate([ex, -ex]), np.concatenate([ey, -ey])
    lower = (dy < 0) | ((dy == 0) & (dx < 0))  # angle in [pi, 2 pi)
    # Equal float angles fall back to vertex ids, so whether the check passes
    # does not depend on the order in which the edge set is iterated.
    order = np.lexsort((dest, np.arctan2(dy, dx) % (2 * np.pi), lower, origin))
    o, dx, dy, lower = origin[order], dx[order], dy[order], lower[order]
    new = o[1:] != o[:-1]
    ccw = dx[:-1] * dy[1:] > dy[:-1] * dx[1:]
    if not (new | (lower[:-1] != lower[1:]) | ccw).all():
        return None
    # In sorted positions: the twin of each half-edge, the one before it
    # ccw around its origin, and the next half-edge of its face.
    rank = np.empty(m2, dtype=np.int64)
    rank[order] = np.arange(m2)
    twin = rank[(order + m2 // 2) % m2]
    prev = np.arange(-1, m2 - 1)
    starts = np.flatnonzero(np.concatenate([[True], new]))
    prev[starts] = np.append(starts[1:], m2) - 1
    nxt = prev[twin]
    nxt2 = nxt[nxt]
    # Each 3-cycle once, from its smallest vertex x, ccw (x, y, z).
    y, z = o[nxt], o[nxt2]
    first = np.flatnonzero((nxt[nxt2] == np.arange(m2)) & (o < y) & (o < z))
    second = nxt[first]
    dets = dx[first] * dy[second] - dy[first] * dx[second]
    rows = np.stack([first, second, nxt2[first]], 1)
    keep = _kept(inst, o[rows], dets > 0)
    return o, order, rows[keep], dets[keep]


def _face_tuple(triangles: np.ndarray) -> tuple[tuple[int, int, int], ...]:
    """:func:`faces`' tuple of the rows (x, y, z) of ``triangles``, each ccw
    from its smallest vertex x."""
    x, y, z = triangles.T
    lo, hi = np.minimum(y, z), np.maximum(y, z)
    rotated = np.where((y < z)[:, None], triangles, triangles[:, [2, 0, 1]])
    return tuple(map(tuple, rotated[np.lexsort((hi, lo, x))].tolist()))


def _accepted_triangles(t: Triangulation) -> np.ndarray:
    """The triangles whose face certificate :func:`validate` accepted for t,
    the one source of face data; raises InvariantViolation
    (:func:`require_valid`) unless t is a valid triangulation.  Validates t
    only when it has not been accepted yet, so t is traced once."""
    if t._triangles is None:
        require_valid(t, "t")
    return t._triangles


def apex_map(t: Triangulation) -> ApexMap:
    """Edge -> the third vertex of each face incident to it, cached on t.

    A face is determined by an edge and its apex, so this is the edge ->
    incident-faces map: one apex for a border edge, two for an interior one.
    Every edge bounds a face, so the keys are t's edges.  Built by
    :func:`_apexes_of` the first time it is read, from the triangles that
    :func:`validate` accepted, in ``faces(t)``'s order, without a second
    trace.  Raises InvariantViolation unless t is a valid triangulation.
    Callers must not mutate the shared map.
    """
    if t._apexes is None:
        triangles = _accepted_triangles(t)
        t._apexes = _apexes_of(
            triangles, t._sides, _numbered_edges(t), len(t.instance.border_edges)
        )
    return t._apexes


def _apexes_of(
    triangles: np.ndarray, sides: np.ndarray, edges: Sequence[Edge], border: int
) -> ApexMap:
    """The edge -> apex map of accepted triangles: rows (x, y, z) ccw from
    their smallest vertex x, whose sides xy, yz and zx are the ``edges`` that
    ``sides`` numbers, the first ``border`` of them border edges.  Each edge
    is a side of one triangle if it is a border edge and of two otherwise,
    and lists their apexes in ``faces(t)``' order: one stable sort of the
    sides' ids, visited in that order."""
    x, y, z = triangles.T
    order = np.lexsort((np.maximum(y, z), np.minimum(y, z), x))
    # faces(t) lists (x, y, z) when y < z and (z, x, y) otherwise.
    listed = (y < z)[order, None]
    ids, rows = sides[order], triangles[order]
    ids = np.where(listed, ids, ids[:, [2, 0, 1]]).ravel()
    apexes = np.where(listed, rows[:, [2, 0, 1]], rows[:, [1, 2, 0]]).ravel()
    apexes = apexes[np.argsort(ids, kind="stable")].tolist()
    two = zip(apexes[border::2], apexes[border + 1::2])
    return dict(zip(edges, [*((a,) for a in apexes[:border]), *two]))


def apex_quadrilateral(
    pts: Sequence[Point], apexes: ApexMap, e: Edge
) -> Optional[Quadrilateral]:
    """The quadrilateral with e as diagonal, read from an edge -> apex map.

    Every edge of a triangulation bounds a face, so the map's keys are its
    edges.  None for a border edge.  A wrapper over
    :func:`_read_quadrilateral`, which takes canonical edges only.
    """
    e = canonical_edge(*e)
    if len(_incident(apexes, e)) < 2:
        return None
    b, d, strictly_convex, _ = _read_quadrilateral(pts, apexes, e)
    return Quadrilateral(
        diagonal=e,
        opposite=canonical_edge(b, d),
        strictly_convex=strictly_convex,
        vertices=(e[0], b, e[1], d),  # ccw boundary order
    )


def _incident(apexes: ApexMap, e: Edge) -> tuple[int, ...]:
    """The apexes of the canonical edge e: one for a border edge, two for an
    interior one."""
    incident = apexes.get(e)
    if incident is None:
        raise EdgeNotInTriangulation(f"edge {e} not in triangulation")
    return incident


def _read_quadrilateral(
    pts: Sequence[Point], apexes: ApexMap, e: Edge
) -> tuple[int, int, bool, Sides]:
    """b, d, strict convexity and the canonical sides ab, bc, cd, da of the
    ccw quadrilateral abcd around the canonical interior edge e = (a, c):
    the one reading of a quadrilateral, on plain ints."""
    a, c = e
    x, y = apexes[e]
    pa, pc = pts[a], pts[c]
    if geometry.orient(pa, pc, pts[x]) < 0:
        b, d = x, y
    else:
        b, d = y, x
    # The faces abc and acd are non-degenerate, so b and d lie strictly on
    # opposite sides of ac; the quadrilateral is strictly convex iff a and c
    # lie strictly on opposite sides of bd too, i.e. the diagonals cross.
    pb, pd = pts[b], pts[d]
    strictly_convex = geometry.orient(pb, pd, pa) * geometry.orient(pb, pd, pc) < 0
    return b, d, strictly_convex, (
        (a, b) if a < b else (b, a),
        (b, c) if b < c else (c, b),
        (c, d) if c < d else (d, c),
        (a, d) if a < d else (d, a),
    )


def quadrilateral_of(t: Triangulation, e: Edge) -> Optional[Quadrilateral]:
    """The quadrilateral with e as diagonal, or None for a border edge."""
    return apex_quadrilateral(t.instance.points, apex_map(t), e)


def flip(t: Triangulation, e: Edge) -> Triangulation:
    """Replace diagonal e with the opposite diagonal of its quadrilateral."""
    state = MutableTriangulation(t)
    state.flip(e)
    return state.freeze()


def _rewrite_apexes(
    apexes: ApexMap, a: int, b: int, c: int, d: int, sides: Sides
) -> Edge:
    """Rewrite an apex map in place for the flip of the canonical edge
    (a, c) in the ccw quadrilateral abcd with canonical ``sides`` ab, bc,
    cd, da; return bd, canonical.  The faces abc and acd become abd and
    bcd: each side trades one apex, and bd replaces ac.
    """
    ab, bc, cd, da = sides
    # One apex for a border side, two for an interior one.
    p = apexes[ab]
    apexes[ab] = (d,) if len(p) == 1 else (d, p[1]) if p[0] == c else (p[0], d)
    p = apexes[bc]
    apexes[bc] = (d,) if len(p) == 1 else (d, p[1]) if p[0] == a else (p[0], d)
    p = apexes[cd]
    apexes[cd] = (b,) if len(p) == 1 else (b, p[1]) if p[0] == a else (p[0], b)
    p = apexes[da]
    apexes[da] = (b,) if len(p) == 1 else (b, p[1]) if p[0] == c else (p[0], b)
    del apexes[(a, c)]
    bd = (b, d) if b < d else (d, b)
    apexes[bd] = (a, c)
    return bd


class MutableTriangulation:
    """A triangulation that flips in place, in O(1) per flip.

    Holds a copy of ``apex_map(t)``, so t must be valid; each flip rewrites
    the two faces of its quadrilateral and touches only the five edges they
    contain.  :func:`flip` is one such flip, frozen.
    """

    def __init__(self, t: Triangulation):
        self.instance = t.instance
        self.apexes: ApexMap = dict(apex_map(t))

    @property
    def edges(self):
        """The current edge set: every edge bounds a face."""
        return self.apexes.keys()

    def flip(self, e: Edge) -> Quadrilateral:
        """Replace diagonal e with the opposite diagonal, in place; return
        the quadrilateral flipped."""
        e = canonical_edge(*e)
        apexes = self.apexes
        if len(_incident(apexes, e)) < 2:
            raise NotFlippable(f"edge {e} is a border edge")
        b, d, strictly_convex, sides = _read_quadrilateral(
            self.instance.points, apexes, e
        )
        if not strictly_convex:
            raise NotFlippable(f"quadrilateral of {e} is not strictly convex")
        a, c = e
        bd = _rewrite_apexes(apexes, a, b, c, d, sides)
        return Quadrilateral(
            diagonal=e, opposite=bd, strictly_convex=True, vertices=(a, b, c, d)
        )

    def freeze(self) -> Triangulation:
        """An immutable copy of the current edge set."""
        return Triangulation(self.instance, self.edges)


# Candidates greedy_triangulate decides at a time: a block meets itself in
# one crossing grid, and the edges it accepts meet the later candidates in
# another, never all candidates.
_GREEDY_BLOCK = 64


def greedy_triangulate(
    inst: Instance,
    priority: Optional[Callable[[Edge], object]] = None,
) -> Triangulation:
    """Build a triangulation by inserting admissible pairs in priority order.

    Border edges are inserted first; every further candidate is accepted iff
    it crosses no accepted edge.  An admissible pair never crosses a border
    edge, so only the accepted interior edges are tested.  The default
    priority is lexicographic on (min id, max id), which makes the output
    deterministic.  Candidates are taken in blocks of ``_GREEDY_BLOCK``, in
    order, and eliminated forward: every candidate left crosses no edge
    accepted so far, so the crossing grid of a block against itself decides
    it, and one grid of the later candidates against the edges the block
    accepted drops those that cross one.
    """
    candidates = [e for e in inst.admissible_pairs() if e not in inst.border_edges]
    candidates.sort(key=priority if priority is not None else lambda e: e)
    ends = _edge_ends(candidates)
    chosen = set(inst.border_edges)
    # The candidates, in order, that cross no edge accepted so far.
    alive = np.arange(len(candidates))
    while len(alive):
        block, alive = alive[:_GREEDY_BLOCK], alive[_GREEDY_BLOCK:]
        # One is accepted iff it crosses none accepted before it in the block.
        own = ends[block]
        within = kernels.segment_crossings(inst._packed, own, own)
        blocked = np.zeros(len(block), dtype=bool)
        taken = []
        for i in range(len(block)):
            if not blocked[i]:
                taken.append(i)
                blocked |= within[i]
        chosen.update(candidates[k] for k in block[taken].tolist())
        if len(alive):
            crossed = kernels.segment_crossings(
                inst._packed, ends[alive], own[taken]
            ).any(axis=1)
            alive = alive[~crossed]
    return Triangulation(inst, chosen)


def validate(t: Triangulation) -> list[str]:
    """Every violated triangulation invariant; empty means valid.

    A valid triangulation costs one trace of its faces: it is accepted by
    the face certificate of :func:`_face_certificate`, whose triangles are
    kept on ``t`` for :func:`apex_map` to read if anything asks for it.
    Any other set gets the full checks of :func:`_violations`, so each
    violation names its edges.  The verdict is cached on ``t``; each call
    returns a fresh list.
    """
    if t._violations is None:
        certificate = _face_certificate(t)
        if certificate is None:
            t._violations = _violations(t)
        else:
            t._violations = []
            t._triangles, t._sides = certificate
    return list(t._violations)


def require_valid(t: Triangulation, label: str) -> None:
    """Raise InvariantViolation, naming ``t`` by ``label`` and listing
    :func:`validate`'s violations, unless t is a valid triangulation.

    The one gate of every operation that takes triangulations: count_pair,
    the morph, the audits, the flip searches and the readers of faces
    (:func:`faces`, :func:`apex_map`).  It reads the cached verdict.
    """
    violations = validate(t)
    if violations:
        raise InvariantViolation(f"{label} is not a valid triangulation", violations)


def _area2(points: Sequence[Point]) -> int:
    """Twice the signed area of a polygon, exactly (the shoelace formula)."""
    return sum(
        p[0] * q[1] - q[0] * p[1] for p, q in geometry.segments_of_polygon(points)
    )


def _face_certificate(t: Triangulation) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """t's triangles, as rows (x, y, z) ccw from their smallest vertex x,
    and the ids of their sides xy, yz and zx in :func:`_numbered_edges`,
    when they prove t valid, else None.

    The certificate, at the cost of one trace of t's faces:

    1. every border edge is in t and every edge id is valid;
    2. the trace has exactly ``2n - n_b - 2 + 2h`` triangles, the face count
       Euler's relation gives (see :func:`interior_edge_count`): its ccw
       3-cycles, less the triangular holes;
    3. every border edge is a side of one of them, every other edge of two;
    4. twice their total area equals twice the region's, |outer| - sum |hole|.

    Why it suffices.  For a point p on no edge let D(p) be the number of
    triangles containing p.  A triangle lies left of each of its directed
    sides, and the face after a half-edge is a permutation of the
    half-edges, so each directed edge bounds at most one triangle.  An edge
    that is a side of two thus has a triangle on each side, and D does not
    change across it; across a border edge D changes by 1.  The instance's
    border edges meet only at endpoints, so along any path D changes parity
    exactly where the number of border polygons containing p does.  Both
    are 0 far away, so D is odd, hence at least 1, wherever p is in the
    region (inside the outer polygon and in no hole): D >= [region].  The
    region's area is the integral of [outer] - sum [hole] <= [region], so 4
    makes D = [region] almost everywhere: the triangles tile the region
    once.  Then
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
    Conversely, each valid triangulation passes: its rotation system is
    sorted by exact angle, so its bounded faces are traced as its
    triangles.  Any input that fails gets the full checks.

    The argument reads the triangles alone: their count, how many bound
    each edge, and their twice-areas.  The outer face, the holes and any
    face that is not a triangle are cycles with no triangle's half-edge,
    and nothing in it asks about them, so they are not traced.  Under the
    numpy kernel and the int64 gate one :func:`_batch_trace` gives the
    three at once: the triangles' half-edges are positions in its arrays,
    which number each edge (border edges first), so incidence is one
    ``bincount``.  When the kernel is python, beyond the gate, or when the
    batch cannot prove its sort exact, :func:`_faces_exact`'s triangles
    and the twice-areas it tested them by feed the same checks.  Both trace
    the exact rotation system and keep its 3-cycles by one rule
    (:func:`_kept`), so both find the same triangles.  The accepted ones and
    their sides' ids are the only face data of t: ``faces`` and
    ``apex_map`` read them.  The twice-areas of 4 are exact: each fits
    int64 under the gate, and their sum, which can pass 2^63 when triangles
    overlap, is taken over Python ints.
    """
    inst = t.instance
    if not inst.border_edges <= t.edges:
        return None
    edges = _numbered_edges(t)
    border = len(inst.border_edges)
    try:
        ends = _edge_ends(edges)
    except OverflowError:  # an id beyond int64, so out of range
        return None
    if ends.min() < 0 or ends.max() >= inst.n or (ends[:, 0] == ends[:, 1]).any():
        return None
    traced = _batch_trace(inst, ends) if inst._packed.use_numpy() else None
    if traced is not None:
        o, half, rows, dets = traced
        triangles, sides, dets = o[rows], half[rows] % len(edges), dets.tolist()
    else:
        triangles, dets = _faces_exact(t)
        index = {e: i for i, e in enumerate(edges)}
        sides = np.array(
            [
                index[canonical_edge(u, v)]
                for a, b, c in triangles.tolist()
                for u, v in ((a, b), (b, c), (c, a))
            ],
            dtype=np.int64,
        ).reshape(-1, 3)
    if len(dets) != 2 * inst.n - inst.n_b - 2 + 2 * inst.h:
        return None
    incidence = np.bincount(sides.ravel(), minlength=len(edges))
    if (incidence[:border] != 1).any() or (incidence[border:] != 2).any():
        return None
    return (triangles, sides) if sum(dets) == inst.region_area2 else None


def _violations(t: Triangulation) -> list[str]:
    inst = t.instance
    out = [f"missing border edge {e}" for e in sorted(inst.border_edges - t.edges)]
    invalid = [e for e in t.edges if e[0] < 0 or e[1] >= inst.n or e[0] == e[1]]
    if invalid:
        return out + [f"invalid edge {min(invalid)}"]
    # t's sign table, the rows of its sorted edges, feeds every grid.
    table = edge_signs(t)
    edges, ends, signs = table.edges, table.ends, table.signs
    crossing = np.triu(kernels.segment_crossings(inst._packed, ends, ends, signs))
    for i, j in zip(*np.nonzero(crossing)):  # row-major: i, then j
        out.append(f"edges {edges[i]} and {edges[j]} cross")
    rows, ks = kernels.vertices_inside(inst._packed, ends, signs)
    out += [
        f"vertex {k} lies inside edge {edges[i]}"
        for i, k in zip(rows.tolist(), ks.tolist())
    ]
    coords = inst.border_coords()
    out += [
        f"edge {e} leaves the region"
        for e in edges
        if e not in inst.border_edges
        and geometry.midpoint_in_region(inst.segment(e), coords) != INSIDE
    ]
    expected = interior_edge_count(inst.n, inst.n_b, inst.h)
    actual = len(t.edges - inst.border_edges)
    if not out and actual == expected:
        return out
    candidates = sorted(set(inst.admissible_pairs()) - t.edges)
    blocked = kernels.segment_crossings(
        inst._packed, _edge_ends(candidates), ends, b_signs=signs
    ).any(axis=1)
    for cand, hit in zip(candidates, blocked):
        if not hit:
            out.append(f"not maximal: edge {cand} could be added")
    if not out and actual != expected:
        out.append(f"interior edge count {actual} != expected {expected}")
    return out
