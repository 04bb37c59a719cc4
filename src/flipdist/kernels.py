"""Batch kernels: proper crossings, orientation signs and point location.

The pairwise O(m1*m2) crossing grid runs once per pair of triangulations:
the morph keeps its rows as crosser masks and updates them one flip at a
time without a kernel call.  The crossing grid is also the planarity scan
of :func:`flipdist.triangulation.validate`'s full checks, which names its
crossing pairs, the grid of an instance's admissible pairs that every
search of :mod:`flipdist.oracle` reads (``oracle._FlipTable``), and the
blocks of candidates :func:`flipdist.triangulation.greedy_triangulate`
tests against themselves, then against the later candidates; the audits
of one pair share one grid of their quadrilateral segments, from
:func:`flipdist.crossings.quad_crossers`.  Every segment array these grids
read is packed by ``Instance.segments``: vertex-id pairs indexed into the
instance's packed points (:class:`Points`) under the int64 gate, the
coordinates themselves beyond it.

:func:`orientation_signs` is the table of signs of vertices against lines
through two vertices.  ``Instance.validate`` builds one per instance, the
sign of every vertex against the line of every directed border edge, and
reads from it the border crossings, the vertices on border edges and the
ray parity of every point.  ``Instance.admissible_pairs`` reads the same
table for the corners at a pair's ends and the border edges a pair could
cross, and builds one more, of its pair lines against the vertices, in row
blocks: its zeros are the vertices inside a pair.  Every reader works on
signs only, so it is exact whichever path built the table.
:func:`vertices_inside`, the grid of vertices strictly inside segments,
serves ``validate``'s full checks.  The messages that name a midpoint's
class, "leaves the region" in those checks and the rules of
``Instance.validate`` for holes that share a vertex with another polygon,
call the exact :func:`geometry.midpoint_in_region` on their segments: only
invalid input or pinched holes reach them.

Every kernel has two interchangeable backends:

* ``numpy``  - broadcasting over blocks of ``_CELL_BLOCK`` cells (default).
  Segments cross properly iff each straddles the other's line, so a
  crossing grid is one straddle table (:func:`_straddle`) and the
  transpose of another, or of itself for an array against itself.
* ``python`` - scalar loop over the exact predicates in :mod:`geometry`

Select with the ``FLIPDIST_KERNEL`` environment variable; any other name
raises :class:`~flipdist.errors.FlipdistError`.  The numpy backend is only
used when every coordinate satisfies ``|c| <= INT64_SAFE_LIMIT``; beyond
that, each kernel takes the exact python loop whatever backend is asked
for, so no sign is ever lost to overflow.  :meth:`Points.use_numpy` makes
that choice for the sign tables, for point location and for the batch face
trace of the face certificate in :mod:`flipdist.triangulation`, whose turn
tests and twice-areas are int64 cross products of half-edge directions.
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np

from . import geometry
from .errors import FlipdistError

KERNEL_ENV = "FLIPDIST_KERNEL"
KERNELS = ("numpy", "python")

# With |c| <= 2^30 each coordinate difference is at most 2^31 in magnitude.
# Each product in :func:`_orient` is a difference times a coordinate, or a
# cross product of two points, at most 2^61 in magnitude, so every
# intermediate value is below 3 * 2^61 < 2^63 and int64 holds it.
INT64_SAFE_LIMIT = geometry.COORD_LIMIT

# Cells of a grid computed at a time, whatever its width.  An int64
# temporary is then 64 KiB, below glibc's default 128 KiB mmap threshold,
# so it is not a fresh mapping whose pages fault in on every block.
_CELL_BLOCK = 1 << 13


def active_kernel() -> str:
    """The backend ``FLIPDIST_KERNEL`` names; numpy when it is unset or empty."""
    value = os.environ.get(KERNEL_ENV)
    if not value:
        return "numpy"
    choice = value.strip().lower() or "numpy"
    if choice not in KERNELS:
        raise FlipdistError(
            f"unknown {KERNEL_ENV} value {value!r}: expected numpy or python"
        )
    return choice


def _backend(kernel: str | None) -> str:
    if not kernel:
        return active_kernel()
    if kernel not in KERNELS:
        raise FlipdistError(f"unknown kernel {kernel!r}: expected numpy or python")
    return kernel


def segments_array(segments: list[geometry.Segment]) -> np.ndarray:
    """Pack segments as an (m, 4) int64 array [ax, ay, bx, by].  Segments
    with a coordinate beyond int64 are packed as Python ints in an object
    array, which every kernel sends to the exact loop."""
    rows = [(a[0], a[1], b[0], b[1]) for a, b in segments]
    try:
        return np.array(rows, dtype=np.int64).reshape(-1, 4)
    except OverflowError:
        return np.array(rows, dtype=object)


def _line(px, py, qx, qy):
    """The line terms of pq: direction (dx, dy) = q - p and k = q x p."""
    return qx - px, qy - py, qx * py - qy * px


def _orient(dx, dy, k, x, y):
    """The determinant of orient(p, q, (x, y)) from pq's line terms:
    dx (y - py) - dy (x - px) = dx y - dy x - k."""
    return dx * y - dy * x - k


class Points:
    """Vertex coordinates for the sign and point-location kernels and for
    ``Instance.segments``, packed once: the tuples themselves (``coords``,
    for the exact loop) and, when every coordinate is within
    ``INT64_SAFE_LIMIT``, an (n, 2) int64 ``array`` with its columns ``x``
    and ``y`` (None otherwise, which sends every kernel to the exact loop).
    The gate reads the ints before packing, so no value beyond int64
    reaches numpy.
    """

    def __init__(self, points: Sequence[geometry.Point]):
        self.coords = points
        values = [c for p in points for c in p]
        self.array = (
            np.array(values, dtype=np.int64).reshape(-1, 2)
            if not values
            or -INT64_SAFE_LIMIT <= min(values) and max(values) <= INT64_SAFE_LIMIT
            else None
        )
        if self.array is not None:
            self.x, self.y = self.array.T.copy()

    def use_numpy(self) -> bool:
        """Whether int64 numpy computes on these points: the numpy kernel is
        active (an unknown ``FLIPDIST_KERNEL`` raises here, on every path)
        and every coordinate is within the gate."""
        return active_kernel() == "numpy" and self.array is not None


def _matrix_python(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((len(a), len(b)), dtype=bool)
    segs_b = [((int(r[0]), int(r[1])), (int(r[2]), int(r[3]))) for r in b]
    for i, r in enumerate(a):
        seg_a = ((int(r[0]), int(r[1])), (int(r[2]), int(r[3])))
        out[i] = [
            geometry.properly_intersect(seg_a, seg_b) for seg_b in segs_b
        ]
    return out


def _straddle(lines: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Boolean (len(lines), len(ends)) table: entry (i, j) is whether the
    endpoints of segment j of ``ends`` lie strictly on opposite sides of the
    line of segment i of ``lines``.  Both arrays must pass the int64 gate."""
    m = len(ends)
    # One row per line, one column per endpoint: first endpoints, then second.
    dx, dy, k = _line(*lines.T[:, :, None])
    ex, ey = ends[:, 0::2].T.ravel(), ends[:, 1::2].T.ravel()
    out = np.empty((len(lines), m), dtype=bool)
    step = _rows_per_block(2 * m)
    for lo in range(0, len(lines), step):
        rows = slice(lo, lo + step)
        # Compare signs rather than products: the determinants themselves can
        # be near 2^62 and their products would overflow.
        side = np.sign(_orient(dx[rows], dy[rows], k[rows], ex, ey))
        out[rows] = side[:, :m] * side[:, m:] < 0
    return out


def crossing_matrix(
    a: np.ndarray, b: np.ndarray, kernel: str | None = None
) -> np.ndarray:
    """Boolean grid: entry (i, j) is whether row j of ``b`` properly crosses
    row i of ``a``.

    An array against itself (``a`` is ``b``) needs one straddle table
    instead of two.  Exact for any integer coordinates: when some
    coordinate exceeds ``INT64_SAFE_LIMIT`` the python loop runs whatever
    ``kernel`` asks for.
    """
    if _backend(kernel) == "numpy" and int64_safe(a, b):
        # An empty side needs no table (greedy's first block meets one).
        if len(a) == 0 or len(b) == 0:
            return np.zeros((len(a), len(b)), dtype=bool)
        if a is b:
            own = _straddle(a, a)
            return own & own.T
        return _straddle(a, b) & _straddle(b, a).T
    return _matrix_python(a, b)


def crossing_counts(
    a: np.ndarray, b: np.ndarray, kernel: str | None = None
) -> np.ndarray:
    """Per-row counts of segments in ``b`` properly crossing each row of ``a``:
    the row sums of :func:`crossing_matrix`."""
    return crossing_matrix(a, b, kernel).sum(axis=1)


def _rows_per_block(cols: int) -> int:
    return max(1, _CELL_BLOCK // max(cols, 1))


def vertices_inside(points: Points, ids: np.ndarray) -> np.ndarray:
    """Boolean (m, n) grid: entry (i, k) is whether point k lies strictly
    inside the segment from point ``ids[i, 0]`` to point ``ids[i, 1]``.

    ``ids`` is an (m, 2) array of vertex ids; the points must be distinct.
    """
    if points.use_numpy():
        return _inside_numpy(points, ids)
    coords = points.coords
    return np.array(
        [
            [
                k != i and k != j
                and geometry.point_on_open_segment(p, (coords[i], coords[j]))
                for k, p in enumerate(coords)
            ]
            for i, j in ids.tolist()
        ],
        dtype=bool,
    ).reshape(len(ids), len(coords))


def _inside_numpy(points: Points, ids: np.ndarray) -> np.ndarray:
    x, y = points.x, points.y
    i, j = ids[:, 0], ids[:, 1]
    ax, ay = x[i], y[i]
    dx, dy = x[j] - ax, y[j] - ay
    # :func:`_orient` is 0 iff dx py - dy px equals k: one pass fewer.
    dx, dy, k = dx[:, None], dy[:, None], (dx * ay - dy * ax)[:, None]
    out = np.zeros((len(ids), len(x)), dtype=bool)
    step = _rows_per_block(len(x))
    for lo in range(0, len(ids), step):
        rows = slice(lo, lo + step)
        on_line = dx[rows] * y - dy[rows] * x == k[rows]
        # Both ends of a segment are on its line; usually no other point is.
        if np.count_nonzero(on_line) == 2 * len(on_line):
            continue
        r, c = np.nonzero(on_line)
        r += lo
        ends, p = points.array[ids[r]], points.array[c]
        # On the line, p is in the closed segment iff it is in its bounding
        # box; distinct points make the ends the only ones at its ends.
        keep = (
            (c != i[r]) & (c != j[r])
            & ((ends.min(axis=1) <= p) & (p <= ends.max(axis=1))).all(axis=1)
        )
        out[r[keep], c[keep]] = True
    return out


def orientation_signs(points: Points, ends: np.ndarray) -> np.ndarray:
    """int8 (m, n) table: entry (i, k) is the sign of orient(a, b, point k)
    for the line from a = point ``ends[i, 0]`` to b = point ``ends[i, 1]``.

    One int64 broadcast when :meth:`Points.use_numpy` says so, the exact
    :func:`geometry.orient` loop otherwise: both give the same table.
    """
    if points.use_numpy():
        x, y = points.x, points.y
        a, b = ends[:, 0], ends[:, 1]
        dx, dy, k = (t[:, None] for t in _line(x[a], y[a], x[b], y[b]))
        return np.sign(_orient(dx, dy, k, x, y)).astype(np.int8)
    coords = points.coords
    return np.array(
        [
            [geometry.orient(coords[i], coords[j], p) for p in coords]
            for i, j in ends.tolist()
        ],
        dtype=np.int8,
    ).reshape(len(ends), len(coords))


def _within_limit(a: np.ndarray) -> bool:
    # Only int64 arrays are safe: coordinates beyond int64 are packed as
    # Python ints.  abs(-2^63) wraps to -2^63, which the unsigned
    # view reads as 2^63.
    return a.dtype == np.int64 and (
        len(a) == 0 or bool(np.abs(a).view(np.uint64).max() <= INT64_SAFE_LIMIT)
    )


def int64_safe(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether every coordinate of ``a`` and ``b`` is within
    ``INT64_SAFE_LIMIT``; an array against itself is read once."""
    return _within_limit(b) and (a is b or _within_limit(a))
