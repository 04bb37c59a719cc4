"""Sign-table kernels: proper crossings and vertices inside segments.

Every crossing grid is :func:`segment_crossings` over segments given as
vertex-id pairs.  Two segments cross properly iff the ends of each lie
strictly on opposite sides of the other's line, so a grid is two gathers
of int8 sign tables (:func:`orientation_signs`): the signs of one side's
lines at the other side's endpoints, read at each segment's two ends, the
two straddle tables ANDed.  Each triangulation keeps one table of its
own edges' lines against every vertex (``triangulation.EdgeSigns``), so
the pair questions gather from two tables: ``crossings.count_pair``, the
morph's crosser masks, which it then updates one flip at a time without a
kernel call, and the audits' grids (planarity and
``crossings.quad_crossers``, whose sides and diagonal are rows of t1's
table: only the other diagonals need new rows).  The other grids build
their tables against the distinct endpoints they meet:
``greedy_triangulate``'s blocks, the admissible-pair grid that every search
of :mod:`flipdist.oracle` reads (``oracle._FlipTable``) and
``formats.parse_sequence``'s recount.  The grids are exact
because they read signs only: whichever path computed a sign, it is the
sign of an exact determinant.  With at most 2m distinct endpoints for m
segments, a table never makes more orientation tests than four
determinants per cell would.

A segment meets two questions, and each has one kernel that reads sign
tables: :func:`segment_crossings`, whether another segment crosses it
properly, and :func:`vertices_inside`, which vertices lie strictly inside
it.  The latter reads the zeros of the segments' table against every
vertex: a zero other than the segment's ends is on its line, and inside
it iff it lies in the segment's bounding box.

:func:`orientation_signs` is the table of signs of vertices against lines
through two vertices.  ``Instance.validate`` builds one per instance, the
sign of every vertex against the line of every directed border edge, and
gives it to both kernels for the border crossings and the vertices on
border edges; the ray parity of every point is read off it too.
``Instance.admissible_pairs`` reads the same table for the corners at a
pair's ends and for the border edges a pair could cross, and builds one
more per block of pairs, of their lines against the vertices, which both
kernels read.  ``validate``'s full checks read the set's own table, the
rows of its sorted edges, for its self grid, its vertices inside edges
and its maximality grid.  The messages that name a midpoint's class,
"leaves the region" in those checks and the rules of
``Instance.validate`` for holes that share a vertex with another polygon,
call the exact :func:`geometry.midpoint_in_region` on their segments:
only invalid input or pinched holes reach them.

Of the kernels the package calls, only :func:`orientation_signs` chooses
a backend:

* ``numpy``  - int64 broadcasting over blocks of ``_CELL_BLOCK`` cells
  (default).
* ``python`` - a scalar loop over the exact :func:`geometry.orient`.

Select with the ``FLIPDIST_KERNEL`` environment variable; any other name
raises :class:`~flipdist.errors.FlipdistError`.  The numpy backend is only
used when every coordinate satisfies ``|c| <= INT64_SAFE_LIMIT``; beyond
that the table takes the exact loop whatever backend is asked for, so no
sign is ever lost to overflow.  Both give the same table.
:func:`segment_crossings` reads signs only, and :func:`vertices_inside`
signs and exact coordinates (:attr:`Points.exact`), so neither has a
backend of its own.  :meth:`Points.use_numpy` makes the choice for the
sign tables and for the batch face trace of the face certificate in
:mod:`flipdist.triangulation`, whose turn tests and twice-areas are int64
cross products of half-edge directions.

:func:`crossing_matrix` and :func:`crossing_counts` are the earlier
coordinate kernel, four int64 determinants per cell (:func:`_straddle`)
over (m, 4) coordinate arrays with their own int64 gate
(:func:`int64_safe`).  No path of the package calls them: they remain as
the tests' reference and for the benchmark's cross-check.
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
# Cells of a gather of int8 signs at a time: the same 64 KiB per temporary.
_GATHER_BLOCK = 8 * _CELL_BLOCK


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
    """Vertex coordinates for the sign kernels and for ``Instance.segments``,
    packed once.  ``coords`` are the tuples themselves, for the exact loop.
    When every coordinate is within ``INT64_SAFE_LIMIT``, ``array`` is an
    (n, 2) int64 array with its columns ``x`` and ``y``; otherwise it is
    None, which sends every kernel to the exact loop.  ``exact`` is an
    (n, 2) array whose comparisons are exact on both backends: ``array``
    under the gate, Python ints in an object array beyond it.  The gate
    reads the ints before packing, so no value beyond int64 reaches numpy.
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
            self.exact = self.array
        else:
            self.exact = np.array(values, dtype=object).reshape(-1, 2)

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


def _rows_per_block(cols: int, cells: int | None = None) -> int:
    return max(1, (cells or _CELL_BLOCK) // max(cols, 1))


def vertices_inside(
    points: Points, ids: np.ndarray, signs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The vertices strictly inside segments, as (row, vertex) index arrays
    in row-major order: vertex k lies inside the segment from point
    ``ids[i, 0]`` to point ``ids[i, 1]`` for each pair (i, k).

    ``signs`` is the segments' table against every vertex,
    ``orientation_signs(points, ids)``.  The points must be distinct, so a
    zero of row i other than the segment's ends is on its line and inside
    it iff it lies in the segment's bounding box, compared on
    :attr:`Points.exact`.  Exact on both backends: the table's signs are,
    and the box test compares exact coordinates.
    """
    zero = signs == 0
    # Both ends of a segment are on its line; usually no other vertex is.
    if np.count_nonzero(zero) == 2 * len(ids):
        none = np.zeros(0, dtype=np.int64)
        return none, none
    rows, ks = np.nonzero(zero)
    ends = ids[rows]
    other = (ks != ends[:, 0]) & (ks != ends[:, 1])
    rows, ks, box = rows[other], ks[other], points.exact[ends[other]]
    at = points.exact[ks]
    inside = ((box.min(axis=1) <= at) & (at <= box.max(axis=1))).all(axis=1)
    return rows[inside], ks[inside]


def orientation_signs(
    points: Points, ends: np.ndarray, columns: np.ndarray | None = None
) -> np.ndarray:
    """int8 (m, k) table: entry (i, c) is the sign of orient(a, b, point
    ``columns[c]``) for the line from a = point ``ends[i, 0]`` to b = point
    ``ends[i, 1]``; ``columns`` defaults to every vertex.

    int64 broadcasts over row blocks of ``_CELL_BLOCK`` cells when
    :meth:`Points.use_numpy` says so, the exact :func:`geometry.orient` loop
    otherwise: both give the same table.
    """
    if points.use_numpy():
        x, y = points.x, points.y
        a, b = ends[:, 0], ends[:, 1]
        dx, dy, k = (t[:, None] for t in _line(x[a], y[a], x[b], y[b]))
        if columns is not None:
            x, y = x[columns], y[columns]
        step = _rows_per_block(len(x))
        if len(ends) <= step:
            return np.sign(_orient(dx, dy, k, x, y)).astype(np.int8)
        out = np.empty((len(ends), len(x)), dtype=np.int8)
        for lo in range(0, len(ends), step):
            rows = slice(lo, lo + step)
            out[rows] = np.sign(_orient(dx[rows], dy[rows], k[rows], x, y))
        return out
    coords = points.coords
    targets = coords if columns is None else [coords[c] for c in columns.tolist()]
    return np.array(
        [
            [geometry.orient(coords[i], coords[j], p) for p in targets]
            for i, j in ends.tolist()
        ],
        dtype=np.int8,
    ).reshape(len(ends), len(targets))


def segment_crossings(
    points: Points,
    a: np.ndarray,
    b: np.ndarray,
    a_signs: np.ndarray | None = None,
    b_signs: np.ndarray | None = None,
) -> np.ndarray:
    """Boolean grid: entry (i, j) is whether segment j of ``b`` properly
    crosses segment i of ``a``, both (m, 2) arrays of vertex ids.

    Two segments cross properly iff the ends of each lie strictly on
    opposite sides of the other's line.  So entry (i, j) ANDs two straddle
    tests, each read from a sign table of one side's lines at the other
    side's distinct endpoints (:func:`orientation_signs`): a's table read
    at the two columns of b's segment j, and b's table, transposed so that
    each endpoint is one contiguous row, read at the two rows of a's
    segment i.  Both gathers fill the grid in a's row order, a block of
    rows at a time, so no boolean grid is ever transposed.  An array
    against itself (``a is b``) needs its one table, read both ways.
    ``a_signs``, when given, is the table of a's lines against every
    vertex, ``orientation_signs(points, a)``, which a caller may keep for
    many grids; likewise ``b_signs``.

    Exact on both backends: the gathers read signs only, and the int64
    gate of :class:`Points` decides how each sign is computed.  With at
    most 2m distinct endpoints for m segments, the tables never make more
    orientation tests than four determinants per cell would.
    """
    table, cols = _sign_table(points, a, b, a_signs)
    tails, heads = cols[:, 0], cols[:, 1]
    other, rows = (table, cols) if a is b else _sign_table(points, b, a, b_signs)
    other = np.ascontiguousarray(other.T)

    def grid(block: slice, out: np.ndarray | None = None) -> np.ndarray:
        lines, ends = table[block], rows[block]
        return np.logical_and(
            lines[:, tails] * lines[:, heads] < 0,
            other[ends[:, 0]] * other[ends[:, 1]] < 0,
            out=out,
        )

    step = _rows_per_block(len(b), _GATHER_BLOCK)
    if len(a) <= step:
        return grid(slice(None))
    out = np.empty((len(a), len(b)), dtype=bool)
    for lo in range(0, len(a), step):
        grid(slice(lo, lo + step), out[lo:lo + step])
    return out


def _sign_table(
    points: Points, lines: np.ndarray, segs: np.ndarray, signs: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """The signs of ``lines`` at the endpoints of ``segs``, and each
    segment's two columns in that table: ``signs``, a table against every
    vertex, read at the vertex ids themselves, or else a table built
    against the segments' distinct endpoints."""
    if signs is not None:
        return signs, segs
    present = np.zeros(len(points.coords), dtype=bool)
    present[segs] = True
    # Column c of the table is the c-th endpoint present, in id order.
    columns = np.flatnonzero(present)
    return orientation_signs(points, lines, columns), (np.cumsum(present) - 1)[segs]


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
