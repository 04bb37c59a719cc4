"""Batch proper-intersection kernels.

The pairwise O(m1*m2) crossing count runs once per pair of triangulations
(the morph then updates it one flip at a time, one candidate row against
the target's :class:`Segments` per check).  The crossing grid is the
planarity scan of :func:`flipdist.triangulation.validate`'s full checks,
which names its crossing pairs, and the compatibility masks of
:func:`flipdist.oracle.enumerate_triangulations_direct`; each audit reads
the grid of its quadrilateral segments once, through
:func:`flipdist.crossings.quad_crossers`.  Two interchangeable backends
compute the boolean crossing grid over int64 coordinate arrays; the
per-segment counts are its row sums:

* ``numpy``  - broadcasting over fixed blocks of rows of the m1 x m2 grid
  (default)
* ``python`` - scalar loop over the exact predicates in :mod:`geometry`

Select with the ``FLIPDIST_KERNEL`` environment variable.  The numpy backend
is only used when every coordinate satisfies ``|c| <= INT64_SAFE_LIMIT``;
beyond that, :func:`crossing_matrix` takes the exact python loop whatever
backend is asked for, so no sign is ever lost to overflow.
"""

from __future__ import annotations

import os

import numpy as np

from . import geometry

KERNEL_ENV = "FLIPDIST_KERNEL"

# With |c| <= 2^30 each coordinate difference is at most 2^31 in magnitude.
# The numpy kernel expands orient(p, q, r) as (q - p) x r - p x q: each of its
# three products is a difference times a coordinate, or a cross product of
# two points, at most 2^61 in magnitude, so every intermediate value is below
# 3 * 2^61 < 2^63 and int64 holds it.
INT64_SAFE_LIMIT = geometry.COORD_LIMIT

# Rows of the first array broadcast against the second at a time, which
# bounds the size of every temporary grid.
_ROW_BLOCK = 32


def active_kernel() -> str:
    choice = os.environ.get(KERNEL_ENV, "").strip().lower()
    return choice if choice in ("numpy", "python") else "numpy"


def segments_array(segments: list[geometry.Segment]) -> np.ndarray:
    """Pack segments as an (m, 4) int64 array [ax, ay, bx, by]."""
    if not segments:
        return np.empty((0, 4), dtype=np.int64)
    return np.array(
        [(a[0], a[1], b[0], b[1]) for a, b in segments], dtype=np.int64
    )


class Segments:
    """An (m, 4) segment array with what the numpy kernel derives from it
    alone, computed once: its int64 gate, both endpoints of every segment as
    one coordinate pair per column (``ex``, ``ey``: first endpoints, then
    second), its direction (``dx``, ``dy``) and the cross product of its
    endpoints (``k``).  The morph tests one candidate row at a time against
    the same target segments, so it builds their ``Segments`` once.
    """

    def __init__(self, array: np.ndarray):
        self.array = array
        self.safe = _within_limit(array)
        if self.safe:
            rx, ry, sx, sy = array.T
            self.ex = np.concatenate([rx, sx])
            self.ey = np.concatenate([ry, sy])
            self.dx = sx - rx
            self.dy = sy - ry
            self.k = sx * ry - sy * rx

    def __len__(self) -> int:
        return len(self.array)


def _matrix_python(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((len(a), len(b)), dtype=bool)
    segs_b = [((int(r[0]), int(r[1])), (int(r[2]), int(r[3]))) for r in b]
    for i, r in enumerate(a):
        seg_a = ((int(r[0]), int(r[1])), (int(r[2]), int(r[3])))
        out[i] = [
            geometry.properly_intersect(seg_a, seg_b) for seg_b in segs_b
        ]
    return out


def _matrix_numpy(a: np.ndarray, b: Segments) -> np.ndarray:
    m = len(b)
    out = np.zeros((len(a), m), dtype=bool)
    if m == 0:
        return out
    for lo in range(0, len(a), _ROW_BLOCK):
        block = a[lo:lo + _ROW_BLOCK]
        px, py, qx, qy = (block[:, k:k + 1] for k in range(4))
        # orient(p, q, e) for both endpoints e of every segment of b: columns
        # j and m + j hold its endpoints r and s.
        o12 = np.sign((qx - px) * b.ey - (qy - py) * b.ex - (qx * py - qy * px))
        # orient(r, s, v) for both endpoints v of every row: the rows of
        # ``ends`` are p0, q0, p1, q1, ...
        ends = block.reshape(-1, 2)
        o34 = np.sign(b.dx * ends[:, 1:2] - b.dy * ends[:, 0:1] - b.k)
        o34 = o34.reshape(len(block), 2, m)
        # Compare signs rather than products: the determinants themselves can
        # be near 2^62 and their products would overflow.
        out[lo:lo + _ROW_BLOCK] = (o12[:, :m] * o12[:, m:] < 0) & (
            o34[:, 0] * o34[:, 1] < 0
        )
    return out


def crossing_matrix(
    a: np.ndarray, b: np.ndarray | Segments, kernel: str | None = None
) -> np.ndarray:
    """Boolean grid: entry (i, j) is whether row j of ``b`` properly crosses
    row i of ``a``.

    ``b`` is an array or, when the same segments meet many ``a``, their
    :class:`Segments`.  Exact for any coordinates that fit int64: when some
    coordinate exceeds ``INT64_SAFE_LIMIT`` the python loop runs whatever
    ``kernel`` asks for.
    """
    if not isinstance(b, Segments):
        b = Segments(b)
    backend = kernel or active_kernel()
    if backend == "numpy" and int64_safe(a, b):
        return _matrix_numpy(a, b)
    return _matrix_python(a, b.array)


def crossing_counts(
    a: np.ndarray, b: np.ndarray | Segments, kernel: str | None = None
) -> np.ndarray:
    """Per-row counts of segments in ``b`` properly crossing each row of ``a``:
    the row sums of :func:`crossing_matrix`."""
    return crossing_matrix(a, b, kernel).sum(axis=1)


def _within_limit(a: np.ndarray) -> bool:
    return len(a) == 0 or bool(np.abs(a).max() <= INT64_SAFE_LIMIT)


def int64_safe(a: np.ndarray, b: np.ndarray | Segments) -> bool:
    """Whether every coordinate of ``a`` and ``b`` is within
    ``INT64_SAFE_LIMIT``; the gate of ``b``'s :class:`Segments` is reused."""
    safe_b = b.safe if isinstance(b, Segments) else _within_limit(b)
    return safe_b and _within_limit(a)
