"""Batch proper-intersection kernels.

The pairwise O(m1*m2) crossing count runs once per pair of triangulations
(the morph then updates it one flip at a time).  The crossing grid is the
planarity scan of :func:`flipdist.triangulation.validate`, which names its
crossing pairs, and the compatibility masks of
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

# With |c| <= 2^30 every point lies in a box of side 2^31, so each coordinate
# difference is at most 2^31 in magnitude and each product of two is at most
# 2^62.  Each orientation determinant is twice the signed area of a triangle
# inside that box, so it is at most 2^62 in magnitude too: int64 holds every
# intermediate value.
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


def _matrix_python(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((len(a), len(b)), dtype=bool)
    segs_b = [((int(r[0]), int(r[1])), (int(r[2]), int(r[3]))) for r in b]
    for i, r in enumerate(a):
        seg_a = ((int(r[0]), int(r[1])), (int(r[2]), int(r[3])))
        out[i] = [
            geometry.properly_intersect(seg_a, seg_b) for seg_b in segs_b
        ]
    return out


def _matrix_numpy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((len(a), len(b)), dtype=bool)
    if len(b) == 0:
        return out
    r = b[None, :, 0:2]
    s = b[None, :, 2:4]
    d2 = s - r
    for lo in range(0, len(a), _ROW_BLOCK):
        block = a[lo:lo + _ROW_BLOCK]
        p = block[:, None, 0:2]
        q = block[:, None, 2:4]
        d1 = q - p
        o1 = d1[..., 0] * (r - p)[..., 1] - d1[..., 1] * (r - p)[..., 0]
        o2 = d1[..., 0] * (s - p)[..., 1] - d1[..., 1] * (s - p)[..., 0]
        o3 = d2[..., 0] * (p - r)[..., 1] - d2[..., 1] * (p - r)[..., 0]
        o4 = d2[..., 0] * (q - r)[..., 1] - d2[..., 1] * (q - r)[..., 0]
        # Compare signs rather than products: the determinants themselves can
        # be near 2^62 and their products would overflow.
        out[lo:lo + _ROW_BLOCK] = (np.sign(o1) * np.sign(o2) < 0) & (
            np.sign(o3) * np.sign(o4) < 0
        )
    return out


def crossing_matrix(
    a: np.ndarray, b: np.ndarray, kernel: str | None = None
) -> np.ndarray:
    """Boolean grid: entry (i, j) is whether row j of ``b`` properly crosses
    row i of ``a``.

    Exact for any coordinates that fit int64: when some coordinate exceeds
    ``INT64_SAFE_LIMIT`` the python loop runs whatever ``kernel`` asks for.
    """
    backend = kernel or active_kernel()
    if backend == "numpy" and int64_safe(a, b):
        return _matrix_numpy(a, b)
    return _matrix_python(a, b)


def crossing_counts(
    a: np.ndarray, b: np.ndarray, kernel: str | None = None
) -> np.ndarray:
    """Per-row counts of segments in ``b`` properly crossing each row of ``a``:
    the row sums of :func:`crossing_matrix`."""
    return crossing_matrix(a, b, kernel).sum(axis=1)


def int64_safe(a: np.ndarray, b: np.ndarray) -> bool:
    if len(a) == 0 and len(b) == 0:
        return True
    bound = INT64_SAFE_LIMIT
    return bool(
        (len(a) == 0 or np.abs(a).max() <= bound)
        and (len(b) == 0 or np.abs(b).max() <= bound)
    )
