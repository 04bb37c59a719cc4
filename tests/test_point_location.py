"""The vertex-in-segment kernel against the exact scalar predicate.

``kernels.vertices_inside`` must equal ``geometry.point_on_open_segment``
for every vertex other than a segment's ends, on both backends (chosen by
``FLIPDIST_KERNEL``), at the int64 gate's limit (the numpy path) and beyond
it (the exact loop).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flipdist import geometry, kernels
from flipdist.generate import GenSpec, generate_instance
from flipdist.triangulation import Instance

LIMIT = kernels.INT64_SAFE_LIMIT
BEYOND = 1 << 31


def _inside_reference(coords, ids):
    return [
        [
            k != i and k != j
            and geometry.point_on_open_segment(p, (coords[i], coords[j]))
            for k, p in enumerate(coords)
        ]
        for i, j in ids
    ]


def _check(coords, ids):
    """The kernel on both backends equals the reference; returns it."""
    points = kernels.Points(coords)
    beyond = max(abs(c) for p in coords for c in p) > LIMIT
    assert (points.array is None) == beyond
    segments = [(i, j) for i, j in ids if i != j]
    inside = _inside_reference(coords, segments)
    for backend in kernels.KERNELS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv(kernels.KERNEL_ENV, backend)
            got = kernels.vertices_inside(
                points, np.array(segments, dtype=np.int64).reshape(-1, 2)
            )
        assert got.shape == (len(segments), len(coords))
        assert got.tolist() == inside
    return inside


SMALL = st.integers(-4, 4)
AT_CAP = st.sampled_from([-LIMIT, -LIMIT + 1, -1, 0, 1, LIMIT - 1, LIMIT])
PAST_CAP = st.sampled_from([-BEYOND, -LIMIT, -1, 0, 1, LIMIT, BEYOND])


@st.composite
def _configurations(draw):
    """Distinct points on a coarse grid, so that collinear points and
    vertices on segments are common, and segments between them."""
    coord = draw(st.sampled_from([SMALL, AT_CAP, PAST_CAP]))
    coords = draw(
        st.lists(st.tuples(coord, coord), min_size=3, max_size=9, unique=True)
    )
    vertex = st.integers(0, len(coords) - 1)
    ids = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=20))
    return coords, ids


DIAMOND = [(5, 0), (10, 5), (5, 10), (0, 5)]


@settings(max_examples=400, deadline=None)
@given(_configurations())
# A collinear border run: vertex 1 inside segment 0-2.
@example(([(0, 0), (3, 0), (6, 0), (6, 6), (0, 6)], [(0, 2), (3, 4), (1, 3)]))
# Axis-parallel and diagonal segments through vertices at the cap.
@example(([(-LIMIT, -LIMIT), (0, -LIMIT), (LIMIT, -LIMIT), (LIMIT, LIMIT),
           (0, 0)], [(0, 2), (0, 3), (1, 2), (4, 4)]))
def test_kernels_match_scalar_predicates(config):
    _check(*config)


def _notched(m):
    return Instance(
        [(-m, -m), (0, -m), (m, -m), (m, m), (0, 1), (-m, m), (1, -7), (-5, -3),
         (m - 1, 0)],
        [[0, 1, 2, 3, 4, 5]],
    )


def _instances():
    return {
        "collinear": Instance(
            [(0, 0), (3, 0), (6, 0), (6, 6), (0, 6), (2, 3), (3, 3), (4, 3)],
            [[0, 1, 2, 3, 4]],
        ),
        "diamond": Instance(DIAMOND + [(2, 4), (2, 6), (8, 4), (8, 6)], [[0, 1, 2, 3]]),
        "pinched": Instance(
            [(0, 0), (10, 0), (10, 10), (0, 10), (5, 2), (6, 4)],
            [[0, 1, 2, 3], [0, 4, 5]],
        ),
        "two_holes_pinched": Instance(
            [(0, 0), (20, 0), (20, 20), (0, 20), (5, 5), (10, 5), (7, 9),
             (15, 5), (13, 9), (10, 15)],
            [[0, 1, 2, 3], [4, 5, 6], [5, 7, 8]],
        ),
        "holed": generate_instance(
            GenSpec(seed=5, n_points=12, shape="with_holes", holes=2)
        ),
        # A collinear run along the bottom and a reflex vertex at (0, 1),
        # at the int64 gate's limit and beyond it.
        "coords_2^30": _notched(LIMIT),
        "coords_2^31": _notched(BEYOND),
    }


@pytest.mark.parametrize("one_row_blocks", [False, True])
@pytest.mark.parametrize("name", sorted(_instances()))
def test_kernels_on_instances(name, one_row_blocks, monkeypatch):
    """Every vertex pair of the instance, in the kernel's usual blocks and
    one grid row at a time."""
    if one_row_blocks:
        monkeypatch.setattr(kernels, "_CELL_BLOCK", 1)
    inst = _instances()[name]
    n = inst.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    inside = _check(list(inst.points), pairs)
    if name in ("collinear", "coords_2^30", "coords_2^31"):
        assert any(map(any, inside))
