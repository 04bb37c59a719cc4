import numpy as np
import pytest

from flipdist import geometry, kernels
from flipdist.crossings import (
    classified_counts,
    count_pair,
    count_segment,
    segment_crossing_count,
)
from flipdist.errors import (
    InstanceMismatch,
    QuadNotInTriangulation,
    SegmentOutsideRegion,
)
from flipdist.triangulation import (
    Instance,
    Triangulation,
    greedy_triangulate,
    quadrilateral_of,
)


def _pairwise_oracle(t1, t2):
    """O(e1*e2) reference total, straight off the definition."""
    total = 0
    for e in t1.edges:
        for f in t2.edges:
            if geometry.properly_intersect(t1.segment(e), t2.segment(f)):
                total += 1
    return total


def test_square_pair(square_pair):
    t1, t2 = square_pair
    report = count_pair(t1, t2)
    assert report.total == 1
    assert report.per_edge[(0, 2)] == 1
    assert report.max_edges == ((0, 2),)
    assert all(report.per_edge[e] == 0 for e in t1.instance.border_edges)


def test_equal_triangulations_zero(hexagon):
    t = greedy_triangulate(hexagon)
    report = count_pair(t, t)
    assert report.total == 0
    assert report.max_edges == ()
    assert set(report.per_edge.values()) == {0}


def test_hexagon_fans_vs_oracle(hexagon):
    # Fan from vertex 0 vs fan from vertex 1: crossing pattern is known.
    fan0 = Triangulation(
        hexagon, hexagon.border_edges | {(0, 2), (0, 3), (0, 4)}
    )
    fan1 = Triangulation(
        hexagon, hexagon.border_edges | {(1, 3), (1, 4), (1, 5)}
    )
    report = count_pair(fan0, fan1)
    assert report.total == _pairwise_oracle(fan0, fan1)
    assert report.total == sum(report.per_edge.values())


def test_count_symmetric(hexagon, pentagon):
    for inst in (hexagon, pentagon):
        t1 = greedy_triangulate(inst)
        t2 = greedy_triangulate(inst, priority=lambda e: (-e[0], -e[1]))
        assert count_pair(t1, t2).total == count_pair(t2, t1).total


def test_count_pair_instance_mismatch(square, pentagon):
    with pytest.raises(InstanceMismatch):
        count_pair(greedy_triangulate(square), greedy_triangulate(pentagon))


def test_count_segment(square_pair):
    t1, t2 = square_pair
    pts = t1.instance.points
    assert count_segment((pts[0], pts[2]), t2) == 1
    assert count_segment((pts[1], pts[3]), t1) == 1
    assert count_segment((pts[0], pts[1]), t2) == 0


def test_segment_crossing_count_region_checks(dart):
    t = greedy_triangulate(dart)
    pts = dart.points
    assert segment_crossing_count((pts[1], pts[3]), t) == 0
    # (0, 2) exits the dart through the reflex notch
    with pytest.raises(SegmentOutsideRegion):
        segment_crossing_count((pts[0], pts[2]), t)
    with pytest.raises(SegmentOutsideRegion):
        segment_crossing_count(((0, 0), (99, 99)), t)


def test_classified_counts_square(square_pair):
    t1, t2 = square_pair
    quad = quadrilateral_of(t1, (0, 2))
    counts = classified_counts(t1, quad, t2)
    assert counts.seg_counts["ac"] == 1
    assert counts.seg_counts["bd"] == 0  # bd is in t2, nothing crosses it
    assert counts.bd_in_t2
    assert not counts.ac_in_t2
    assert all(counts.seg_counts[s] == 0 for s in ("ab", "bc", "cd", "da"))


def test_classified_counts_decomposition(hexagon):
    # Every t2 edge crossing the diagonal shows up in the per-corner or
    # per-pair classification consistently: pair counts never exceed the
    # smaller side count.
    t1 = greedy_triangulate(hexagon)
    t2 = greedy_triangulate(hexagon, priority=lambda e: (-e[0], -e[1]))
    for e in t1.interior_edges():
        quad = quadrilateral_of(t1, e)
        if quad is None:
            continue
        counts = classified_counts(t1, quad, t2)
        for (x, y), c in counts.pair_counts.items():
            assert c <= min(counts.seg_counts[x], counts.seg_counts[y])
        for (corner, label), c in counts.corner_counts.items():
            assert c <= counts.seg_counts[label]


def test_classified_counts_wrong_quad(square_pair):
    t1, t2 = square_pair
    quad = quadrilateral_of(t2, (1, 3))
    with pytest.raises(QuadNotInTriangulation):
        classified_counts(t1, quad, t2)


KERNELS = ["python", "numpy"]


@pytest.mark.parametrize("backend", KERNELS)
def test_kernels_agree_on_random_segments(backend):
    rng = np.random.default_rng(7)
    a = rng.integers(-500, 500, size=(40, 4)).astype(np.int64)
    b = rng.integers(-500, 500, size=(60, 4)).astype(np.int64)
    got = kernels.crossing_counts(a, b, kernel=backend)
    want = kernels.crossing_counts(a, b, kernel="python")
    assert np.array_equal(got, want)


@pytest.mark.parametrize("backend", KERNELS)
def test_kernels_extreme_but_safe_coordinates(backend):
    m = kernels.INT64_SAFE_LIMIT
    a = np.array([[-m, -m, m, m]], dtype=np.int64)
    b = np.array([[-m, m, m, -m], [0, 0, 1, 0]], dtype=np.int64)
    got = kernels.crossing_counts(a, b, kernel=backend)
    assert got.tolist() == [1]


def test_kernels_exact_at_coordinate_cap():
    # Coordinates of exactly +-2^30 stay on the numpy path; every count must
    # equal the exact predicates.
    m = geometry.COORD_LIMIT
    values = [0, 1, -1, m - 1, -(m - 1), m, -m]
    rng = np.random.default_rng(11)
    a = rng.choice(values, size=(60, 4)).astype(np.int64)
    b = rng.choice(values, size=(80, 4)).astype(np.int64)
    assert kernels.int64_safe(a, b)

    def seg(row):
        return ((int(row[0]), int(row[1])), (int(row[2]), int(row[3])))

    want = [
        sum(geometry.properly_intersect(seg(r), seg(s)) for s in b) for r in a
    ]
    assert sum(want) > 0
    assert kernels.crossing_counts(a, b, kernel="numpy").tolist() == want


@pytest.mark.parametrize("backend", KERNELS)
def test_kernels_exact_beyond_safe_limit(backend):
    # With coordinates of 2^31 the int64 determinants would wrap to 0, so
    # every backend must take the exact loop.
    m = 1 << 31
    a = np.array([[-m, -m, m, m]], dtype=np.int64)
    b = np.array([[-m, m, m, -m], [0, 0, 1, 0]], dtype=np.int64)
    assert not kernels.int64_safe(a, b)
    assert kernels.crossing_counts(a, b, kernel=backend).tolist() == [1]


def test_kernels_empty():
    empty = kernels.segments_array([])
    assert empty.shape == (0, 4)
    full = kernels.segments_array([((0, 0), (1, 1))])
    for backend in KERNELS:
        assert kernels.crossing_counts(empty, full, kernel=backend).tolist() == []
        assert kernels.crossing_counts(full, empty, kernel=backend).tolist() == [0]


def test_int64_safe_gate():
    m = kernels.INT64_SAFE_LIMIT
    ok = np.array([[m, 0, 0, m]], dtype=np.int64)
    too_big = np.array([[m + 1, 0, 0, 0]], dtype=np.int64)
    assert kernels.int64_safe(ok, ok)
    assert not kernels.int64_safe(ok, too_big)
    assert kernels.int64_safe(kernels.segments_array([]), ok)


def test_active_kernel_env(monkeypatch):
    monkeypatch.setenv(kernels.KERNEL_ENV, "python")
    assert kernels.active_kernel() == "python"
    monkeypatch.setenv(kernels.KERNEL_ENV, "numpy")
    assert kernels.active_kernel() == "numpy"
    monkeypatch.delenv(kernels.KERNEL_ENV)
    assert kernels.active_kernel() == "numpy"


def test_count_pair_near_coordinate_cap():
    # At the coordinate cap the int64 kernel still applies (INT64_SAFE_LIMIT
    # equals COORD_LIMIT); results must match a small-coordinate copy of the
    # same configuration.
    m = geometry.COORD_LIMIT
    big = Instance([(-m, -m), (m, -m), (m, m), (-m, m)], [[0, 1, 2, 3]])
    t1 = greedy_triangulate(big)
    t2 = Triangulation(big, big.border_edges | {(1, 3)})
    assert count_pair(t1, t2).total == 1
    assert count_pair(t2, t1).total == 1
