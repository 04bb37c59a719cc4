import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flipdist import geometry, kernels
from flipdist.crossings import count_pair, count_segment, quad_crossers
from flipdist.errors import FlipdistError, InstanceMismatch, InvariantViolation
from flipdist.generate import GenSpec, generate_instance
from flipdist.lemmas import audit_propositions
from flipdist.morph import morph
from flipdist.triangulation import (
    Instance,
    Triangulation,
    edge_signs,
    greedy_triangulate,
    quadrilateral_of,
)
from helpers import generate_pair, quad_crosser_sets

KERNELS = ["python", "numpy"]


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


def _scalar_quad_crossers(t1, quad, t2):
    """quad_crossers' sets straight off the definition, one exact predicate
    per segment and t2 edge."""
    pts = t1.instance.points
    a, b, c, d = quad.vertices
    segments = {
        "ab": (pts[a], pts[b]),
        "bc": (pts[b], pts[c]),
        "cd": (pts[c], pts[d]),
        "da": (pts[d], pts[a]),
        "ac": (pts[a], pts[c]),
        "bd": (pts[b], pts[d]),
    }
    return {
        name: frozenset(
            f for f in t2.edges if geometry.properly_intersect(seg, t2.segment(f))
        )
        for name, seg in segments.items()
    }


def _all_quads(t):
    return [quadrilateral_of(t, e) for e in t.interior_edges()]


def test_quad_crossers_square(square_pair):
    t1, t2 = square_pair
    quad = quadrilateral_of(t1, (0, 2))
    assert quad.opposite in t2.edges
    assert quad.diagonal not in t2.edges
    [sets] = quad_crosser_sets(quad_crossers(t1, [quad], t2), t2)
    assert sets["ac"] == {(1, 3)}
    # bd is t2's own diagonal, which does not cross itself; in t1 ac does.
    assert sets["bd"] == frozenset()
    assert all(sets[s] == frozenset() for s in ("ab", "bc", "cd", "da"))
    [own] = quad_crosser_sets(quad_crossers(t1, [quad], t1), t1)
    assert own["bd"] == {(0, 2)} and own["ac"] == frozenset()


def test_quad_crossers_no_quads_and_mismatch(square_pair, pentagon):
    t1, t2 = square_pair
    assert quad_crossers(t1, [], t2).shape == (0, 6, len(t2.edges))
    with pytest.raises(InstanceMismatch):
        quad_crossers(t1, _all_quads(t1), greedy_triangulate(pentagon))


SEEDS = st.integers(0, 10**6)

# Convex polygons, convex polygons with interior points, and holed instances.
PAIR_SPECS = st.one_of(
    st.builds(GenSpec, seed=SEEDS, n_points=st.integers(5, 11)),
    st.builds(
        GenSpec,
        seed=SEEDS,
        n_points=st.integers(7, 12),
        interior_points=st.integers(1, 3),
    ),
    st.builds(
        GenSpec,
        seed=SEEDS,
        n_points=st.integers(7, 12),
        shape=st.just("with_holes"),
        holes=st.just(1),
    ),
    st.builds(
        GenSpec,
        seed=SEEDS,
        n_points=st.integers(10, 13),
        shape=st.just("with_holes"),
        holes=st.just(2),
    ),
)


@pytest.mark.parametrize("backend", KERNELS)
@settings(max_examples=25, deadline=None)
@given(spec=PAIR_SPECS, seed2=SEEDS)
def test_quad_crossers_match_scalar_definition(backend, spec, seed2):
    t1, t2 = generate_pair(spec, seed2)
    quads = _all_quads(t1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(kernels.KERNEL_ENV, backend)
        got = quad_crosser_sets(quad_crossers(t1, quads, t2), t2)
    assert got == [_scalar_quad_crossers(t1, q, t2) for q in quads]


def test_quad_crossers_exact_beyond_safe_limit():
    # Coordinates of 2^31 exceed the int64 gate, so the exact loop must run.
    m = 1 << 31
    inst = Instance(
        [(-m, -m), (m, -m), (m, m), (-m, m), (1, 2), (-3, 5), (7, -4)],
        [[0, 1, 2, 3]],
    )
    t1 = greedy_triangulate(inst)
    t2 = greedy_triangulate(inst, priority=lambda e: (-e[0], -e[1]))
    assert not kernels.int64_safe(t1.interior_array(), t2.interior_array())
    quads = _all_quads(t1)
    want = [_scalar_quad_crossers(t1, q, t2) for q in quads]
    assert any(sets["ac"] for sets in want) and any(sets["bd"] for sets in want)
    assert quad_crosser_sets(quad_crossers(t1, quads, t2), t2) == want


_SCALED = [(-16, -16), (16, -16), (16, 16), (-16, 16), (1, 2), (-3, 5), (7, -4)]


@pytest.mark.parametrize("scale", [1, 1 << 40, 1 << 70])
def test_instance_segments_equal_packed_coordinates(scale):
    """Under the int64 gate Instance.segments indexes the packed points,
    beyond it it packs the coordinates; both give segments_array's array."""
    inst = Instance([(x * scale, y * scale) for x, y in _SCALED], [[0, 1, 2, 3]])
    edges = [(0, 2), (4, 6), (1, 5), (3, 4)]
    want = kernels.segments_array([inst.segment(e) for e in edges])
    got = inst.segments(edges)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert inst.segments([]).shape == (0, 4)


def _pipeline(scale):
    inst = Instance([(x * scale, y * scale) for x, y in _SCALED], [[0, 1, 2, 3]])
    t1 = greedy_triangulate(inst)
    t2 = greedy_triangulate(inst, priority=lambda e: (-e[0], -e[1]))
    return (
        t1.edges,
        t2.edges,
        morph(t1, t2).steps,
        count_pair(t1, t2).total,
        audit_propositions(t1, t2).format(),
    )


@pytest.mark.parametrize("scale", [1 << 40, 1 << 70])
def test_pipeline_exact_at_any_scale(scale):
    # Scaling keeps every orientation sign.  Beyond 2^30 the kernels take the
    # exact loop; beyond int64 the segments are packed as Python ints.
    want = _pipeline(1)
    assert want[2] and want[3] > 0
    assert _pipeline(scale) == want


def _edge_cases(draw):
    """Pairs of segment arrays, ``draw(n)`` giving n rows, at the kernels'
    edges: row counts one below, at and one above a straddle table's block
    for several widths, both ways round; an array against itself and
    against an equal copy, at its own table's block size; an empty array on
    each side."""
    for m in (1, 7, 33):
        b = draw(m)
        rows = kernels._rows_per_block(2 * m)
        for n in (rows - 1, rows, rows + 1):
            a = draw(n)
            yield a, b
            yield b, a
    own = next(n for n in range(1, 1 << 14) if kernels._rows_per_block(2 * n) <= n)
    for n in (own - 1, own, own + 1):
        a = draw(n)
        yield a, a
        yield a, a.copy()
    empty = draw(0)
    yield empty, b
    yield b, empty
    yield empty, empty


@pytest.mark.parametrize("backend", KERNELS)
def test_kernels_agree_on_random_segments(backend):
    rng = np.random.default_rng(7)
    a = rng.integers(-500, 500, size=(40, 4)).astype(np.int64)
    b = rng.integers(-500, 500, size=(60, 4)).astype(np.int64)
    got = kernels.crossing_counts(a, b, kernel=backend)
    want = kernels.crossing_counts(a, b, kernel="python")
    assert np.array_equal(got, want)
    for a, b in _edge_cases(lambda n: rng.integers(-500, 500, size=(n, 4))):
        got = kernels.crossing_matrix(a, b, kernel=backend)
        assert np.array_equal(got, kernels._matrix_python(a, b))


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

    grid = [[geometry.properly_intersect(seg(r), seg(s)) for s in b] for r in a]
    want = [sum(row) for row in grid]
    assert sum(want) > 0
    assert kernels.crossing_matrix(a, b, kernel="numpy").tolist() == grid
    # An array against itself takes the one-straddle-table path.
    own = [[geometry.properly_intersect(seg(r), seg(s)) for s in a] for r in a]
    assert any(map(any, own))
    assert kernels.crossing_matrix(a, a, kernel="numpy").tolist() == own
    assert kernels.crossing_counts(a, b, kernel="numpy").tolist() == want
    # One row at a time against the same segments.
    rows = [
        int(kernels.crossing_counts(a[i:i + 1], b, kernel="numpy")[0])
        for i in range(len(a))
    ]
    assert rows == want
    for a, b in _edge_cases(lambda n: rng.choice(values, size=(n, 4)).astype(np.int64)):
        got = kernels.crossing_matrix(a, b, kernel="numpy")
        assert np.array_equal(got, kernels._matrix_python(a, b))


@pytest.mark.parametrize("backend", KERNELS)
def test_kernels_exact_beyond_safe_limit(backend):
    # With coordinates of 2^31 the int64 determinants would wrap to 0, so
    # every backend must take the exact loop.
    m = 1 << 31
    a = np.array([[-m, -m, m, m]], dtype=np.int64)
    b = np.array([[-m, m, m, -m], [0, 0, 1, 0]], dtype=np.int64)
    assert not kernels.int64_safe(a, b)
    assert kernels.crossing_matrix(a, b, kernel=backend).tolist() == [[True, False]]
    assert kernels.crossing_counts(a, b, kernel=backend).tolist() == [1]


def test_kernels_empty():
    empty = kernels.segments_array([])
    assert empty.shape == (0, 4)
    full = kernels.segments_array([((0, 0), (1, 1))])
    for backend in KERNELS:
        assert kernels.crossing_counts(empty, full, kernel=backend).tolist() == []
        assert kernels.crossing_counts(full, empty, kernel=backend).tolist() == [0]
        assert kernels.crossing_matrix(empty, full, kernel=backend).shape == (0, 1)
        assert kernels.crossing_matrix(full, empty, kernel=backend).shape == (1, 0)
        assert kernels.crossing_matrix(empty, empty, kernel=backend).shape == (0, 0)


def test_int64_safe_gate():
    m = kernels.INT64_SAFE_LIMIT
    ok = np.array([[m, 0, 0, m]], dtype=np.int64)
    too_big = np.array([[m + 1, 0, 0, 0]], dtype=np.int64)
    assert kernels.int64_safe(ok, ok)
    assert not kernels.int64_safe(ok, too_big)
    assert kernels.int64_safe(kernels.segments_array([]), ok)
    # abs(-2^63) wraps to -2^63 in int64, below any bound.
    lowest = np.array([[np.iinfo(np.int64).min, 0, 0, 0]], dtype=np.int64)
    assert not kernels.int64_safe(ok, lowest)
    assert not kernels.int64_safe(lowest, ok)
    assert kernels.Points([(np.iinfo(np.int64).min, 0), (0, 0)]).array is None
    assert kernels.Points([(1 << 64, 0), (0, 0)]).array is None


def test_active_kernel_env(monkeypatch):
    monkeypatch.setenv(kernels.KERNEL_ENV, "python")
    assert kernels.active_kernel() == "python"
    monkeypatch.setenv(kernels.KERNEL_ENV, "numpy")
    assert kernels.active_kernel() == "numpy"
    monkeypatch.setenv(kernels.KERNEL_ENV, " Python ")
    assert kernels.active_kernel() == "python"
    monkeypatch.setenv(kernels.KERNEL_ENV, "")
    assert kernels.active_kernel() == "numpy"
    monkeypatch.delenv(kernels.KERNEL_ENV)
    assert kernels.active_kernel() == "numpy"
    # An unknown name is refused: by the env on every path, whether or not
    # the points pass the int64 gate (building an instance reads it), and by
    # crossing_matrix's argument.
    seg = kernels.segments_array([((0, 0), (1, 1))])
    ids = np.array([[0, 1]])
    monkeypatch.setenv(kernels.KERNEL_ENV, "pyhton")
    for coords in ([(0, 0), (2, 0), (0, 2)], [(0, 0), (1 << 31, 0), (0, 2)]):
        points = kernels.Points(coords)
        for call in (
            kernels.active_kernel,
            lambda: kernels.crossing_matrix(seg, seg),
            points.use_numpy,
            lambda: kernels.orientation_signs(points, ids),
            lambda: Instance(coords, [[0, 1, 2]]),
        ):
            with pytest.raises(FlipdistError, match="'pyhton'"):
                call()
    monkeypatch.delenv(kernels.KERNEL_ENV)
    with pytest.raises(FlipdistError, match="'bogus'"):
        kernels.crossing_matrix(seg, seg, kernel="bogus")


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


# A 5x5 lattice: collinear triples along rows, columns and diagonals.
_GRID = [(x, y) for x in range(5) for y in range(5)]
# Every directed segment between two lattice points.
_EVERY = np.array([(i, j) for i in range(25) for j in range(25) if i != j])


@pytest.mark.parametrize("backend", KERNELS)
@pytest.mark.parametrize(
    "scale, shift",
    [
        (1, 0),
        (1 << 29, -(1 << 30)),  # corners at exactly ±2^30, inside the gate
        (1 << 31, 0),  # beyond the int64 gate
        (1 << 70, 1),  # beyond int64 itself
    ],
)
@pytest.mark.parametrize("block", [None, 64])
def test_segment_crossings_match_properly_intersect(
    backend, scale, shift, block, monkeypatch
):
    """The sign-gather primitive equals geometry.properly_intersect on
    lattice segments that share endpoints, lie on one line, overlap, repeat
    and run both ways; on self grids and empty sides; with its tables built
    against the other side's endpoints or passed in against every vertex;
    and, with tiny blocks, over many row blocks."""
    monkeypatch.setenv(kernels.KERNEL_ENV, backend)
    if block:
        monkeypatch.setattr(kernels, "_CELL_BLOCK", block)
        monkeypatch.setattr(kernels, "_GATHER_BLOCK", block)
    coords = [(x * scale + shift, y * scale + shift) for x, y in _GRID]
    points = kernels.Points(coords)
    assert (points.array is None) == (scale > 1 << 29)
    rng = np.random.default_rng(5)
    a = _EVERY[rng.choice(len(_EVERY), 60)]
    b = np.concatenate([a[:10], a[:10, ::-1], _EVERY[rng.choice(len(_EVERY), 50)]])

    def want(x, y):
        return [
            [
                geometry.properly_intersect(
                    (coords[i], coords[j]), (coords[k], coords[m])
                )
                for k, m in y.tolist()
            ]
            for i, j in x.tolist()
        ]

    empty = a[:0]
    for x, y in ((a, b), (b, a), (a, a), (a, a.copy()), (a, empty), (empty, b), (empty, empty)):
        expected = want(x, y)
        got = kernels.segment_crossings(points, x, y)
        assert got.shape == (len(x), len(y)) and got.tolist() == expected
        tables = [kernels.orientation_signs(points, s) for s in (x, y)]
        got = kernels.segment_crossings(points, x, y, *tables)
        assert got.tolist() == expected
    assert any(map(any, want(a, b))) and not all(map(all, want(a, b)))


@pytest.mark.parametrize("backend", KERNELS)
@pytest.mark.parametrize(
    "spec",
    [
        GenSpec(seed=3, n_points=14, interior_points=4),
        GenSpec(seed=4, n_points=16, shape="with_holes", holes=2, interior_points=2),
        GenSpec(seed=5, n_points=14, shape="random_simple_border", interior_points=2),
    ],
)
def test_edge_signs_are_the_sorted_edges_table(backend, spec, monkeypatch):
    """A triangulation's sign table, interior rows and all rows, equals
    orientation_signs of its own sorted edges: also for an edge set that
    lacks a border edge or has an extra, crossing admissible pair."""
    monkeypatch.setenv(kernels.KERNEL_ENV, backend)
    t1, _ = generate_pair(spec, 7)
    inst = t1.instance
    extra = min(set(inst.admissible_pairs()) - t1.edges)
    for edges in (
        t1.edges,
        t1.edges - {min(inst.border_edges)},
        t1.edges | {extra},
    ):
        t = Triangulation(inst, edges)
        table = edge_signs(t)
        ends = np.array(sorted(edges))
        interior = np.array(t.interior_edges())
        assert table.edges == tuple(sorted(edges))
        assert table.ends.tolist() == ends.tolist()
        assert table.codes.tolist() == (ends[:, 0] * inst.n + ends[:, 1]).tolist()
        assert table.signs.tolist() == kernels.orientation_signs(inst._packed, ends).tolist()
        assert table.interior_ends.tolist() == interior.tolist()
        assert (
            table.interior_signs.tolist()
            == kernels.orientation_signs(inst._packed, interior).tolist()
        )


def test_count_pair_refuses_an_invalid_triangulation():
    """count_pair is gated like every other operation on triangulations:
    an edge id out of range, negative or past the last vertex, is named,
    not wrapped around by the sign gather nor raised as an IndexError."""
    inst = generate_instance(GenSpec(seed=1, n_points=10, interior_points=2))
    t1 = greedy_triangulate(inst)
    for bad in ((-1, 3), (0, 99)):
        t2 = Triangulation(inst, [bad])
        for args, label in (((t1, t2), "t2"), ((t2, t1), "t1")):
            with pytest.raises(InvariantViolation) as info:
                count_pair(*args)
            assert str(info.value).startswith(f"{label} is not a valid triangulation")
            assert f"invalid edge {bad}" in info.value.violations
