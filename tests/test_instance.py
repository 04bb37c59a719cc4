"""Instance validation: construction refuses every invalid instance.

The violations ``Instance(...)`` raises are compared with a scalar
reference written out below: the instance checks as plain loops over the
exact predicates, each computed on its own (edge sets per polygon pair, the
ray-parity and boundary tests inlined for holes).  The comparisons run
under both kernels, set through ``FLIPDIST_KERNEL``: the instance's sign
table has a batch path and an exact one.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flipdist import geometry, kernels
from flipdist.errors import InvariantViolation
from flipdist.generate import GenSpec, generate_instance
from flipdist.triangulation import Instance, _directed_edges, _ray_parities


def _segments(poly):
    return [(poly[k], poly[(k + 1) % len(poly)]) for k in range(len(poly))]


def _edge_set(poly):
    return {(min(a, b), max(a, b)) for a, b in _segments(poly)}


def _first_crossing(points, poly1, poly2):
    """The first pair of properly crossing edges of poly1 and poly2, in
    border order (poly1's edge first), as a witness; "" when there is none."""
    for e in _segments(poly1):
        for f in _segments(poly2):
            seg_e = (points[e[0]], points[e[1]])
            seg_f = (points[f[0]], points[f[1]])
            if geometry.properly_intersect(seg_e, seg_f):
                return f"edges {tuple(sorted(e))} and {tuple(sorted(f))} cross"
    return ""


def reference_violations(points, border):
    """Every violated instance invariant, in the order validation reports them.

    Each polygon's coordinates are looked up only after its vertex ids are
    range-checked, so an id >= n is a violation rather than an IndexError.
    """
    n = len(points)
    out = []
    if len(set(points)) != n:
        out.append("duplicate points")
    if not border:
        out.append("no outer border polygon")
        return out
    for b, poly in enumerate(border):
        if len(poly) < 3:
            out.append(f"border[{b}] has fewer than 3 vertices")
            continue
        if any(v < 0 or v >= n for v in poly):
            out.append(f"border[{b}] has out-of-range vertex ids")
            continue
        if len(set(poly)) != len(poly):
            out.append(f"border[{b}] repeats a vertex")
        witness = _first_crossing(points, poly, poly)
        if witness:
            out.append(f"border[{b}] is not simple: {witness}")
    if out:
        return out
    coords = [[points[v] for v in poly] for poly in border]
    for b1 in range(len(border)):
        for b2 in range(b1 + 1, len(border)):
            witness = _first_crossing(points, border[b1], border[b2])
            if witness:
                out.append(f"border[{b1}] and border[{b2}] cross: {witness}")
    for b1 in range(len(border)):
        for b2 in range(b1 + 1, len(border)):
            if _edge_set(border[b1]) & _edge_set(border[b2]):
                out.append(f"border[{b1}] and border[{b2}] share an edge")
    outer = [coords[0]]
    for i, p in enumerate(points):
        if geometry.point_in_region(p, outer) == geometry.OUTSIDE:
            out.append(f"point {i} lies strictly outside the outer border")
    for b in range(1, len(border)):
        hole = coords[b]
        for i, p in enumerate(points):
            if i in border[b]:
                continue
            if geometry.ray_crossing_parity(p, hole) and not any(
                geometry.point_on_closed_segment(p, s) for s in _segments(hole)
            ):
                out.append(f"point {i} lies strictly inside hole {b}")
        # A hole vertex outside the outer polygon is reported once, as a
        # point outside the outer border.
        for b2 in range(len(border)):
            if b2 == b or not set(border[b]) & set(border[b2]):
                continue
            doubled = [(2 * x, 2 * y) for x, y in coords[b2]]
            for e in sorted(_edge_set(border[b])):
                (ax, ay), (bx, by) = points[e[0]], points[e[1]]
                mid = (ax + bx, ay + by)
                on_edge = any(
                    geometry.point_on_closed_segment(mid, s)
                    for s in _segments(doubled)
                )
                inside = geometry.ray_crossing_parity(mid, doubled)
                if b2 == 0 and not inside and not on_edge:
                    out.append(f"hole {b} edge {e} is outside the outer border")
                if b2 > 0 and inside and not on_edge:
                    out.append(f"hole {b} edge {e} lies inside hole {b2}")
    border_edges = set().union(*(_edge_set(poly) for poly in border))
    for e in sorted(border_edges):
        seg = (points[e[0]], points[e[1]])
        for i, p in enumerate(points):
            if i not in e and geometry.point_on_open_segment(p, seg):
                out.append(f"point {i} lies on the interior of border edge {e}")
    return out


def _check(points, border):
    """Instance(...) accepts exactly the valid inputs and refuses the others
    with the reference's violations; returns them."""
    expected = reference_violations(points, border)
    if not expected:
        assert Instance(points, border).validate() == []
        return expected
    with pytest.raises(InvariantViolation) as exc:
        Instance(points, border)
    assert exc.value.violations == expected
    assert str(exc.value) == "invalid instance: " + "; ".join(expected)
    return expected


SQUARE = [(0, 0), (20, 0), (20, 20), (0, 20)]
BIG = 1 << 31

CORPUS = {
    "bowtie": ([(0, 0), (2, 2), (2, 0), (0, 2)], [[0, 1, 2, 3]]),
    "crossing_holes": (
        SQUARE + [(5, 5), (12, 5), (8, 12), (5, 9), (12, 9), (8, 2)],
        [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]],
    ),
    "holes_share_edge": (
        SQUARE + [(5, 5), (10, 5), (7, 10), (7, 1)],
        [[0, 1, 2, 3], [4, 5, 6], [4, 5, 7]],
    ),
    "point_inside_hole": (
        [(0, 0), (10, 0), (10, 10), (0, 10), (4, 4), (6, 4), (5, 6), (5, 5)],
        [[0, 1, 2, 3], [4, 5, 6]],
    ),
    "hole_inside_hole": (
        SQUARE + [(2, 2), (18, 2), (10, 18), (8, 5), (12, 5), (10, 9)],
        [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]],
    ),
    "hole_vertex_outside": (
        [(0, 0), (10, 0), (10, 10), (0, 10), (4, 4), (15, 5), (5, 6)],
        [[0, 1, 2, 3], [4, 5, 6]],
    ),
    # A hole pinched to the outer polygon at three vertices, lying in a
    # notch of it: no vertex is outside, but every hole edge is.
    "notch_hole": (
        [(0, 0), (20, 0), (20, 20), (14, 20), (13, 12), (10, 10), (7, 12),
         (6, 20), (0, 20)],
        [[0, 1, 2, 3, 4, 5, 6, 7, 8], [3, 5, 7]],
    ),
    "hole_outside": (
        [(0, 0), (10, 0), (10, 10), (0, 10), (14, 4), (16, 4), (15, 6)],
        [[0, 1, 2, 3], [4, 5, 6]],
    ),
    "point_outside": ([(0, 0), (4, 0), (4, 4), (0, 4), (9, 9)], [[0, 1, 2, 3]]),
    "point_on_border_edge": (
        [(0, 0), (4, 0), (4, 4), (0, 4), (2, 0)],
        [[0, 1, 2, 3]],
    ),
    "point_on_hole_edge": (
        [(0, 0), (10, 0), (10, 10), (0, 10), (4, 4), (6, 4), (5, 6), (5, 4)],
        [[0, 1, 2, 3], [4, 5, 6]],
    ),
    "short_outer": ([(0, 0), (1, 0)], [[0, 1]]),
    "short_hole": (SQUARE + [(5, 5), (6, 6)], [[0, 1, 2, 3], [4, 5]]),
    "no_border": ([(0, 0), (1, 0), (0, 1)], []),
    "duplicate_points": ([(0, 0), (1, 0), (0, 0)], [[0, 1, 2]]),
    "out_of_range_id": ([(0, 0), (1, 0), (0, 1)], [[0, 1, 7]]),
    "id_equal_to_n": ([(0, 0), (1, 0), (0, 1)], [[0, 1, 3]]),
    "negative_id": ([(0, 0), (1, 0), (0, 1)], [[0, 1, -1]]),
    "out_of_range_hole_id": (
        SQUARE + [(5, 5), (9, 5), (7, 9)],
        [[0, 1, 2, 3], [4, 5, 99], [-2, 5, 6]],
    ),
    "repeated_vertex": (SQUARE, [[0, 1, 2, 0, 3]]),
    "pinched": (
        [(0, 0), (10, 0), (10, 10), (0, 10), (5, 2), (6, 4)],
        [[0, 1, 2, 3], [0, 4, 5]],
    ),
    "collinear": (
        [(0, 0), (3, 0), (6, 0), (6, 6), (0, 6), (2, 3), (3, 3), (4, 3)],
        [[0, 1, 2, 3, 4]],
    ),
    "collinear_on_edge": (
        [(0, 0), (3, 0), (6, 0), (6, 6), (0, 6)],
        [[0, 2, 3, 4]],
    ),
    "coords_2^31": (
        [(-BIG, -BIG), (BIG, -BIG), (BIG, BIG), (-BIG, BIG), (1, 7), (-5, -3)],
        [[0, 1, 2, 3]],
    ),
    "coords_2^31_invalid": (
        [(-BIG, -BIG), (BIG, -BIG), (BIG, BIG), (-BIG, BIG), (BIG + 1, 0),
         (0, -BIG)],
        [[0, 1, 2, 3]],
    ),
    "holed_valid": (
        [(0, 0), (10, 0), (10, 10), (0, 10), (4, 4), (6, 4), (5, 6)],
        [[0, 1, 2, 3], [4, 5, 6]],
    ),
}

# The cases construction accepts; it refuses every other one.
VALID = {"pinched", "collinear", "coords_2^31", "holed_valid"}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_instance_violations_match_reference(name, monkeypatch):
    points, border = CORPUS[name]
    for backend in kernels.KERNELS:
        monkeypatch.setenv(kernels.KERNEL_ENV, backend)
        assert bool(_check(points, border)) == (name not in VALID)


# Small grids, so that repeated, collinear and on-edge points are common.
# The polygons cut one permutation of the ids into pieces; one id may then
# be replaced by any id, in range or not, so that polygons repeat a vertex,
# share vertices or edges, or name a missing vertex.
@st.composite
def _raw_instances(draw):
    coord = st.integers(0, 8)
    points = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=10))
    n = len(points)
    ids = draw(st.permutations(range(n)))
    border, k = [], 0
    for size in draw(st.lists(st.integers(2, 6), min_size=1, max_size=3)):
        border.append(list(ids[k:k + size]))
        k += size
    polys = [poly for poly in border if poly]
    if draw(st.booleans()):
        poly = draw(st.sampled_from(polys))
        poly[draw(st.integers(0, len(poly) - 1))] = draw(st.integers(-1, n + 1))
    return points, border


@settings(max_examples=300, deadline=None)
@given(_raw_instances())
def test_random_instances_match_reference(raw):
    for backend in kernels.KERNELS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv(kernels.KERNEL_ENV, backend)
            _check(*raw)


@pytest.mark.parametrize(
    "points, border, violations",
    [
        (
            [(0.5, 0.9), (1, 0), (0, 1)],
            [[0, 1, 2]],
            ["point 0 has a non-integer coordinate"],
        ),
        (
            [(0, 0), (1, 0), (0, 1)],
            [[0, 1, 2.7]],
            ["border[0] has a non-integer vertex id"],
        ),
        (
            [(0, 0), ("1", 0), (0, True)],
            [[0, 1, 2], [0, 1, "2"], [True, 1, 2]],
            [
                "point 1 has a non-integer coordinate",
                "point 2 has a non-integer coordinate",
                "border[1] has a non-integer vertex id",
                "border[2] has a non-integer vertex id",
            ],
        ),
        (
            [(0, 0, 1), (1, 0), 5, (1,)],
            [[0, 1, 2]],
            [
                "point 0 is not a pair of integers",
                "point 2 is not a pair of integers",
                "point 3 is not a pair of integers",
            ],
        ),
        # A bool alone, or a bare int for a polygon, is refused as well.
        (
            [(0, 0), (1, 0), (0, True)],
            [[0, 1, 2]],
            ["point 2 has a non-integer coordinate"],
        ),
        (
            [(0, 0), (1, 0), (0, 1)],
            [[False, 1, 2], 0],
            [
                "border[0] has a non-integer vertex id",
                "border[1] is not a list of vertex ids",
            ],
        ),
        # Refused before any geometric check: points 0 and 3 coincide.
        (
            [(0, 0), (1, 0), (0, 1), (0, 0)],
            [0, [0, 1, 2], None, [0, 1.5, 2]],
            [
                "border[0] is not a list of vertex ids",
                "border[2] is not a list of vertex ids",
                "border[3] has a non-integer vertex id",
            ],
        ),
    ],
)
def test_non_integers_are_refused(points, border, violations, monkeypatch):
    for backend in kernels.KERNELS:
        monkeypatch.setenv(kernels.KERNEL_ENV, backend)
        with pytest.raises(InvariantViolation) as exc:
            Instance(points, border)
        assert exc.value.violations == violations


def test_numpy_integers_are_stored_as_int():
    inst = Instance(
        [(np.int64(0), np.int64(0)), (1, 0), (0, np.int32(1))],
        [[np.int64(0), 1, 2]],
    )
    assert inst.points == ((0, 0), (1, 0), (0, 1))
    assert all(type(c) is int for p in inst.points for c in p)
    assert all(type(v) is int for v in inst.border[0])


def test_hole_nested_in_hole_on_its_vertices_is_refused():
    # The inner triangle's vertices are all vertices of the outer hexagon,
    # so no vertex lies strictly inside a hole and no edges cross or are
    # shared; only the inner hole's edges lying inside the hexagon show it.
    points = SQUARE + [(6, 10), (8, 7), (12, 7), (14, 10), (12, 13), (8, 13)]
    border = [[0, 1, 2, 3], [4, 5, 6, 7, 8, 9], [4, 6, 8]]
    assert _check(points, border) == [
        "hole 2 edge (4, 6) lies inside hole 1",
        "hole 2 edge (4, 8) lies inside hole 1",
        "hole 2 edge (6, 8) lies inside hole 1",
    ]


def test_crossings_are_reported_once_with_a_witness():
    # A pentagram's edges cross five times and two crossing holes' six
    # times; each polygon and each pair is named once, by its first crossing.
    pentagram = [(0, 10), (10, 3), (6, -8), (-6, -8), (-10, 3)]
    assert _check(pentagram, [[0, 2, 4, 1, 3]]) == [
        "border[0] is not simple: edges (0, 2) and (1, 4) cross",
    ]
    points, border = CORPUS["crossing_holes"]
    assert _check(points, border) == [
        "border[1] and border[2] cross: edges (4, 5) and (8, 9) cross",
    ]


def test_ray_parities_match_the_predicate(monkeypatch):
    """The parity table the point rules read equals the exact ray cast for
    every point and polygon, boundary points too, where the half-open rule
    decides: under both kernels and beyond the int64 gate."""
    generated = [
        generate_instance(GenSpec(seed=1, n_points=24, shape="random_simple_border",
                                  interior_points=4)),
        generate_instance(GenSpec(seed=2, n_points=24, shape="with_holes", holes=2,
                                  interior_points=4)),
    ]
    cases = [CORPUS[name] for name in sorted(VALID)]
    cases += [(inst.points, inst.border) for inst in generated]
    for backend in kernels.KERNELS:
        monkeypatch.setenv(kernels.KERNEL_ENV, backend)
        for points, border in cases:
            inst = Instance(points, border)
            got = _ray_parities(inst, _directed_edges(inst.border))
            assert got.tolist() == [
                [geometry.ray_crossing_parity(p, poly) for p in inst.points]
                for poly in inst.border_coords()
            ]


def test_instance_reads_its_sign_table(monkeypatch):
    """Under the numpy kernel, building a holed instance and listing its
    admissible pairs read the instance's sign table alone: no crossing grid,
    no vertex-inside grid and no ray cast."""
    holed = generate_instance(
        GenSpec(seed=2, n_points=40, shape="with_holes", holes=3, interior_points=6)
    )

    def refused(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setenv(kernels.KERNEL_ENV, "numpy")
    monkeypatch.setattr(kernels, "crossing_matrix", refused)
    monkeypatch.setattr(kernels, "vertices_inside", refused)
    monkeypatch.setattr(geometry, "ray_crossing_parity", refused)
    inst = Instance(holed.points, holed.border)
    assert len(inst.admissible_pairs()) > len(inst.border_edges)
