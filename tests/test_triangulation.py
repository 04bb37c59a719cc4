import functools
import itertools
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from flipdist import geometry, kernels
from flipdist.crossings import count_pair
from flipdist.errors import (
    EdgeNotInTriangulation,
    InvariantViolation,
    NotATriangulation,
    NotFlippable,
)
from flipdist.generate import GenSpec, generate_instance, random_priority
from flipdist.lemmas import (
    audit_lemma1,
    audit_lemma2,
    audit_lemma2_2,
    audit_propositions,
)
from flipdist.morph import morph
from flipdist.oracle import enumerate_triangulations_direct, exact_flip_distance
from flipdist.triangulation import (
    _GREEDY_BLOCK,
    Instance,
    MutableTriangulation,
    Triangulation,
    _crossable,
    _face_certificate,
    _violations as _full_checks,
    apex_map,
    apex_quadrilateral,
    canonical_edge,
    faces,
    flip,
    greedy_triangulate,
    interior_edge_count,
    quadrilateral_of,
    validate,
)
from helpers import apexes_in_order, count_traces, violations_reference


def test_interior_edge_count_formula():
    assert interior_edge_count(4, 4, 0) == 1
    assert interior_edge_count(5, 5, 0) == 2
    assert interior_edge_count(8, 8, 0) == 5
    # square with one triangular hole: 7 triangles, 7 interior edges
    assert interior_edge_count(7, 7, 1) == 7


def test_instance_validate_good(square, dart, pentagon, hexagon, holed):
    for inst in (square, dart, pentagon, hexagon, holed):
        assert inst.validate() == []


def _violations(points, border):
    """The violations an invalid instance is refused with."""
    with pytest.raises(InvariantViolation) as exc:
        Instance(points, border)
    return exc.value.violations


def test_instance_validate_bad():
    dup = _violations([(0, 0), (1, 0), (0, 0)], [[0, 1, 2]])
    assert any("duplicate" in v for v in dup)

    short = _violations([(0, 0), (1, 0)], [[0, 1]])
    assert any("fewer than 3" in v for v in short)

    bowtie = _violations(
        [(0, 0), (2, 2), (2, 0), (0, 2)], [[0, 1, 2, 3]]
    )
    assert any("not simple" in v for v in bowtie)

    outside = _violations(
        [(0, 0), (4, 0), (4, 4), (0, 4), (9, 9)], [[0, 1, 2, 3]]
    )
    assert any("outside" in v for v in outside)

    on_edge = _violations(
        [(0, 0), (4, 0), (4, 4), (0, 4), (2, 0)], [[0, 1, 2, 3]]
    )
    assert any("interior of border edge" in v for v in on_edge)


def test_instance_counts(holed):
    assert holed.n == 7
    assert holed.n_b == 7
    assert holed.h == 1
    assert len(holed.border_edges) == 7
    assert not holed.is_pinched


def test_pinched_detection():
    # Hole sharing a vertex with the outer polygon.
    inst = Instance(
        [(0, 0), (10, 0), (10, 10), (0, 10), (5, 2), (6, 4)],
        [[0, 1, 2, 3], [0, 4, 5]],
    )
    assert inst.is_pinched


def test_greedy_square(square):
    t = greedy_triangulate(square)
    assert t.edges == square.border_edges | {(0, 2)}
    assert validate(t) == []
    assert len(t.interior_edges()) == 1


def test_greedy_pentagon_two_priorities(pentagon):
    t1 = greedy_triangulate(pentagon)
    t2 = greedy_triangulate(pentagon, priority=lambda e: (-e[0], -e[1]))
    assert validate(t1) == []
    assert validate(t2) == []
    assert len(t1.interior_edges()) == 2
    assert len(t2.interior_edges()) == 2
    assert t1.edges != t2.edges


def test_greedy_holed(holed):
    t = greedy_triangulate(holed)
    assert validate(t) == []
    assert len(t.interior_edges()) == interior_edge_count(7, 7, 1)


def test_validate_rejects_both_diagonals(square):
    t = Triangulation(square, square.border_edges | {(0, 2), (1, 3)})
    bad = validate(t)
    assert any("cross" in v for v in bad)


def test_validate_rejects_missing_border(square):
    t = Triangulation(square, {(0, 2), (0, 1), (1, 2), (2, 3)})
    bad = validate(t)
    assert any("missing border edge" in v for v in bad)


def test_validate_rejects_non_maximal(pentagon):
    t = Triangulation(pentagon, pentagon.border_edges | {(0, 2)})
    bad = validate(t)
    assert any("not maximal" in v for v in bad)


def test_faces_square(square):
    t = greedy_triangulate(square)
    fs = faces(t)
    assert len(fs) == 2
    assert set(fs) == {(0, 1, 2), (0, 2, 3)}
    # ccw orientation of each face
    from flipdist.geometry import orient

    for f in fs:
        a, b, c = (square.points[v] for v in f)
        assert orient(a, b, c) == 1


def test_faces_euler(square, pentagon, hexagon, holed):
    for inst in (square, pentagon, hexagon, holed):
        t = greedy_triangulate(inst)
        n = inst.n
        e = len(t.edges)
        f = len(faces(t))
        assert n - e + f == 1 - inst.h


def test_quadrilateral_square(square):
    t = greedy_triangulate(square)
    q = quadrilateral_of(t, (0, 2))
    assert q is not None
    assert q.diagonal == (0, 2)
    assert q.opposite == (1, 3)
    assert q.strictly_convex
    assert q.vertices == (0, 1, 2, 3) or q.vertices == (2, 3, 0, 1)


def test_quadrilateral_border_edge(square):
    t = greedy_triangulate(square)
    assert quadrilateral_of(t, (0, 1)) is None
    with pytest.raises(EdgeNotInTriangulation):
        quadrilateral_of(t, (1, 3))


def test_flip_square(square):
    t = greedy_triangulate(square)
    t2 = flip(t, (0, 2))
    assert t2.edges == square.border_edges | {(1, 3)}
    assert validate(t2) == []
    assert flip(t2, (1, 3)).edges == t.edges  # involution


def test_flip_preserves_counts(hexagon):
    t = greedy_triangulate(hexagon)
    e = t.interior_edges()[0]
    t2 = flip(t, e)
    assert len(t2.edges) == len(t.edges)
    assert t2.edges & hexagon.border_edges == hexagon.border_edges


def test_flip_border_edge_raises(square):
    t = greedy_triangulate(square)
    with pytest.raises(NotFlippable):
        flip(t, (0, 1))


def test_dart_not_flippable(dart):
    t = greedy_triangulate(dart)
    assert t.edges == dart.border_edges | {(1, 3)}
    assert validate(t) == []
    q = quadrilateral_of(t, (1, 3))
    assert q is not None and not q.strictly_convex
    with pytest.raises(NotFlippable):
        flip(t, (1, 3))


# Edge sets over a square that are no triangulations, and an edge of each:
# two border edges missing; the diagonal (0, 2) through the centre vertex 4;
# the diagonal (1, 3) with the vertex 4 left isolated.
_SQUARE = [(0, 0), (10, 0), (10, 10), (0, 10)]
_SQUARE_BORDER = [(0, 1), (1, 2), (2, 3), (0, 3)]
_NOT_TRIANGULATIONS = {
    "missing_border": (_SQUARE, [(0, 1), (1, 2), (0, 2)], (0, 2)),
    "vertex_on_diagonal": (_SQUARE + [(5, 5)], _SQUARE_BORDER + [(0, 2)], (0, 2)),
    "isolated_vertex": (_SQUARE + [(2, 1)], _SQUARE_BORDER + [(1, 3)], (1, 3)),
}


@pytest.mark.parametrize("name", sorted(_NOT_TRIANGULATIONS))
def test_face_readers_refuse_invalid_input(name):
    """Every reader of faces refuses an edge set that is no triangulation,
    listing validate's violations, rather than read faces off it."""
    points, edges, e = _NOT_TRIANGULATIONS[name]
    inst = Instance(points, [[0, 1, 2, 3]])
    readers = [
        faces,
        apex_map,
        lambda t: quadrilateral_of(t, e),
        lambda t: flip(t, e),
        MutableTriangulation,
    ]
    for read in readers:
        t = Triangulation(inst, edges)
        with pytest.raises(InvariantViolation, match="not a valid triangulation") as exc:
            read(t)
        assert exc.value.violations == validate(t) != []


def test_face_readers_trace_a_validated_input_once(monkeypatch):
    """faces and apex_map read the triangles validate accepted: no trace."""
    inst = generate_instance(GenSpec(seed=1, n_points=40, interior_points=10))
    t = greedy_triangulate(inst)
    assert validate(t) == []
    traces = count_traces(monkeypatch)
    assert faces(t)
    assert apex_map(t)
    assert traces == {}


def test_edge_count_invariant(square, pentagon, hexagon, dart, holed):
    for inst in (square, pentagon, hexagon, dart, holed):
        t = greedy_triangulate(inst)
        expected = interior_edge_count(inst.n, inst.n_b, inst.h)
        assert len(t.edges) == expected + inst.n_b


def _validate_reference(t):
    """The admissible-pair maximality scan, run on every input.

    The pairwise crossing loop and the full scan of admissible pairs, with
    no batch kernel and no edge-count shortcut.
    """
    inst = t.instance
    out = []
    for e in sorted(inst.border_edges - t.edges):
        out.append(f"missing border edge {e}")
    edges = sorted(t.edges)
    for e in edges:
        if e[0] < 0 or e[1] >= inst.n or e[0] == e[1]:
            out.append(f"invalid edge {e}")
            return out
    segs = {e: inst.segment(e) for e in edges}
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            if geometry.properly_intersect(segs[edges[i]], segs[edges[j]]):
                out.append(f"edges {edges[i]} and {edges[j]} cross")
    for e in edges:
        for k in range(inst.n):
            if k not in e and geometry.point_on_open_segment(
                inst.points[k], segs[e]
            ):
                out.append(f"vertex {k} lies inside edge {e}")
    coords = inst.border_coords()
    for e in edges:
        if e in inst.border_edges:
            continue
        if geometry.midpoint_in_region(segs[e], coords) != geometry.INSIDE:
            out.append(f"edge {e} leaves the region")
    for cand in sorted(set(inst.admissible_pairs()) - t.edges):
        cseg = inst.segment(cand)
        if not any(geometry.properly_intersect(cseg, segs[e]) for e in edges):
            out.append(f"not maximal: edge {cand} could be added")
    expected = interior_edge_count(inst.n, inst.n_b, inst.h)
    actual = len(t.edges - inst.border_edges)
    if not out and actual != expected:
        out.append(f"interior edge count {actual} != expected {expected}")
    return out


def _differential_instances():
    big = 1 << 31
    return {
        "convex": generate_instance(GenSpec(seed=3, n_points=9)),
        "interior": generate_instance(
            GenSpec(seed=4, n_points=10, interior_points=3)
        ),
        "holed": generate_instance(
            GenSpec(seed=5, n_points=11, shape="with_holes", holes=1)
        ),
        # A square hole, whose diagonals leave the region.
        "square_hole": Instance(
            [(0, 0), (12, 0), (12, 12), (0, 12), (4, 4), (8, 4), (8, 8), (4, 8),
             (2, 6)],
            [[0, 1, 2, 3], [4, 5, 6, 7]],
        ),
        "pinched": Instance(
            [(0, 0), (10, 0), (10, 10), (0, 10), (5, 2), (6, 4)],
            [[0, 1, 2, 3], [0, 4, 5]],
        ),
        # A border vertex between two collinear border edges, and three
        # collinear interior points.
        "collinear": Instance(
            [(0, 0), (3, 0), (6, 0), (6, 6), (0, 6), (2, 3), (3, 3), (4, 3)],
            [[0, 1, 2, 3, 4]],
        ),
        # Beyond the parser's cap: the crossing scan takes the exact loop.
        "beyond_int64_limit": Instance(
            [(-big, -big), (big, -big), (big, big), (-big, big), (1, 7), (-5, -3)],
            [[0, 1, 2, 3]],
        ),
    }


def _edge_sets(inst, rng):
    """A valid triangulation and five kinds of corruption of one."""
    priority = random_priority(inst, rng.randrange(10**6))
    t = greedy_triangulate(inst, priority=priority)
    interior = sorted(t.edges - inst.border_edges)
    admissible = list(inst.admissible_pairs())
    outside = sorted(set(admissible) - t.edges)
    # Extra edges come from the inadmissible pairs where there are any, so
    # that vertex-on-edge and leaves-the-region violations turn up too.
    pairs = [(i, j) for i in range(inst.n) for j in range(i + 1, inst.n)]
    extra = [e for e in pairs if e not in admissible] or outside
    gone = rng.choice(interior)
    yield t.edges
    yield t.edges - {gone}
    if outside:
        yield (t.edges - {gone}) | {rng.choice(outside)}
        yield t.edges | {rng.choice(extra)}
    yield t.edges - {rng.choice(sorted(inst.border_edges))}
    yield inst.border_edges | {e for e in admissible if rng.random() < 0.4}


@pytest.mark.parametrize(
    "name, backend",
    [
        # The default numpy backend's cases keep the instance's plain name.
        pytest.param(
            name, backend, id=name if backend == "numpy" else f"{name}-{backend}"
        )
        for backend in kernels.KERNELS
        for name in sorted(_differential_instances())
    ],
)
def test_validate_matches_reference(name, backend, monkeypatch):
    """The full checks' exact midpoints, with each backend's sign table
    read by the crossing grid and vertices_inside."""
    monkeypatch.setenv(kernels.KERNEL_ENV, backend)
    _validate_case(name)


@pytest.mark.parametrize("backend", kernels.KERNELS)
def test_valid_input_places_no_midpoint(backend, monkeypatch):
    """Building generated instances, their admissible pairs and greedy
    triangulations, and validating, counting, morphing, auditing and
    searching valid triangulations never place a midpoint: only invalid
    input, and holes that share a vertex, reach the exact predicate."""

    def refuse(*args):
        raise AssertionError("midpoint_in_region called")

    monkeypatch.setenv(kernels.KERNEL_ENV, backend)
    monkeypatch.setattr(geometry, "midpoint_in_region", refuse)
    specs = [
        GenSpec(seed=1, n_points=14, interior_points=4),
        GenSpec(seed=2, n_points=14, shape="random_simple_border", interior_points=3),
        GenSpec(seed=3, n_points=16, shape="with_holes", holes=2, interior_points=3),
    ]
    for spec in specs:
        inst = generate_instance(spec)
        assert inst.admissible_pairs()
        t1 = greedy_triangulate(inst)
        t2 = greedy_triangulate(inst, priority=random_priority(inst, spec.seed))
        assert validate(t1) == validate(t2) == []
        count_pair(t1, t2)
        morph(t1, t2)
        for audit in (audit_propositions, audit_lemma1, audit_lemma2, audit_lemma2_2):
            audit(t1, t2)
    small = generate_instance(GenSpec(seed=4, n_points=8, interior_points=1))
    t1 = greedy_triangulate(small)
    t2 = greedy_triangulate(small, priority=random_priority(small, 4))
    exact_flip_distance(t1, t2)
    # The patch is live: the full checks of an invalid set place midpoints.
    gone = t1.interior_edges()[0]
    with pytest.raises(AssertionError, match="midpoint_in_region"):
        validate(Triangulation(small, t1.edges - {gone}))


def _validate_case(name):
    inst = _differential_instances()[name]
    assert inst.validate() == []
    rng = random.Random(name)
    valid = 0
    for _ in range(12):
        for edges in _edge_sets(inst, rng):
            t = Triangulation(inst, edges)
            want = _validate_reference(t)
            assert validate(t) == want
            valid += want == []
    assert valid >= 12


SMALL = st.integers(-3, 3)
HUGE = st.sampled_from([-(2**30), -(2**30) + 1, -1, 0, 1, 2**30 - 1, 2**30])
QUADS = st.one_of(
    st.lists(st.tuples(SMALL, SMALL), min_size=4, max_size=4),
    st.lists(st.tuples(HUGE, HUGE), min_size=4, max_size=4),
)


def _with_diagonal_02(pts):
    """The four points relabelled so that 1 and 3 lie strictly on opposite
    sides of 0-2, or None; some pair separates the other two unless three of
    the points are collinear."""
    for i, j, k, m in ((0, 2, 1, 3), (0, 1, 2, 3), (0, 3, 1, 2)):
        side = geometry.orient(pts[i], pts[j], pts[k])
        if side * geometry.orient(pts[i], pts[j], pts[m]) < 0:
            return [pts[i], pts[k], pts[j], pts[m]]
    return None


@settings(max_examples=300, deadline=None)
@given(points=QUADS, swap=st.booleans(), reverse=st.booleans())
# Collinear at 0, then reflex at 0.
@example(points=[(0, 0), (1, -1), (2, 1), (-1, 1)], swap=False, reverse=False)
@example(points=[(2, 1), (4, 0), (2, 4), (0, 0)], swap=True, reverse=True)
@example(
    points=[(0, 0), (2**30, -(2**30)), (2**30, 2**30), (-(2**30), 2**30)],
    swap=False,
    reverse=False,
)
def test_strict_convexity_matches_four_corners(points, swap, reverse):
    # Faces 0-1-2 and 0-2-3 around the diagonal 0-2, both non-degenerate.
    pts = _with_diagonal_02(points)
    assume(pts is not None)
    apexes = {(0, 2): (3, 1) if swap else (1, 3)}
    quad = apex_quadrilateral(pts, apexes, (2, 0) if reverse else (0, 2))
    assert quad.diagonal == (0, 2)
    ring = (0, 1, 2, 3) if geometry.orient(pts[0], pts[2], pts[1]) < 0 else (0, 3, 2, 1)
    assert quad.vertices == ring
    corners = [pts[v] for v in ring]
    # The definition: every corner of the ccw ring turns strictly left.
    expected = all(
        geometry.orient(corners[i], corners[(i + 1) % 4], corners[(i + 2) % 4]) == 1
        for i in range(4)
    )
    assert quad.strictly_convex == expected
    assert quad.opposite == (1, 3)


def _admissible_reference(inst):
    """The per-pair scan: a pair qualifies when no vertex lies in its open
    interior and it is a border edge, or it crosses no border edge and its
    midpoint is inside the region."""
    coords = inst.border_coords()
    border_segs = [
        s for poly in coords for s in geometry.segments_of_polygon(poly)
    ]
    pairs = []
    for i in range(inst.n):
        for j in range(i + 1, inst.n):
            seg = inst.segment((i, j))
            if any(
                geometry.point_on_open_segment(inst.points[k], seg)
                for k in range(inst.n)
                if k != i and k != j
            ):
                continue
            if (i, j) in inst.border_edges:
                pairs.append((i, j))
                continue
            if any(geometry.properly_intersect(seg, bs) for bs in border_segs):
                continue
            if geometry.midpoint_in_region(seg, coords) == geometry.INSIDE:
                pairs.append((i, j))
    return tuple(pairs)


def _admissibility_instances():
    limit = 1 << 30
    cases = dict(_differential_instances())
    cases["cw_outer_holed"] = Instance(
        [(0, 0), (10, 0), (10, 10), (0, 10), (4, 4), (6, 4), (5, 6), (2, 7),
         (8, 2)],
        [[3, 2, 1, 0], [4, 5, 6]],
    )
    # Two holes sharing vertex 5.
    cases["two_holes_pinched"] = Instance(
        [(0, 0), (20, 0), (20, 20), (0, 20), (5, 5), (10, 5), (7, 9), (15, 5),
         (13, 9), (10, 15)],
        [[0, 1, 2, 3], [4, 5, 6], [5, 7, 8]],
    )
    # At the parser's cap: the numpy kernel runs on the extreme coordinates.
    cases["coords_2^30"] = Instance(
        [(-limit, -limit), (limit, -limit), (limit, limit), (-limit, limit),
         (1, 7), (-5, -3), (limit - 1, 0)],
        [[0, 1, 2, 3]],
    )
    for seed in (1, 2, 3):
        for spec in (
            GenSpec(seed=seed, n_points=10, interior_points=2),
            GenSpec(seed=seed, n_points=10, shape="random_simple_border",
                    interior_points=1),
            GenSpec(seed=seed, n_points=12, shape="with_holes", holes=1,
                    interior_points=1),
        ):
            cases[f"{spec.shape}_{seed}"] = generate_instance(spec)
    return cases


# About 30 blocks of greedy_triangulate's candidates.
_INTERIOR_64 = GenSpec(seed=1, n_points=64, interior_points=16)


def _wedge_instances():
    """Corners that the endpoint-wedge test of ``admissible_pairs`` must
    read right, beyond those of :func:`_admissibility_instances`."""
    pinched = Instance(
        [(0, 0), (10, 0), (10, 5), (10, 10), (0, 10), (6, 3), (6, 7), (2, 5),
         (8, 8), (3, 2), (3, 8), (9, 1), (4, 5)],
        [[0, 1, 2, 3, 4], [2, 6, 12, 5]],
    )
    huge = 1 << 61
    cases = {
        # A hole pinched to the outer polygon at (10, 5), a straight corner of
        # the outer polygon: the region there is a half-plane less the hole's
        # corner, which the hole's chord (2, 12) enters.
        "hole_pinched_to_outer": pinched,
        # A reflex corner at (4, 4), whose region corner is wider than a
        # half-plane, and a straight one at (4, 0).
        "reflex_and_straight": Instance(
            [(0, 0), (4, 0), (8, 0), (8, 8), (4, 4), (0, 8), (1, 5), (4, 2),
             (6, 1), (2, 1), (7, 5)],
            [[0, 1, 2, 3, 4, 5]],
        ),
        # The pinched hole scaled past int64: every kernel takes its exact loop.
        "beyond_int64_pinched": Instance(
            [(x * huge, y * huge) for x, y in pinched.points], pinched.border
        ),
        "interior_64": generate_instance(_INTERIOR_64),
        "convex_24": generate_instance(GenSpec(seed=5, n_points=24)),
    }
    # Up to n=64: several row blocks of the pair-line table, star borders
    # with reflex corners and crossable edges, and holes.
    for seed, (n, holes, interior) in enumerate(
        ((14, 0, 2), (22, 0, 4), (30, 0, 6), (14, 1, 2), (20, 2, 3), (30, 3, 5),
         (48, 0, 8), (40, 3, 6), (64, 0, 10), (64, 3, 8))
    ):
        shape = "with_holes" if holes else "random_simple_border"
        cases[f"{shape}_n{n}"] = generate_instance(
            GenSpec(seed=seed, n_points=n, shape=shape, holes=holes,
                    interior_points=interior)
        )
    return cases


@functools.cache
def _admissible_cases():
    """Built once: the test below reads each instance's points and border
    only, so no cached admissible pairs carry from one backend to another."""
    return {**_admissibility_instances(), **_wedge_instances()}


@pytest.mark.parametrize("name", sorted(_admissible_cases()))
def test_admissible_pairs_match_reference(name, monkeypatch):
    inst = _admissible_cases()[name]
    expected = _admissible_reference(inst)
    for backend in kernels.KERNELS:
        monkeypatch.setenv(kernels.KERNEL_ENV, backend)
        # A fresh instance: admissible pairs are cached on the instance.
        fresh = Instance(inst.points, inst.border)
        assert fresh.admissible_pairs() == expected


def test_crossable_edges_have_vertices_on_both_sides():
    """admissible_pairs tests only the border edges whose line has a vertex
    strictly on each side: none of a convex polygon, listed either way."""
    square = [(0, 0), (4, 0), (4, 4), (0, 4), (1, 2)]
    for border in ([[0, 1, 2, 3]], [[3, 2, 1, 0]]):
        assert _crossable(Instance(square, border)._signs).tolist() == []
    for name, inst in _admissible_cases().items():
        pts = inst.points
        ends = [(poly[k], poly[(k + 1) % len(poly)]) for poly in inst.border
                for k in range(len(poly))]
        expected = [
            r for r, (a, b) in enumerate(ends)
            if {geometry.orient(pts[a], pts[b], p) for p in pts} >= {-1, 1}
        ]
        assert _crossable(inst._signs).tolist() == expected, name


def _greedy_reference(inst, priority):
    """The one-candidate-at-a-time insertion: each admissible pair in
    priority order is kept when it crosses no edge kept before it."""
    candidates = list(inst.admissible_pairs())
    candidates.sort(key=priority if priority is not None else lambda e: e)
    kept, chosen = [], set(inst.border_edges)
    for e in candidates:
        if e in chosen:
            continue
        seg = inst.segment(e)
        if not any(geometry.properly_intersect(seg, s) for s in kept):
            chosen.add(e)
            kept.append(seg)
    return chosen


def _greedy_instances():
    big = 1 << 31
    cases = {
        name: _admissibility_instances()[name]
        for name in ("collinear", "two_holes_pinched", "coords_2^30")
    }
    # More candidates than one block of greedy_triangulate.
    cases["convex_24"] = generate_instance(GenSpec(seed=6, n_points=24))
    cases["interior_30"] = generate_instance(
        GenSpec(seed=7, n_points=30, interior_points=8)
    )
    cases["holed_26"] = generate_instance(
        GenSpec(seed=8, n_points=26, shape="with_holes", holes=2)
    )
    # About 30 blocks of candidates: forward elimination runs across many.
    cases["interior_64"] = generate_instance(_INTERIOR_64)
    # Beyond the int64 gate: the blocks take the exact loop.
    cases["beyond_int64_limit"] = Instance(
        [(-big, -big), (0, -big), (big, -big), (big, big), (-big, big), (1, 7),
         (-5, -3), (9, 2), (-4, 11), (6, -8)],
        [[0, 1, 2, 3, 4]],
    )
    return cases


@pytest.mark.parametrize("backend", ["python", "numpy"])
@pytest.mark.parametrize("name", sorted(_greedy_instances()))
def test_greedy_matches_one_at_a_time(name, backend, monkeypatch):
    monkeypatch.setenv(kernels.KERNEL_ENV, backend)
    inst = _greedy_instances()[name]
    priorities = [None, lambda e: (-e[0], -e[1])] + [
        random_priority(inst, seed) for seed in (1, 2, 3)
    ]
    for priority in priorities:
        t = greedy_triangulate(inst, priority=priority)
        assert t.edges == _greedy_reference(inst, priority)
        assert validate(t) == []
    if name.endswith(("_24", "_26", "_30", "_64")):
        candidates = set(inst.admissible_pairs()) - inst.border_edges
        assert len(candidates) > 2 * _GREEDY_BLOCK


@pytest.mark.parametrize("bad", [(2, 9), (-1, 2), (2, 2)])
def test_validate_rejects_invalid_edge_ids(square, bad):
    t = Triangulation(square, square.border_edges | {bad})
    assert validate(t) == [f"invalid edge {bad}"]


def test_key_is_a_bitmask_over_admissible_pairs(square):
    pairs = square.admissible_pairs()
    t = Triangulation(square, square.border_edges | {(0, 2)})
    assert t.key() == sum(1 << pairs.index(e) for e in t.edges)
    assert square.edges_of(t.key()) == tuple(sorted(t.edges))
    assert square.edges_of(0) == ()
    # Any set of admissible pairs has a key, crossing diagonals included;
    # (0, 4) is no pair of the square.
    assert Triangulation(square, pairs).key() == (1 << len(pairs)) - 1
    with pytest.raises(NotATriangulation, match=r"\(0, 4\) is not an admissible"):
        Triangulation(square, square.border_edges | {(0, 4)}).key()


def test_validate_verdict_is_cached(pentagon, monkeypatch):
    t = Triangulation(pentagon, pentagon.border_edges | {(0, 2)})
    first = validate(t)
    assert first
    calls = []
    segment_crossings = kernels.segment_crossings

    def counting(*args, **kwargs):
        calls.append(args)
        return segment_crossings(*args, **kwargs)

    monkeypatch.setattr(kernels, "segment_crossings", counting)
    again = validate(t)
    assert again == first and calls == []
    again.clear()
    assert validate(t) == first


@functools.cache
def _certificate_instances():
    return _admissibility_instances()


CERTIFICATE_MUTATIONS = (
    "swap",  # replace an interior edge by any other vertex pair
    "add_admissible",  # an admissible pair, which crosses an edge
    "add_inadmissible",  # a vertex on it, leaving the region, or through a hole
    "drop",  # leaves a quadrilateral face, or a vertex isolated in a triangle
    "isolate",  # drop every interior edge at one vertex
    "hole_chord",  # a chord between two vertices of one hole
    "drop_border",
)


def _mutate(inst, edges, kind, k):
    """``edges`` after one corruption of ``kind``, its choices made by ``k``."""
    pairs = [(i, j) for i in range(inst.n) for j in range(i + 1, inst.n)]
    admissible = set(inst.admissible_pairs())
    interior = sorted(edges - inst.border_edges)
    pools = {
        "swap": [e for e in pairs if e not in edges],
        "add_admissible": sorted(admissible - edges),
        "add_inadmissible": [e for e in pairs if e not in admissible],
        "hole_chord": [
            canonical_edge(u, v)
            for poly in inst.border[1:]
            for u, v in itertools.combinations(poly, 2)
            if canonical_edge(u, v) not in inst.border_edges
        ],
    }
    if kind == "drop" and interior:
        return edges - {interior[k % len(interior)]}
    if kind == "isolate" and interior:
        v = interior[k % len(interior)][k % 2]
        return edges - {e for e in interior if v in e}
    if kind == "drop_border":
        border = sorted(inst.border_edges)
        return edges - {border[k % len(border)]}
    pool = pools.get(kind)
    if not pool:
        return edges
    added = pool[k % len(pool)]
    if kind == "swap" and interior:
        edges = edges - {interior[(k // len(pool)) % len(interior)]}
    return edges | {added}


@pytest.mark.parametrize("backend", kernels.KERNELS)
@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(_certificate_instances())),
    seed=st.integers(0, 10**6),
    mutations=st.lists(
        st.tuples(st.sampled_from(CERTIFICATE_MUTATIONS), st.integers(0, 10**6)),
        max_size=3,
    ),
)
def test_face_certificate_matches_full_check(backend, name, seed, mutations):
    """The certificate accepts exactly the inputs the full checks pass, and
    every rejected input keeps the full checks' violation list.  Under
    numpy the batch trace feeds it within the int64 gate; under python the
    exact loop does."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(kernels.KERNEL_ENV, backend)
        _certificate_case(patch, name, seed, mutations)


def _certificate_case(patch, name, seed, mutations):
    inst = _certificate_instances()[name]
    edges = greedy_triangulate(inst, priority=random_priority(inst, seed)).edges
    for kind, k in mutations:
        edges = _mutate(inst, edges, kind, k)
    t = Triangulation(inst, edges)
    full = _full_checks(t)
    assert (_face_certificate(t) is not None) == (full == [])
    assert full == _validate_reference(t)
    assert validate(t) == full
    if not full:
        # The apex map is built from the triangles validate accepted, with
        # no second trace, and is the map a fresh trace gives: each edge's
        # apexes in the order of faces(t).
        traces = count_traces(patch)
        apexes = apex_map(t)
        assert traces == {}
        assert apexes == apex_map(Triangulation(inst, edges))
        assert apexes == apexes_in_order(faces(t))


@pytest.mark.parametrize("backend", kernels.KERNELS)
def test_full_checks_match_their_own_table_reference(backend, monkeypatch):
    """The full checks read the set's own sign table (edge_signs); their
    messages equal those of the reference that builds its own table, over
    convex, star and holed instances at n = 12 to 40, each corrupted four
    ways: an interior or a border edge dropped, a crossing admissible pair
    added, an interior edge swapped for any other vertex pair."""
    monkeypatch.setenv(kernels.KERNEL_ENV, backend)
    rng = random.Random(33)
    refused = 0
    for seed, (shape, holes) in enumerate(
        [("convex_gon", 0), ("random_simple_border", 0), ("with_holes", 2)] * 2
    ):
        n = rng.randint(12, 40)
        inst = generate_instance(
            GenSpec(seed=seed, n_points=n, shape=shape, holes=holes, interior_points=n // 8)
        )
        edges = greedy_triangulate(inst, priority=random_priority(inst, seed)).edges
        for kind in ("drop", "drop_border", "add_admissible", "swap"):
            t = Triangulation(inst, _mutate(inst, edges, kind, rng.randrange(10**6)))
            got = validate(t)
            assert got == violations_reference(Triangulation(inst, t.edges))
            refused += bool(got)
    assert refused >= 18


@pytest.mark.parametrize("name", ["pinched", "two_holes_pinched", "collinear"])
def test_face_certificate_accepts_every_triangulation(name):
    """The certificate's converse on instances where polygons share a vertex
    or border edges are collinear: every triangulation passes it."""
    inst = _certificate_instances()[name]
    assert validate(greedy_triangulate(inst)) == []
    keys = enumerate_triangulations_direct(inst)
    assert keys
    for key in keys:
        assert _face_certificate(Triangulation(inst, inst.edges_of(key))) is not None
