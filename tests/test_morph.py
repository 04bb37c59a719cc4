import importlib
import random
from pathlib import Path

import pytest

from flipdist import kernels, lemmas
from flipdist.crossings import count_pair, quad_crossers
from flipdist.errors import InstanceMismatch, InvariantViolation, LemmaViolation
from flipdist.formats import parse_triangulation, serialize_sequence
from flipdist.morph import (
    FlipSequence,
    FlipStep,
    _crosser_masks,
    _diagonal_mask,
    intersection_upper_bound,
    morph,
)
from flipdist.generate import GenSpec, random_priority
from flipdist.oracle import enumerate_triangulations_direct, exact_flip_distance
from flipdist.triangulation import (
    Instance,
    MutableTriangulation,
    Triangulation,
    _read_quadrilateral,
    apex_map,
    apex_quadrilateral,
    canonical_edge,
    faces,
    greedy_triangulate,
    validate,
)
from helpers import generate_pair, quad_crosser_sets
from test_oracle import DIFFERENTIAL_INSTANCES
from test_point_location import _instances

# The module, for patching: the package exports the function under its name.
MORPH = importlib.import_module("flipdist.morph")


def test_intersection_upper_bound():
    assert intersection_upper_bound(4, 4, 0) == 1
    assert intersection_upper_bound(8, 8, 0) == 25
    assert intersection_upper_bound(7, 7, 1) == 49


def test_square_morph_one_step(square_pair):
    t1, t2 = square_pair
    seq = morph(t1, t2)
    assert len(seq.steps) == 1
    step = seq.steps[0]
    assert step.removed == (0, 2)
    assert step.added == (1, 3)
    assert step.before == 1
    assert step.after == 0
    assert seq.replay().edges == t2.edges


def test_morph_equal_is_empty(pentagon):
    t = greedy_triangulate(pentagon)
    seq = morph(t, t)
    assert seq.steps == ()
    assert seq.replay().edges == t.edges


def test_morph_instance_mismatch(square, pentagon):
    with pytest.raises(InstanceMismatch):
        morph(greedy_triangulate(square), greedy_triangulate(pentagon))


def test_morph_strictly_decreasing(hexagon):
    t1 = greedy_triangulate(hexagon)
    t2 = greedy_triangulate(hexagon, priority=lambda e: (-e[0], -e[1]))
    seq = morph(t1, t2)
    totals = [s.before for s in seq.steps] + [seq.steps[-1].after]
    assert totals[0] == count_pair(t1, t2).total
    assert totals[-1] == 0
    assert all(a > b for a, b in zip(totals, totals[1:]))
    assert seq.replay().edges == t2.edges


def test_morph_length_bounded_by_crossings(hexagon, pentagon, holed):
    for inst in (hexagon, pentagon, holed):
        t1 = greedy_triangulate(inst)
        t2 = greedy_triangulate(inst, priority=lambda e: (-e[0], -e[1]))
        seq = morph(t1, t2)
        assert len(seq.steps) <= count_pair(t1, t2).total
        assert len(seq.steps) <= intersection_upper_bound(
            inst.n, inst.n_b, inst.h
        )


def test_morph_intermediate_states_valid():
    t1, t2 = generate_pair(GenSpec(seed=11, n_points=9), 42)
    seq = morph(t1, t2)
    current = t1
    for step in seq.steps:
        from flipdist.triangulation import flip

        current = flip(current, step.removed)
        assert validate(current) == []
        assert count_pair(current, t2).total == step.after
    assert current.edges == t2.edges


def test_morph_on_holed_instance():
    t1, t2 = generate_pair(
        GenSpec(seed=5, n_points=10, shape="with_holes", holes=2), 17
    )
    seq = morph(t1, t2)
    assert seq.replay().edges == t2.edges
    if seq.steps:
        assert seq.steps[-1].after == 0


def test_sequence_is_frozen(square_pair):
    t1, t2 = square_pair
    seq = morph(t1, t2)
    assert isinstance(seq, FlipSequence)
    with pytest.raises(Exception):
        seq.steps = ()


def _moved(t, point=lambda p: p, label=lambda v: v, reverse=False):
    """t carried over by a map of points and of vertex ids."""
    inst = t.instance
    points = [None] * inst.n
    for v, p in enumerate(inst.points):
        points[label(v)] = point(p)
    border = [
        [label(v) for v in (poly[::-1] if reverse else poly)]
        for poly in inst.border
    ]
    moved = Instance(points, border)
    return Triangulation(moved, [(label(a), label(b)) for a, b in t.edges])


# Each keeps vertex ids, so the morph must make the very same flips.
GEOMETRIC = {
    "reverse_borders": dict(reverse=True),
    "reflection": dict(point=lambda p: (-p[0], p[1])),
    "rotation_90": dict(point=lambda p: (-p[1], p[0])),
    "translation": dict(point=lambda p: (p[0] + 12345, p[1] - 67890)),
}

METAMORPHIC_SPECS = [
    GenSpec(seed=21, n_points=12, interior_points=3),
    GenSpec(seed=22, n_points=12, shape="with_holes", holes=1),
    GenSpec(seed=23, n_points=14, shape="with_holes", holes=2),
]
SPEC_IDS = ["interior", "one_hole", "two_holes"]


@pytest.mark.parametrize("spec", METAMORPHIC_SPECS, ids=SPEC_IDS)
@pytest.mark.parametrize("name", sorted(GEOMETRIC))
def test_geometric_maps_preserve_validity_count_and_morph(spec, name):
    # Border orientation is free: a reflection turns every ccw polygon cw.
    t1, t2 = generate_pair(spec, spec.seed + 100)
    m1, m2 = (_moved(t, **GEOMETRIC[name]) for t in (t1, t2))
    assert m1.instance.validate() == []
    assert validate(m1) == [] and validate(m2) == []
    assert {frozenset(f) for f in faces(m1)} == {frozenset(f) for f in faces(t1)}
    assert count_pair(m1, m2).total == count_pair(t1, t2).total > 0
    assert morph(m1, m2).steps == morph(t1, t2).steps


@pytest.mark.parametrize("spec", METAMORPHIC_SPECS, ids=SPEC_IDS)
def test_relabelling_preserves_validity_and_counts(spec):
    t1, t2 = generate_pair(spec, spec.seed + 100)
    perm = list(range(t1.instance.n))
    random.Random(spec.seed).shuffle(perm)
    m1, m2 = (_moved(t, label=perm.__getitem__) for t in (t1, t2))
    assert validate(m1) == [] and validate(m2) == []
    want = count_pair(t1, t2)
    got = count_pair(m1, m2)
    assert got.total == want.total > 0
    assert got.per_edge == {
        canonical_edge(perm[a], perm[b]): c for (a, b), c in want.per_edge.items()
    }
    # The morph breaks ties between maximal edges by vertex id, so its length
    # may change with the labels; it stays a witness of the bound.
    seq = morph(m1, m2)
    assert len(seq.steps) <= got.total
    assert seq.replay() == m2


def _invalid_hexagon(hexagon, case):
    t = greedy_triangulate(hexagon)  # the fan of vertex 0
    if case == "missing_edge":
        return Triangulation(hexagon, t.edges - {(0, 3)})
    return Triangulation(hexagon, t.edges | {(1, 3)})  # (1, 3) crosses (0, 2)


# Every operation on a pair of triangulations refuses an invalid one through
# the same gate, triangulation.require_valid.
GATED = {
    "morph": morph,
    "audit_propositions": lemmas.audit_propositions,
    "audit_lemma1": lemmas.audit_lemma1,
    "audit_lemma2": lemmas.audit_lemma2,
    "audit_lemma2_2": lemmas.audit_lemma2_2,
    "exact_flip_distance": exact_flip_distance,
}


@pytest.mark.parametrize(
    "operation, case, side",
    [
        # morph's ids carry no operation, so its cases keep their names.
        pytest.param(
            operation, case, side,
            id=f"{case}-{side}" + ("" if operation == "morph" else f"-{operation}"),
        )
        for operation in GATED
        for case in ("crossing_diagonals", "missing_edge")
        for side in ("t1", "t2")
    ],
)
def test_morph_rejects_invalid_input(hexagon, operation, case, side):
    # Not a counterexample to the lemmas: the input is reported instead.
    bad = _invalid_hexagon(hexagon, case)
    good = greedy_triangulate(hexagon, priority=lambda e: (-e[0], -e[1]))
    pair = (bad, good) if side == "t1" else (good, bad)
    with pytest.raises(InvariantViolation) as info:
        GATED[operation](*pair)
    assert str(info.value).startswith(f"{side} is not a valid triangulation: ")
    assert info.value.violations == validate(bad) != []


def _mask_edges(t2, mask):
    edges = t2.interior_edges()
    return frozenset(edges[j] for j in range(len(edges)) if mask >> j & 1)


def _mask_instances():
    cases = dict(_instances())
    for name in ("convex8", "star9"):
        cases[name] = DIFFERENTIAL_INSTANCES[name]()
    return cases


@pytest.mark.parametrize("name", sorted(_mask_instances()))
def test_diagonal_mask_matches_quad_crossers(name):
    """The new diagonal's crossers from the side masks, against geometry, on
    every strictly convex quadrilateral of the first 20 triangulations,
    each against each."""
    inst = _mask_instances()[name]
    keys = enumerate_triangulations_direct(inst)[:20]
    ts = [Triangulation(inst, inst.edges_of(k)) for k in keys]
    checked = shared = crossed = 0
    for t1 in ts:
        apexes = apex_map(t1)
        quads = [
            q for e in t1.interior_edges()
            if (q := apex_quadrilateral(inst.points, apexes, e)).strictly_convex
        ]
        sides = []
        for quad in quads:
            a, b, c, d = quad.vertices
            sides.append(tuple(
                canonical_edge(u, v) for u, v in ((a, b), (b, c), (c, d), (d, a))
            ))
            # The morph reads the same quadrilateral as plain ints.
            read = _read_quadrilateral(inst.points, apexes, quad.diagonal)
            assert read == (b, d, True, sides[-1])
        for t2 in ts:
            crossers, at = _crosser_masks(t1, t2)
            grid = quad_crossers(t1, quads, t2)
            for quad, s, sets in zip(quads, sides, quad_crosser_sets(grid, t2)):
                assert _mask_edges(t2, crossers.get(quad.diagonal, 0)) == sets["ac"]
                got = _mask_edges(t2, _diagonal_mask(quad.diagonal, s, crossers, at))
                assert got == sets["bd"], quad
                checked += 1
                shared += quad.diagonal in t2.edges
                crossed += bool(got)
    assert checked > 0 and shared > 0 and crossed > 0
    if name != "pinched":  # it has four triangulations
        assert len(ts) == 20


def _morph_reference(t1, t2):
    """The morph's steps, counting each candidate diagonal with one kernel
    row against t2's interior edges, and the maximal count at each step."""
    counts = {e: c for e, c in count_pair(t1, t2).per_edge.items() if c}
    total = sum(counts.values())
    state = MutableTriangulation(t1)
    steps, maxima = [], []
    while state.edges != t2.edges:
        best = max(counts.values())
        for e in sorted(e for e, c in counts.items() if c == best):
            quad = apex_quadrilateral(t1.instance.points, state.apexes, e)
            assert quad is not None and quad.strictly_convex
            new = int(
                kernels.crossing_counts(
                    kernels.segments_array([t1.segment(quad.opposite)]),
                    t2.interior_array(),
                )[0]
            )
            if new < best:
                break
        else:
            pytest.fail(f"no maximal edge reduces crossings in {state.edges}")
        after = total - counts.pop(e) + new
        if new:
            counts[quad.opposite] = new
        state.flip(e)
        steps.append(FlipStep(removed=e, added=quad.opposite, before=total, after=after))
        maxima.append(best)
        total = after
    return tuple(steps), maxima


def _reference_pairs():
    for spec, name in zip(METAMORPHIC_SPECS, SPEC_IDS):
        yield name, generate_pair(spec, spec.seed + 100)
    for name in sorted(DIFFERENTIAL_INSTANCES):
        inst = DIFFERENTIAL_INSTANCES[name]()
        priorities = [None, lambda e: (-e[0], -e[1])] + [
            random_priority(inst, seed) for seed in (1, 2, 3)
        ]
        ts = [greedy_triangulate(inst, priority=p) for p in priorities]
        for i, t1 in enumerate(ts):
            for t2 in ts[i + 1:]:
                yield name, (t1, t2)
                yield name, (t2, t1)
    # Pairs of the sizes the morph_large benchmark runs, and a holed one.
    specs = [
        GenSpec(seed=seed, n_points=n, interior_points=n // 4)
        for n in (40, 48, 56, 64)
        for seed in (1, 2, 3)
    ]
    specs.append(GenSpec(seed=4, n_points=24, shape="with_holes", holes=3))
    for spec in specs:
        t1, t2 = generate_pair(spec, spec.seed + 100)
        yield f"{spec.shape} n={spec.n_points}", (t1, t2)
        yield f"{spec.shape} n={spec.n_points}", (t2, t1)


def test_morph_matches_per_candidate_reference():
    steps = drops = 0
    for name, (t1, t2) in _reference_pairs():
        want, maxima = _morph_reference(t1, t2)
        assert morph(t1, t2).steps == want, name
        steps += len(want)
        # The maximum skips a count: the morph's pointer passes an empty bucket.
        drops += sum(a - b >= 2 for a, b in zip(maxima, maxima[1:]))
    assert steps > 100
    assert drops > 0


def _hexagon_fans(hexagon):
    """The fans of vertices 0 and 3.  t1's maximal edges are (0, 2) and
    (0, 4), each crossed once, and the morph flips them in that order."""
    t1 = greedy_triangulate(hexagon)  # the fan of vertex 0
    t2 = Triangulation(hexagon, hexagon.border_edges | {(0, 3), (1, 3), (3, 5)})
    assert morph(t1, t2).steps == (
        FlipStep((0, 2), (1, 3), 2, 1), FlipStep((0, 4), (3, 5), 1, 0)
    )
    return t1, t2


def _own_mask(e, sides, crossers, at):
    """A forged new diagonal, crossed by what crosses the removed one."""
    return crossers[e]


def test_morph_takes_the_next_maximal_edge(hexagon, monkeypatch):
    """When the first maximal edge's flip does not lower its count, the
    morph flips the second maximal edge instead."""
    t1, t2 = _hexagon_fans(hexagon)
    forged = iter([_own_mask])

    def first_not_reducing(e, sides, crossers, at):
        return next(forged, _diagonal_mask)(e, sides, crossers, at)

    monkeypatch.setattr(MORPH, "_diagonal_mask", first_not_reducing)
    seq = morph(t1, t2)
    assert seq.steps == (
        FlipStep((0, 4), (3, 5), 2, 1), FlipStep((0, 2), (1, 3), 1, 0)
    )
    assert seq.replay() == t2


def _not_convex(pts, apexes, e, read=MORPH._read_quadrilateral):
    b, d, _, sides = read(pts, apexes, e)
    return b, d, False, sides


def _no_crossers(t1, t2):
    return {}, _crosser_masks(t1, t2)[1]


@pytest.mark.parametrize(
    "target, name, forged, message",
    [
        pytest.param(
            MORPH, "_diagonal_mask", _own_mask,
            "no maximal edge of [(0, 2), (0, 4)] reduces crossings",
            id="none_reduces",
        ),
        pytest.param(
            MORPH, "_read_quadrilateral", _not_convex,
            "maximal edge (0, 2) has no strictly convex quadrilateral",
            id="not_convex",
        ),
        # The total reads 0 before the edge sets agree.
        pytest.param(
            MORPH, "_crosser_masks", _no_crossers,
            "no maximal edge of [] reduces crossings",
            id="zero_total",
        ),
    ],
)
def test_morph_refusals(hexagon, monkeypatch, target, name, forged, message):
    t1, t2 = _hexagon_fans(hexagon)
    monkeypatch.setattr(target, name, forged)
    with pytest.raises(LemmaViolation) as info:
        morph(t1, t2)
    assert str(info.value) == message


def test_morph_makes_one_crossing_grid(monkeypatch):
    t1, t2 = generate_pair(GenSpec(seed=3, n_points=40, interior_points=10), 103)
    calls = []
    crossing_matrix = kernels.crossing_matrix

    def counting(*args, **kwargs):
        calls.append(args)
        return crossing_matrix(*args, **kwargs)

    monkeypatch.setattr(kernels, "crossing_matrix", counting)
    seq = morph(t1, t2)
    assert len(seq.steps) > 50
    assert len(calls) == 1


# serialize_sequence(morph(t1, t2)) for the pairs of tests/data/audit,
# captured before the morph kept crosser masks.
AUDIT_PAIRS = Path(__file__).parent / "data" / "audit"
GOLDEN = Path(__file__).parent / "data" / "morph"


@pytest.mark.parametrize("case", ["convex_interior", "holed", "star"])
def test_morph_sequence_golden(case):
    t1, t2 = (
        parse_triangulation((AUDIT_PAIRS / f"{case}.{t}.json").read_bytes(), AUDIT_PAIRS)
        for t in ("t1", "t2")
    )
    seq = morph(t1, t2)
    assert seq.steps
    assert serialize_sequence(seq) == (GOLDEN / f"{case}.seq.json").read_bytes()
