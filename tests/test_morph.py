import random

import pytest

from flipdist.crossings import count_pair
from flipdist.errors import InstanceMismatch
from flipdist.morph import (
    FlipSequence,
    intersection_upper_bound,
    morph,
)
from flipdist.generate import GenSpec
from flipdist.triangulation import (
    Instance,
    Triangulation,
    canonical_edge,
    faces,
    greedy_triangulate,
    validate,
)
from helpers import generate_pair


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
