"""The in-place flip structure against the triangulations it mirrors.

Every incremental path (MutableTriangulation.flip, the morph's per-edge
count updates, the flip-graph BFS's neighbour keys) is compared with the
from-scratch computation on the frozen triangulation.
"""

import pytest
from hypothesis import given, settings, strategies as st

from flipdist.crossings import count_pair
from flipdist.errors import EdgeNotInTriangulation, NotFlippable
from flipdist.generate import GenSpec, generate_instance, random_priority
from flipdist.morph import FlipSequence, FlipStep, morph
from flipdist.oracle import build_flip_graph
from flipdist.triangulation import (
    MutableTriangulation,
    Triangulation,
    apex_quadrilateral,
    canonical_edge,
    faces,
    flip,
    greedy_triangulate,
    quadrilateral_of,
)
from helpers import generate_pair

SEEDS = st.integers(0, 10**6)

# Convex polygons, convex polygons with free interior points, and holed
# instances, in the size ranges the acceptance suite generates.
SPECS = st.one_of(
    st.builds(GenSpec, seed=SEEDS, n_points=st.integers(4, 11)),
    st.builds(
        GenSpec,
        seed=SEEDS,
        n_points=st.integers(6, 11),
        interior_points=st.integers(1, 2),
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
        n_points=st.integers(10, 12),
        shape=st.just("with_holes"),
        holes=st.just(2),
    ),
)


def _incident(state):
    return {
        e: {frozenset((*e, apex)) for apex in apexes}
        for e, apexes in state.apexes.items()
    }


def _incident_from_faces(t):
    out = {}
    for f in faces(t):
        a, b, c = f
        for e in (canonical_edge(a, b), canonical_edge(b, c), canonical_edge(c, a)):
            out.setdefault(e, set()).add(frozenset(f))
    return out


@settings(max_examples=60, deadline=None)
@given(spec=SPECS, data=st.data())
def test_local_flips_match_frozen_faces(spec, data):
    inst = generate_instance(spec)
    t = greedy_triangulate(inst, priority=random_priority(inst, spec.seed))
    state = MutableTriangulation(t)
    for _ in range(data.draw(st.integers(1, 12))):
        frozen = state.freeze()
        assert state.edges == frozen.edges
        assert _incident(state) == _incident_from_faces(frozen)
        legal = []
        for e in sorted(frozen.edges):
            quad = quadrilateral_of(frozen, e)
            assert apex_quadrilateral(inst.points, state.apexes, e) == quad
            if quad is not None and quad.strictly_convex:
                legal.append(e)
        if not legal:
            break
        e = data.draw(st.sampled_from(legal))
        state.flip(e)
        assert state.freeze() == flip(frozen, e)
    assert _incident(state) == _incident_from_faces(state.freeze())


@settings(max_examples=40, deadline=None)
@given(spec=SPECS, seed2=SEEDS)
def test_morph_steps_match_full_recount(spec, seed2):
    t1, t2 = generate_pair(spec, seed2)
    seq = morph(t1, t2)
    current = t1
    total = count_pair(t1, t2).total
    for step in seq.steps:
        assert step.before == total
        current = flip(current, step.removed)
        total = count_pair(current, t2).total
        assert step.after == total
    assert total == 0
    assert current.edges == t2.edges


def test_local_flip_errors(dart, square):
    state = MutableTriangulation(greedy_triangulate(dart))
    with pytest.raises(NotFlippable, match="not strictly convex"):
        state.flip((1, 3))
    with pytest.raises(NotFlippable, match="border edge"):
        state.flip((0, 1))
    with pytest.raises(EdgeNotInTriangulation):
        MutableTriangulation(greedy_triangulate(square)).flip((1, 3))


def test_replay_rejects_illegal_step(dart):
    t = greedy_triangulate(dart)
    seq = FlipSequence(t, t, (FlipStep(removed=(1, 3), added=(0, 2), before=1, after=0),))
    with pytest.raises(NotFlippable):
        seq.replay()


# Flip graphs with 429, 8, 65 and 281 nodes: a convex 9-gon, the holed
# fixture, a star-shaped 9-gon and a 9-point convex set with 2 interior
# points; the last three have non-convex quadrilaterals.
ADJACENCY_CASES = {
    "nonagon": (GenSpec(seed=9, n_points=9), 429),
    "holed": (None, 8),
    "star": (GenSpec(seed=9, n_points=9, shape="random_simple_border"), 65),
    "interior": (GenSpec(seed=9, n_points=9, interior_points=2), 281),
}


@pytest.mark.parametrize("which", sorted(ADJACENCY_CASES))
def test_flip_graph_adjacency_matches_flip(which, holed):
    spec, size = ADJACENCY_CASES[which]
    inst = holed if spec is None else generate_instance(spec)
    graph = build_flip_graph(greedy_triangulate(inst))
    assert len(graph.nodes) == size
    index = {k: u for u, k in enumerate(graph.nodes)}
    non_convex = 0
    for u in range(len(graph.nodes)):
        t = Triangulation(inst, inst.edges_of(graph.nodes[u]))
        expected = []
        for e in t.interior_edges():
            quad = quadrilateral_of(t, e)
            if quad is not None and quad.strictly_convex:
                expected.append((e, index[flip(t, e).key()]))
            else:
                non_convex += 1
        assert graph.adjacency[u] == expected
    assert (non_convex > 0) == (which != "nonagon")
