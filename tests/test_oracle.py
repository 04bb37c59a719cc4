import itertools
import random

import pytest

from flipdist.errors import FlipdistError, GraphTooLarge, InstanceTooLarge
from flipdist.generate import GenSpec, generate_instance, random_priority
from flipdist.oracle import (
    build_flip_graph,
    enumerate_triangulations_direct,
    exact_flip_distance,
)
from flipdist.triangulation import Instance, Triangulation, greedy_triangulate

# Triangulation counts of a convex n-gon are the Catalan numbers C(n-2).
CATALAN = {4: 2, 5: 5, 6: 14, 7: 42, 8: 132}


@pytest.mark.parametrize("n", sorted(CATALAN))
def test_convex_gon_counts(n):
    inst = generate_instance(GenSpec(seed=n, n_points=n))
    nodes = enumerate_triangulations_direct(inst)
    assert len(nodes) == CATALAN[n]
    graph = build_flip_graph(greedy_triangulate(inst))
    assert sorted(graph.nodes) == nodes


def test_square_graph(square):
    graph = build_flip_graph(greedy_triangulate(square))
    assert len(graph.nodes) == 2
    assert all(len(adj) == 1 for adj in graph.adjacency)


def test_dart_graph_single_node(dart):
    # The dart has exactly one triangulation and its only interior edge is
    # not flippable, so the flip graph is a single isolated node.
    graph = build_flip_graph(greedy_triangulate(dart))
    assert len(graph.nodes) == 1
    assert graph.adjacency == [[]]
    assert len(enumerate_triangulations_direct(dart)) == 1


def test_exact_distance_square(square_pair):
    t1, t2 = square_pair
    assert exact_flip_distance(t1, t2) == 1
    assert exact_flip_distance(t1, t1) == 0


def test_exact_distance_symmetric(hexagon):
    t1 = greedy_triangulate(hexagon)
    t2 = greedy_triangulate(hexagon, priority=lambda e: (-e[0], -e[1]))
    assert exact_flip_distance(t1, t2) == exact_flip_distance(t2, t1)


def _distance_matrix(graph):
    return [graph.distances_from(i) for i in range(len(graph.nodes))]


@pytest.mark.parametrize("n", [5, 6])
def test_metric_axioms(n):
    inst = generate_instance(GenSpec(seed=n, n_points=n))
    graph = build_flip_graph(greedy_triangulate(inst))
    dist = _distance_matrix(graph)
    size = len(graph.nodes)
    for i in range(size):
        assert dist[i][i] == 0
        for j in range(size):
            assert dist[i][j] >= (1 if i != j else 0)
            assert dist[i][j] == dist[j][i]
    for i, j, k in itertools.product(range(size), repeat=3):
        assert dist[i][k] <= dist[i][j] + dist[j][k]


def test_direct_enumeration_holed(holed):
    nodes = enumerate_triangulations_direct(holed)
    graph = build_flip_graph(greedy_triangulate(holed))
    assert sorted(graph.nodes) == nodes
    assert len(nodes) >= 2


def test_direct_enumeration_size_cap():
    inst = generate_instance(GenSpec(seed=1, n_points=13))
    with pytest.raises(InstanceTooLarge):
        enumerate_triangulations_direct(inst)


def test_three_points_single_triangulation():
    inst = Instance([(0, 0), (5, 0), (0, 5)], [[0, 1, 2]])
    nodes = enumerate_triangulations_direct(inst)
    assert len(nodes) == 1
    t = Triangulation(inst, nodes[0])
    assert t.edges == inst.border_edges


def test_graph_edges_are_single_flips(pentagon):
    graph = build_flip_graph(greedy_triangulate(pentagon))
    for u in range(len(graph.nodes)):
        edges_u = set(graph.nodes[u])
        for _, v in graph.adjacency[u]:
            edges_v = set(graph.nodes[v])
            assert len(edges_u - edges_v) == 1
            assert len(edges_v - edges_u) == 1


def _all_distances_agree(graph, pairs):
    ts = [Triangulation(graph.instance, key) for key in graph.nodes]
    for i, targets in itertools.groupby(sorted(pairs), key=lambda p: p[0]):
        dist = graph.distances_from(i)
        for _, j in targets:
            assert exact_flip_distance(ts[i], ts[j]) == dist[j]


def test_early_exit_distance_heptagon_all_pairs():
    inst = generate_instance(GenSpec(seed=7, n_points=7))
    graph = build_flip_graph(greedy_triangulate(inst))
    assert len(graph.nodes) == 42
    _all_distances_agree(graph, itertools.product(range(len(graph.nodes)), repeat=2))


# A generated n=10 holed instance, a star-shaped 9-gon and a 9-point convex
# set with 2 interior points: flip graphs with non-convex quadrilaterals.
SAMPLED = {
    "holed10": GenSpec(seed=3, n_points=10, shape="with_holes", holes=1),
    "star9": GenSpec(seed=9, n_points=9, shape="random_simple_border"),
    "interior9": GenSpec(seed=9, n_points=9, interior_points=2),
}


@pytest.mark.parametrize("name", sorted(SAMPLED))
def test_early_exit_distance_sampled_pairs(name):
    graph = build_flip_graph(greedy_triangulate(generate_instance(SAMPLED[name])))
    rng = random.Random(name)
    ids = list(range(len(graph.nodes)))
    pairs = [(rng.choice(ids), rng.choice(ids)) for _ in range(40)]
    _all_distances_agree(graph, pairs)


def test_early_exit_distance_holed_fixture_all_pairs(holed):
    graph = build_flip_graph(greedy_triangulate(holed))
    _all_distances_agree(graph, itertools.product(range(len(graph.nodes)), repeat=2))


def test_distance_to_non_triangulation_unreachable(holed):
    # Dyn, Goren & Rippa: the flip graph of a polygonal domain is connected,
    # so this branch fires only when t2 is not a triangulation.
    t1 = greedy_triangulate(holed)
    e = t1.interior_edges()[0]
    t2 = Triangulation(holed, t1.edges - {e})
    with pytest.raises(FlipdistError, match="unreachable"):
        exact_flip_distance(t1, t2)


def test_flip_graph_node_cap():
    seed = greedy_triangulate(generate_instance(GenSpec(seed=9, n_points=9)))
    with pytest.raises(GraphTooLarge, match="exceeds 50 nodes"):
        build_flip_graph(seed, max_nodes=50)
    with pytest.raises(GraphTooLarge):
        build_flip_graph(seed, max_nodes=428)
    assert len(build_flip_graph(seed, max_nodes=429).nodes) == 429


def _moved(inst, triangulations, point_map=lambda p: p, reverse=False, labels=None):
    """The instance and triangulations under a point map, with every border
    polygon reversed when ``reverse``, and vertex i renamed ``labels[i]``."""
    labels = labels or list(range(inst.n))
    points = [None] * inst.n
    for i, p in enumerate(inst.points):
        points[labels[i]] = point_map(p)
    border = [
        [labels[v] for v in (poly[::-1] if reverse else poly)] for poly in inst.border
    ]
    moved = Instance(points, border)
    return [
        Triangulation(moved, [(labels[a], labels[b]) for a, b in t.edges])
        for t in triangulations
    ]


METAMORPHIC_SHAPES = {
    "convex_interior": dict(n_points=10, interior_points=2),
    "star": dict(n_points=9, shape="random_simple_border"),
    "holed": dict(n_points=10, shape="with_holes", holes=1),
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("shape", sorted(METAMORPHIC_SHAPES))
def test_distance_is_invariant_under_transforms(shape, seed):
    inst = generate_instance(GenSpec(seed=seed, **METAMORPHIC_SHAPES[shape]))
    pair = [
        greedy_triangulate(inst, priority=random_priority(inst, seed + s))
        for s in (10, 20)
    ]
    d = exact_flip_distance(*pair)
    labels = list(range(inst.n))
    random.Random(seed).shuffle(labels)
    transforms = {
        "translation": dict(point_map=lambda p: (p[0] + 17, p[1] - 5)),
        "rotation": dict(point_map=lambda p: (-p[1], p[0])),
        "reflection": dict(point_map=lambda p: (-p[0], p[1]), reverse=True),
        "border_reversal": dict(reverse=True),
        "relabelling": dict(labels=labels),
    }
    for kind, transform in transforms.items():
        assert exact_flip_distance(*_moved(inst, pair, **transform)) == d, kind
