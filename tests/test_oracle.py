import itertools
import math
import random
from collections import deque
from pathlib import Path

import pytest

from flipdist import formats, kernels, oracle
from flipdist.cli import run as cli_run
from flipdist.errors import GraphTooLarge, InstanceTooLarge, InvariantViolation
from flipdist.generate import GenSpec, generate_instance, random_priority
from flipdist.oracle import (
    build_flip_graph,
    enumerate_triangulations_direct,
    exact_flip_distance,
)
from flipdist.triangulation import (
    Instance,
    Triangulation,
    apex_map,
    apex_quadrilateral,
    flip,
    greedy_triangulate,
    quadrilateral_of,
    validate,
)
from helpers import distances_from, wrong_key_lists

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
    return [distances_from(graph, i) for i in range(len(graph.nodes))]


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
    t = Triangulation(inst, inst.edges_of(nodes[0]))
    assert t.edges == inst.border_edges


def test_graph_edges_are_single_flips(pentagon):
    graph = build_flip_graph(greedy_triangulate(pentagon))
    for u in range(len(graph.nodes)):
        edges_u = set(pentagon.edges_of(graph.nodes[u]))
        for _, v in graph.adjacency[u]:
            edges_v = set(pentagon.edges_of(graph.nodes[v]))
            assert len(edges_u - edges_v) == 1
            assert len(edges_v - edges_u) == 1


def _all_distances_agree(graph, pairs):
    inst = graph.instance
    ts = [Triangulation(inst, inst.edges_of(key)) for key in graph.nodes]
    for i, targets in itertools.groupby(sorted(pairs), key=lambda p: p[0]):
        dist = distances_from(graph, i)
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


def test_bidirectional_distance_octagon_all_pairs():
    inst = generate_instance(GenSpec(seed=8, n_points=8))
    graph = build_flip_graph(greedy_triangulate(inst))
    assert len(graph.nodes) == 132
    _all_distances_agree(graph, itertools.product(range(132), repeat=2))


def test_bidirectional_distance_nonagon_seeded_sources():
    graph = build_flip_graph(greedy_triangulate(generate_instance(GenSpec(seed=9, n_points=9))))
    assert len(graph.nodes) == 429
    sources = random.Random(9).sample(range(429), 10)
    _all_distances_agree(graph, itertools.product(sources, range(429)))


def test_distance_node_cap_counts_both_sides(monkeypatch):
    # A pair at distance 6 in the 9-gon's 429-node flip graph: the two
    # sides together discover 149 nodes before they meet.
    inst = generate_instance(GenSpec(seed=9, n_points=9))
    graph = build_flip_graph(greedy_triangulate(inst))
    t1 = Triangulation(inst, inst.edges_of(graph.nodes[0]))
    t2 = Triangulation(inst, inst.edges_of(graph.nodes[297]))
    monkeypatch.setattr(oracle, "MAX_NODES", 148)
    with pytest.raises(GraphTooLarge, match="exceeds 148 nodes"):
        exact_flip_distance(t1, t2)
    monkeypatch.setattr(oracle, "MAX_NODES", 149)
    assert exact_flip_distance(t1, t2) == distances_from(graph, 0)[297] == 6


# Pairs (0, j) of the 9-gon's flip graph, and the fewest nodes the two sides
# discover up to their first meeting arc.  On each pair the sides find more
# new nodes in the rest of that level, so a cap that counted the whole level
# would refuse the smallest cap given here.
FIRST_MEETING_NODES = {50: 21, 200: 63, 350: 116, 428: 102}


@pytest.mark.parametrize("j", sorted(FIRST_MEETING_NODES))
def test_distance_node_cap_stops_at_the_first_meeting(j, monkeypatch):
    inst = generate_instance(GenSpec(seed=9, n_points=9))
    graph = build_flip_graph(greedy_triangulate(inst))
    t1 = Triangulation(inst, inst.edges_of(graph.nodes[0]))
    t2 = Triangulation(inst, inst.edges_of(graph.nodes[j]))
    cap = FIRST_MEETING_NODES[j]
    monkeypatch.setattr(oracle, "MAX_NODES", cap - 1)
    with pytest.raises(GraphTooLarge):
        exact_flip_distance(t1, t2)
    monkeypatch.setattr(oracle, "MAX_NODES", cap)
    assert exact_flip_distance(t1, t2) == distances_from(graph, 0)[j]


# The holed instance of the oracle_sweep benchmark: a 7-gon with a
# triangular hole, 833 triangulations.
SWEEP_HOLED = Instance(
    [
        (431681, 902027), (-347282, 937761), (-441804, 897112), (-585040, 811004),
        (-599397, -800452), (553308, -832976), (978969, -204011), (314538, -277353),
        (307385, -280391), (329861, -240936),
    ],
    [[0, 1, 2, 3, 4, 5, 6], [7, 8, 9]],
)


@pytest.mark.parametrize(
    "inst, count",
    [
        (generate_instance(SAMPLED["star9"]), None),
        (SWEEP_HOLED, 833),
        (generate_instance(GenSpec(seed=10, n_points=10, interior_points=3)), None),
    ],
    ids=["star9", "sweep_holed10", "interior10"],
)
def test_pruned_enumeration_matches_flip_graph(inst, count):
    nodes = enumerate_triangulations_direct(inst)
    assert nodes == sorted(build_flip_graph(greedy_triangulate(inst)).nodes)
    assert count is None or len(nodes) == count


def _closure_cases(dart):
    """Instances and their triangulation counts where known: convex n=3-12,
    Catalan C(n-2), the 12-gon with two key words; star n=9-11; holed
    n=10-12 with one or two holes; interior points; and the dart, whose
    candidate set is empty."""
    specs = [GenSpec(seed=n, n_points=n, shape="random_simple_border") for n in (9, 10, 11)]
    specs += [
        GenSpec(seed=n, n_points=n, shape="with_holes", holes=h)
        for n in (10, 11, 12)
        for h in (1, 2)
    ]
    specs += [GenSpec(seed=10, n_points=10, interior_points=3)]
    specs += [GenSpec(seed=11, n_points=11, interior_points=2)]
    yield from (
        (generate_instance(GenSpec(seed=n, n_points=n)), math.comb(2 * n - 4, n - 2) // (n - 1))
        for n in range(3, 13)
    )
    yield from ((generate_instance(spec), None) for spec in specs)
    yield dart, 1


def _rule_closure(inst, key):
    """Every key reached from ``key`` by the flip rule of
    :meth:`oracle._FlipTable.expand`, whether or not key is a triangulation."""
    flips = oracle._flip_table(inst)
    seen, level = {key}, [key]
    while level:
        _, _, rows = flips.expand(oracle._rows(level, flips.words))
        level = sorted(set(oracle._ints(rows)) - seen)
        seen.update(level)
    return seen


def _listings(inst, keys, start):
    """The sorted key list, its wrong versions and, on small instances, the
    list with everything its non-triangulation reaches by the flip rule
    added."""
    wrong = wrong_key_lists(inst, keys, start)
    yield keys
    yield from wrong.values()
    if "non_triangulation" in wrong and len(keys) <= 500:
        (cleared,) = set(wrong["non_triangulation"]) - set(keys)
        yield sorted(set(keys) | _rule_closure(inst, cleared))


@pytest.mark.parametrize("backend", kernels.KERNELS)
def test_closure_check_decides_as_the_flip_graph(backend, monkeypatch, dart):
    """The enumerate command's check accepts a key list exactly when it is
    the flip graph's sorted node list, on the direct list and corruptions."""
    monkeypatch.setenv(kernels.KERNEL_ENV, backend)
    for inst, count in _closure_cases(dart):
        keys = enumerate_triangulations_direct(inst)
        assert count is None or len(keys) == count
        assert (oracle._flip_table(inst).words == 2) == (count == 16796)
        seed = greedy_triangulate(inst)
        reach = sorted(build_flip_graph(seed).nodes)
        for listed in _listings(inst, keys, seed.key()):
            assert (oracle._closure_gap(seed, listed) is None) == (listed == reach)


def _flip_graph_reference(inst):
    """The flip-graph BFS on sorted edge tuples: each node's faces are traced
    afresh, and each flip rebuilds the tuple with one edge replaced."""
    start = tuple(sorted(greedy_triangulate(inst).edges))
    nodes, index, adjacency = [start], {start: 0}, []
    queue = deque([start])
    while queue:
        key = queue.popleft()
        apexes = apex_map(Triangulation(inst, key))
        arcs = []
        for e in key:
            if e in inst.border_edges:
                continue
            quad = apex_quadrilateral(inst.points, apexes, e)
            if not quad.strictly_convex:
                continue
            neighbor = tuple(sorted(set(key) - {e} | {quad.opposite}))
            if neighbor not in index:
                index[neighbor] = len(nodes)
                nodes.append(neighbor)
                queue.append(neighbor)
            arcs.append((e, index[neighbor]))
        adjacency.append(arcs)
    return nodes, adjacency


STAR16 = GenSpec(seed=14, n_points=16, shape="random_simple_border")


DIFFERENTIAL_INSTANCES = {
    "convex8": lambda: generate_instance(GenSpec(seed=8, n_points=8)),
    "star9": lambda: generate_instance(SAMPLED["star9"]),
    "sweep_holed10": lambda: SWEEP_HOLED,
    # A hole sharing vertex 0 with the outer polygon.
    "pinched": lambda: Instance(
        [(0, 0), (10, 0), (10, 10), (0, 10), (5, 2), (6, 4)],
        [[0, 1, 2, 3], [0, 4, 5]],
    ),
    # A border vertex between two collinear border edges, and three
    # collinear interior points.
    "collinear": lambda: Instance(
        [(0, 0), (3, 0), (6, 0), (6, 6), (0, 6), (2, 3), (3, 3), (4, 3)],
        [[0, 1, 2, 3, 4]],
    ),
    # 68 admissible pairs, so keys take two words, and 1702 triangulations.
    "star16": lambda: generate_instance(STAR16),
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_INSTANCES))
def test_flip_graph_matches_tuple_reference(name):
    """The search on edge bitmasks finds the reference's nodes in the same
    order, with the same arcs, and each key is its triangulation's key."""
    inst = DIFFERENTIAL_INSTANCES[name]()
    graph = build_flip_graph(greedy_triangulate(inst))
    nodes, adjacency = _flip_graph_reference(inst)
    assert len(nodes) > 1
    assert [inst.edges_of(k) for k in graph.nodes] == nodes
    assert graph.adjacency == adjacency
    for k in graph.nodes:
        assert Triangulation(inst, inst.edges_of(k)).key() == k


def test_two_word_keys_distances_match_bfs():
    """Three flippable pairs of this instance sit in the keys' second word;
    the bidirectional search agrees with BFS distances from seeded sources."""
    inst = generate_instance(STAR16)
    pairs = inst.admissible_pairs()
    assert len(pairs) > 64
    assert len([e for e in pairs[64:] if e not in inst.border_edges]) == 3
    graph = build_flip_graph(greedy_triangulate(inst))
    assert len(graph.nodes) == 1702
    assert len({key >> 64 for key in graph.nodes}) > 1  # flips reach word 2
    rng = random.Random(16)
    ids = range(len(graph.nodes))
    pairs = [(i, j) for i in rng.sample(ids, 3) for j in rng.sample(ids, 40)]
    _all_distances_agree(graph, pairs)


def test_many_word_keys_expand_every_flip():
    """With 325 admissible pairs keys take six words.  One expansion of a
    triangulation finds exactly its flips, removing and adding pairs past
    the first four words, where a pair's id no longer fits a byte."""
    inst = generate_instance(GenSpec(seed=26, n_points=26))
    t = greedy_triangulate(inst, priority=random_priority(inst, 26))
    flips = oracle._flip_table(inst)
    assert flips.words == 6
    _, flipped, keys = flips.expand(oracle._rows([t.key()], flips.words))
    index = inst.edge_index()
    quads = [quadrilateral_of(t, e) for e in t.interior_edges()]
    convex = [q for q in quads if q.strictly_convex]
    want = {index[q.diagonal]: flip(t, q.diagonal).key() for q in convex}
    assert dict(zip(flipped.tolist(), oracle._ints(keys))) == want
    assert max(want) >= 256
    assert max(index[q.opposite] for q in convex) >= 256


def _without_an_interior_edge(inst):
    t = greedy_triangulate(inst)
    return t, Triangulation(inst, t.edges - {t.interior_edges()[0]})


@pytest.mark.parametrize("name", ["convex8", "sweep_holed10", "star16"])
def test_flip_graph_refuses_a_non_triangulation(name):
    _, seed = _without_an_interior_edge(DIFFERENTIAL_INSTANCES[name]())
    with pytest.raises(InvariantViolation) as info:
        build_flip_graph(seed)
    assert str(info.value).startswith("seed is not a valid triangulation: ")
    assert info.value.violations == validate(seed) != []


@pytest.mark.parametrize("name", ["convex8", "sweep_holed10", "star16"])
def test_distance_refuses_a_non_triangulation_source(name):
    t2, t1 = _without_an_interior_edge(DIFFERENTIAL_INSTANCES[name]())
    with pytest.raises(InvariantViolation) as info:
        exact_flip_distance(t1, t2)
    assert str(info.value).startswith("t1 is not a valid triangulation: ")
    assert info.value.violations == validate(t1) != []


def test_distance_refuses_a_non_triangulation_target(holed):
    # Dyn, Goren & Rippa: the flip graph of a polygonal domain is connected,
    # so a t2 no search reaches is not a node of it: the gate names it.
    t1 = greedy_triangulate(holed)
    e = t1.interior_edges()[0]
    t2 = Triangulation(holed, t1.edges - {e})
    with pytest.raises(InvariantViolation) as info:
        exact_flip_distance(t1, t2)
    assert str(info.value).startswith("t2 is not a valid triangulation: ")
    assert info.value.violations == validate(t2) != []


def test_flip_graph_node_cap(monkeypatch):
    seed = greedy_triangulate(generate_instance(GenSpec(seed=9, n_points=9)))
    monkeypatch.setattr(oracle, "MAX_NODES", 50)
    with pytest.raises(GraphTooLarge, match="exceeds 50 nodes"):
        build_flip_graph(seed)
    monkeypatch.setattr(oracle, "MAX_NODES", 428)
    with pytest.raises(GraphTooLarge):
        build_flip_graph(seed)
    monkeypatch.setattr(oracle, "MAX_NODES", 429)
    assert len(build_flip_graph(seed).nodes) == 429


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


# `flipdist enumerate --list` output, captured for two instances; the lines
# are the sorted edge lists of the triangulations, in sorted order.
GOLDEN_LISTS = Path(__file__).parent / "data" / "enumerate"


@pytest.mark.parametrize(
    "name, inst",
    [("sweep_holed10", SWEEP_HOLED), ("star9", generate_instance(SAMPLED["star9"]))],
)
def test_enumerate_list_golden(name, inst, tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_bytes(formats.serialize_instance(inst))
    assert cli_run(["enumerate", str(path), "--list"]) == 0
    assert capsys.readouterr().out == (GOLDEN_LISTS / f"{name}.list.txt").read_text()
