"""Ground truth at desk scale: flip-graph BFS and exhaustive enumeration."""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import kernels
from .errors import FlipdistError, GraphTooLarge, InstanceTooLarge
from .geometry import Point
from .triangulation import (
    ApexMap,
    Edge,
    Instance,
    Quadrilateral,
    Triangulation,
    apex_map,
    apex_quadrilateral,
    flip_apexes,
    interior_edge_count,
    require_same_instance,
    validate,
)

MAX_NODES = 10**6
MAX_DIRECT_POINTS = 12

NodeKey = tuple[Edge, ...]


@dataclass
class FlipGraph:
    """The graph of all triangulations reachable from a seed by single flips."""

    instance: Instance
    nodes: list[NodeKey]
    index: dict[NodeKey, int]
    adjacency: list[list[tuple[Edge, int]]]


def _replace_edge(key: NodeKey, old: Edge, new: Edge) -> NodeKey:
    """The sorted edge list ``key`` with ``old`` replaced by ``new``."""
    i = bisect_left(key, old)
    rest = key[:i] + key[i + 1 :]
    j = bisect_left(rest, new)
    return rest[:j] + (new,) + rest[j:]


QuadMemo = dict[tuple[Edge, tuple[int, ...]], Quadrilateral]


def _expand(
    key: NodeKey,
    apexes: ApexMap,
    pts: Sequence[Point],
    border: frozenset[Edge],
    memo: QuadMemo,
) -> Iterator[tuple[Quadrilateral, NodeKey]]:
    """Each flip of the node ``key``, whose edge -> apex map is ``apexes``.

    Yields ``(quadrilateral, neighbour key)`` for every flippable interior
    edge, in key order; the neighbour's key is ``key`` with the diagonal
    replaced by the opposite one.  An edge and its two apexes fix the
    quadrilateral, so ``memo`` caches :func:`apex_quadrilateral` by
    ``(edge, apex pair)`` for the whole search, across nodes and sides.
    """
    for e in key:
        if e in border:
            continue
        slot = (e, apexes[e])
        quad = memo.get(slot)
        if quad is None:
            quad = memo[slot] = apex_quadrilateral(pts, apexes, e)
        if quad.strictly_convex:
            yield quad, _replace_edge(key, e, quad.opposite)


def _child(apexes: ApexMap, quad: Quadrilateral) -> ApexMap:
    """A copy of ``apexes`` with ``quad``'s diagonal flipped."""
    child = dict(apexes)
    flip_apexes(child, quad)
    return child


def build_flip_graph(seed: Triangulation) -> FlipGraph:
    """BFS closure of the seed under all legal flips.

    The seed's cached apex map is read as is.  Each queued child carries its
    own copy, derived from its parent's by one in-place flip, and drops it
    when dequeued, so only the frontier holds maps.  Node ids are assigned
    in discovery order.  Raises GraphTooLarge when the closure has more
    than MAX_NODES triangulations.
    """
    instance = seed.instance
    pts = instance.points
    border = instance.border_edges
    memo: QuadMemo = {}
    start = seed.key()
    nodes: list[NodeKey] = [start]
    index: dict[NodeKey, int] = {start: 0}
    adjacency: list[list[tuple[Edge, int]]] = [[]]
    queue = deque([(0, apex_map(seed))])
    while queue:
        u, apexes = queue.popleft()
        arcs = adjacency[u]
        for quad, neighbor in _expand(nodes[u], apexes, pts, border, memo):
            v = index.get(neighbor)
            if v is None:
                if len(nodes) >= MAX_NODES:
                    raise GraphTooLarge(f"flip graph exceeds {MAX_NODES} nodes")
                v = len(nodes)
                index[neighbor] = v
                nodes.append(neighbor)
                adjacency.append([])
                queue.append((v, _child(apexes, quad)))
            arcs.append((quad.diagonal, v))
    return FlipGraph(instance=instance, nodes=nodes, index=index, adjacency=adjacency)


def exact_flip_distance(t1: Triangulation, t2: Triangulation) -> int:
    """Shortest flip-path length between t1 and t2.

    A bidirectional breadth-first search: one side walks from t1, the
    other from t2, and each round expands the side with the smaller
    frontier by one full level, t1's side on a tie.  The sides' discovered
    sets stay disjoint until they meet, and each holds every node within
    its depth of its seed; so if they have not met at depths la and lb,
    the distance exceeds la + lb, and the first meeting found in the next
    round, la + 1 + (the other side's depth of the node), is optimal.
    Raises GraphTooLarge when the two sides together discover more than
    MAX_NODES triangulations, and FlipdistError when t2 is not a
    triangulation or a side runs out of nodes before they meet.
    """
    require_same_instance(t1, t2)
    unreachable = FlipdistError(
        "target triangulation unreachable by flips (flip graph disconnected)"
    )
    if validate(t2):
        raise unreachable
    start, goal = t1.key(), t2.key()
    if start == goal:
        return 0
    pts = t1.instance.points
    border = t1.instance.border_edges
    memo: QuadMemo = {}
    seen = ({start: 0}, {goal: 0})
    frontiers = [[(start, apex_map(t1))], [(goal, apex_map(t2))]]
    levels = [0, 0]
    while frontiers[0] and frontiers[1]:
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        mine, other = seen[side], seen[1 - side]
        depth = levels[side] + 1
        level: list[tuple[NodeKey, ApexMap]] = []
        for key, apexes in frontiers[side]:
            for quad, neighbor in _expand(key, apexes, pts, border, memo):
                if neighbor in other:
                    return depth + other[neighbor]
                if neighbor not in mine:
                    if len(mine) + len(other) >= MAX_NODES:
                        raise GraphTooLarge(
                            f"flip graph exceeds {MAX_NODES} nodes"
                        )
                    mine[neighbor] = depth
                    level.append((neighbor, _child(apexes, quad)))
        frontiers[side] = level
        levels[side] = depth
    raise unreachable


def enumerate_triangulations_direct(inst: Instance) -> list[NodeKey]:
    """All triangulations of the instance, by exhaustive search.

    Enumerates every pairwise non-crossing set of admissible interior edges
    with exactly the interior edge count the Euler formula dictates; together
    with the border edges, each such set is maximal and hence a
    triangulation.  Independent of the flip machinery.
    """
    if inst.n > MAX_DIRECT_POINTS:
        raise InstanceTooLarge(
            f"direct enumeration capped at {MAX_DIRECT_POINTS} points"
        )
    need = interior_edge_count(inst.n, inst.n_b, inst.h)
    border = tuple(sorted(inst.border_edges))
    candidates = [
        e for e in inst.admissible_pairs() if e not in inst.border_edges
    ]
    if need == 0:
        return [tuple(sorted(border))]
    packed = kernels.segments_array([inst.segment(e) for e in candidates])
    # Bit j of compat[i]: candidates i and j do not cross.  Bit i is set too,
    # which is harmless: the search has cleared it before it reads compat[i].
    compat = [
        int.from_bytes(np.packbits(~row, bitorder="little").tobytes(), "little")
        for row in kernels.crossing_matrix(packed, packed)
    ]
    results: list[NodeKey] = []
    chosen: list[Edge] = []

    def rec(allowed: int, need_left: int) -> None:
        # Take the set bits of ``allowed`` lowest first, clearing each as it
        # is taken, so a branch only adds candidates after its last one; stop
        # when fewer candidates are left than edges are still needed.
        if need_left == 0:
            results.append(tuple(sorted(chosen + list(border))))
            return
        while allowed.bit_count() >= need_left:
            low = allowed & -allowed
            allowed ^= low
            i = low.bit_length() - 1
            chosen.append(candidates[i])
            rec(allowed & compat[i], need_left - 1)
            chosen.pop()

    rec((1 << len(candidates)) - 1, need)
    results.sort()
    return results
