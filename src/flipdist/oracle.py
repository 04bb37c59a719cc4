"""Ground truth at desk scale: flip-graph BFS and exhaustive enumeration."""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .errors import FlipdistError, GraphTooLarge, InstanceTooLarge
from .triangulation import (
    Edge,
    Instance,
    Triangulation,
    apex_map,
    apex_quadrilateral,
    flip_apexes,
    interior_edge_count,
    require_same_instance,
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

    def distances_from(self, start: int) -> list[int]:
        dist = [-1] * len(self.nodes)
        dist[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for _, v in self.adjacency[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist


def _replace_edge(key: NodeKey, old: Edge, new: Edge) -> NodeKey:
    """The sorted edge list ``key`` with ``old`` replaced by ``new``."""
    i = bisect_left(key, old)
    rest = key[:i] + key[i + 1 :]
    j = bisect_left(rest, new)
    return rest[:j] + (new,) + rest[j:]


def _walk(
    seed: Triangulation, max_nodes: int, target: Optional[NodeKey] = None
) -> tuple[FlipGraph, Optional[int]]:
    """Breadth-first search of the flip graph from the seed.

    The seed's cached apex map is read as is.  Each queued child carries its
    own copy, derived from its parent's by one in-place flip, and drops it
    when dequeued, so only the frontier holds maps; a neighbour's
    key is the node's key with one edge replaced.  The search stops when it
    discovers ``target`` and returns the graph explored so far with the
    target's depth, or, once the component is exhausted, the whole graph
    with None.  Raises GraphTooLarge before a node beyond ``max_nodes``.
    """
    instance = seed.instance
    pts = instance.points
    border = instance.border_edges
    start = seed.key()
    nodes: list[NodeKey] = [start]
    index: dict[NodeKey, int] = {start: 0}
    adjacency: list[list[tuple[Edge, int]]] = [[]]
    graph = FlipGraph(
        instance=instance, nodes=nodes, index=index, adjacency=adjacency
    )
    if start == target:
        return graph, 0
    queue = deque([(0, apex_map(seed))])
    # Node ids are assigned in BFS order, so the nodes of one depth are
    # contiguous: ids below level_end have depth at most ``depth``.
    depth, level_end = 0, 1
    while queue:
        u, apexes = queue.popleft()
        if u >= level_end:
            depth, level_end = depth + 1, len(nodes)
        key = nodes[u]
        arcs = adjacency[u]
        for e in key:
            if e in border:
                continue
            quad = apex_quadrilateral(pts, apexes, e)
            if not quad.strictly_convex:
                continue
            neighbor = _replace_edge(key, e, quad.opposite)
            v = index.get(neighbor)
            if v is None:
                if len(nodes) >= max_nodes:
                    raise GraphTooLarge(f"flip graph exceeds {max_nodes} nodes")
                v = len(nodes)
                index[neighbor] = v
                nodes.append(neighbor)
                adjacency.append([])
                if neighbor == target:
                    return graph, depth + 1
                child = dict(apexes)
                flip_apexes(child, quad)
                queue.append((v, child))
            arcs.append((e, v))
    return graph, None


def build_flip_graph(seed: Triangulation, max_nodes: int = MAX_NODES) -> FlipGraph:
    """BFS closure of the seed under all legal flips.

    Raises GraphTooLarge when the closure has more than ``max_nodes``
    triangulations.
    """
    return _walk(seed, max_nodes)[0]


def exact_flip_distance(t1: Triangulation, t2: Triangulation) -> int:
    """Shortest flip-path length between t1 and t2.

    A BFS from t1 that stops at the depth where it first discovers t2;
    it raises GraphTooLarge when more than MAX_NODES triangulations are
    discovered before that.
    """
    require_same_instance(t1, t2)
    depth = _walk(t1, MAX_NODES, t2.key())[1]
    if depth is None:
        raise FlipdistError(
            "target triangulation unreachable by flips (flip graph disconnected)"
        )
    return depth


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
    m = len(candidates)
    if need == 0:
        return [tuple(sorted(border))]
    packed = kernels.segments_array([inst.segment(e) for e in candidates])
    # Bit j of compat[i]: candidates i and j do not cross.  Bit i is set too,
    # which is harmless: the search only adds candidates after i.
    compat = [
        int.from_bytes(np.packbits(~row, bitorder="little").tobytes(), "little")
        for row in kernels.crossing_matrix(packed, packed)
    ]
    results: list[NodeKey] = []
    chosen: list[Edge] = []

    def rec(start: int, allowed: int, need_left: int) -> None:
        if need_left == 0:
            results.append(tuple(sorted(chosen + list(border))))
            return
        for i in range(start, m - need_left + 1):
            if (allowed >> i) & 1:
                chosen.append(candidates[i])
                rec(i + 1, allowed & compat[i], need_left - 1)
                chosen.pop()

    rec(0, (1 << m) - 1, need)
    results.sort()
    return results
