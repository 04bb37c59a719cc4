"""Ground truth at desk scale: flip-graph BFS and exhaustive enumeration."""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass

from . import geometry
from .errors import (
    FlipdistError,
    GraphTooLarge,
    InstanceMismatch,
    InstanceTooLarge,
)
from .triangulation import (
    Edge,
    Instance,
    Triangulation,
    interior_edge_count,
    quadrilateral_of,
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

    def node_ids(self) -> range:
        return range(len(self.nodes))

    def triangulation(self, i: int) -> Triangulation:
        return Triangulation(self.instance, self.nodes[i])

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


def build_flip_graph(seed: Triangulation, max_nodes: int = MAX_NODES) -> FlipGraph:
    """BFS closure of the seed under all legal flips.

    Faces are traced once per dequeued node and dropped with it; each
    neighbour's key is the node's key with one edge replaced.
    """
    instance = seed.instance
    start = seed.key()
    nodes: list[NodeKey] = [start]
    index: dict[NodeKey, int] = {start: 0}
    adjacency: list[list[tuple[Edge, int]]] = [[]]
    queue = deque([0])
    while queue:
        u = queue.popleft()
        key = nodes[u]
        t = Triangulation(instance, key)
        for e in t.interior_edges():
            quad = quadrilateral_of(t, e)
            if quad is None or not quad.strictly_convex:
                continue
            neighbor = _replace_edge(key, e, quad.opposite)
            v = index.get(neighbor)
            if v is None:
                if len(nodes) >= max_nodes:
                    raise GraphTooLarge(
                        f"flip graph exceeds {max_nodes} nodes"
                    )
                v = len(nodes)
                index[neighbor] = v
                nodes.append(neighbor)
                adjacency.append([])
                queue.append(v)
            adjacency[u].append((e, v))
    return FlipGraph(
        instance=instance, nodes=nodes, index=index, adjacency=adjacency
    )


def exact_flip_distance(t1: Triangulation, t2: Triangulation) -> int:
    """Shortest flip-path length between t1 and t2, via BFS."""
    if t1.instance != t2.instance:
        raise InstanceMismatch("triangulations have different instances")
    if t1.edges == t2.edges:
        return 0
    graph = build_flip_graph(t1)
    target = graph.index.get(t2.key())
    if target is None:
        raise FlipdistError(
            "target triangulation unreachable by flips (flip graph disconnected)"
        )
    return graph.distances_from(0)[target]


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
    inst.require_valid()
    need = interior_edge_count(inst.n, inst.n_b, inst.h)
    border = tuple(sorted(inst.border_edges))
    candidates = [
        e for e in inst.admissible_pairs() if e not in inst.border_edges
    ]
    m = len(candidates)
    if need == 0:
        return [tuple(sorted(border))]
    segs = [inst.segment(e) for e in candidates]
    compat = [0] * m
    for i in range(m):
        mask = 0
        for j in range(m):
            if i != j and not geometry.properly_intersect(segs[i], segs[j]):
                mask |= 1 << j
        compat[i] = mask
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
