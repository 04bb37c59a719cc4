"""Seeded triangulation pairs and flip-graph distances for the tests."""

from collections import deque

from flipdist.generate import GenSpec, generate_instance, random_priority
from flipdist.oracle import FlipGraph
from flipdist.triangulation import Triangulation, greedy_triangulate


def generate_pair(
    spec: GenSpec, seed2: int
) -> tuple[Triangulation, Triangulation]:
    """Two triangulations of the same generated instance.

    Both come from greedy construction under different seeded random
    priorities, so the pair may coincide (equality iff zero crossings).
    """
    inst = generate_instance(spec)
    t1 = greedy_triangulate(inst, priority=random_priority(inst, spec.seed))
    t2 = greedy_triangulate(inst, priority=random_priority(inst, seed2))
    return t1, t2


def distances_from(graph: FlipGraph, start: int) -> list[int]:
    dist = [-1] * len(graph.nodes)
    dist[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for _, v in graph.adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist
