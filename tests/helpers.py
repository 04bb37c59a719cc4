"""Seeded triangulation pairs, flip-graph distances, face-trace counters
and a reference for validate's full checks, for the tests."""

from collections import Counter, deque

import numpy as np

from flipdist import geometry, kernels, triangulation
from flipdist.crossings import QUAD_SEGMENTS
from flipdist.generate import GenSpec, generate_instance, random_priority
from flipdist.oracle import FlipGraph
from flipdist.triangulation import (
    Triangulation,
    canonical_edge,
    greedy_triangulate,
    interior_edge_count,
)


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


def apexes_in_order(triangles) -> dict:
    """The edge -> apex map of ``triangles``, ccw vertex triples: each
    edge's apexes in the order of its triangles.  Over ``faces(t)`` it is
    ``apex_map(t)``, apex order included."""
    apexes: dict = {}
    for a, b, c in triangles:
        for u, v, apex in ((a, b, c), (b, c, a), (c, a, b)):
            e = canonical_edge(u, v)
            apexes[e] = apexes.get(e, ()) + (apex,)
    return apexes


def quad_crosser_sets(grid, t2: Triangulation) -> list[dict]:
    """``quad_crossers``' grid as one dict per quadrilateral: for each name
    of ``QUAD_SEGMENTS``, the frozenset of t2 edges crossing that segment."""
    edges = sorted(t2.edges)
    return [
        {
            name: frozenset(e for e, hit in zip(edges, row) if hit)
            for name, row in zip(QUAD_SEGMENTS, block)
        }
        for block in grid
    ]


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


def count_traces(monkeypatch) -> Counter:
    """Counters of the two face traces, live while ``monkeypatch`` is:
    ``batch`` and ``fallback`` for batch traces that returned and that gave
    up, ``exact`` for runs of the exact loop."""
    counts: Counter = Counter()
    batch_trace, faces_exact = triangulation._batch_trace, triangulation._faces_exact

    def batch(inst, ends):
        out = batch_trace(inst, ends)
        counts["batch" if out is not None else "fallback"] += 1
        return out

    def exact(t):
        counts["exact"] += 1
        return faces_exact(t)

    monkeypatch.setattr(triangulation, "_batch_trace", batch)
    monkeypatch.setattr(triangulation, "_faces_exact", exact)
    return counts


def _ends(edges) -> np.ndarray:
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


def violations_reference(t: Triangulation) -> list[str]:
    """validate's full checks as they were when they built their own sign
    table of t's sorted edges, not reading t's (``edge_signs``): the
    reference the package's ``_violations`` must match, message for
    message."""
    inst = t.instance
    out = [f"missing border edge {e}" for e in sorted(inst.border_edges - t.edges)]
    edges = sorted(t.edges)
    for e in edges:
        if e[0] < 0 or e[1] >= inst.n or e[0] == e[1]:
            out.append(f"invalid edge {e}")
            return out
    # One table of the edges' lines against every vertex feeds every grid.
    ends = _ends(edges)
    signs = kernels.orientation_signs(inst._packed, ends)
    crossing = np.triu(kernels.segment_crossings(inst._packed, ends, ends, signs))
    for i, j in zip(*np.nonzero(crossing)):  # row-major: i, then j
        out.append(f"edges {edges[i]} and {edges[j]} cross")
    rows, ks = kernels.vertices_inside(inst._packed, ends, signs)
    out += [
        f"vertex {k} lies inside edge {edges[i]}"
        for i, k in zip(rows.tolist(), ks.tolist())
    ]
    coords = inst.border_coords()
    out += [
        f"edge {e} leaves the region"
        for e in edges
        if e not in inst.border_edges
        and geometry.midpoint_in_region(inst.segment(e), coords) != geometry.INSIDE
    ]
    expected = interior_edge_count(inst.n, inst.n_b, inst.h)
    actual = len(t.edges - inst.border_edges)
    if not out and actual == expected:
        return out
    candidates = sorted(set(inst.admissible_pairs()) - t.edges)
    blocked = kernels.segment_crossings(
        inst._packed, _ends(candidates), ends, b_signs=signs
    ).any(axis=1)
    for cand, hit in zip(candidates, blocked):
        if not hit:
            out.append(f"not maximal: edge {cand} could be added")
    if not out and actual != expected:
        out.append(f"interior edge count {actual} != expected {expected}")
    return out
