"""Ground truth at desk scale: flip-graph BFS and exhaustive enumeration.

Both searches name a triangulation by its :meth:`Triangulation.key`, an int
with bit i set iff ``inst.admissible_pairs()[i]`` is one of its edges; a
flip is then one xor.  ``inst.edges_of(key)`` decodes a key into its sorted
edge list.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import kernels
from .errors import FlipdistError, GraphTooLarge, InstanceTooLarge
from .triangulation import (
    Edge,
    Instance,
    Triangulation,
    apex_map,
    apex_quadrilateral,
    canonical_edge,
    interior_edge_count,
    require_same_instance,
    validate,
)

MAX_NODES = 10**6
MAX_DIRECT_POINTS = 12


@dataclass
class FlipGraph:
    """The graph of all triangulations reachable from a seed by single flips.

    ``nodes`` lists their keys in discovery order, ``index`` maps a key to
    its node id, and ``adjacency[u]`` lists ``(flipped edge, neighbour id)``
    in edge order.
    """

    instance: Instance
    nodes: list[int]
    index: dict[int, int]
    adjacency: list[list[tuple[Edge, int]]]


# A node's faces, by edge position: slot i holds sum(1 << v) over the apexes
# v of the faces on admissible pair i, and 0 when that pair is not an edge.
Apexes = list[int]
# One flip, as the search applies it: the xor that turns a key into the
# neighbour's; the flipped edge and its slot; the opposite diagonal's slot
# and apexes; then four (side slot, apex xor) pairs.
Flip = tuple[int, Edge, int, int, int, int, int, int, int, int, int, int, int]


class _Flips:
    """The flips of one instance's triangulations, each computed once.

    An edge and its two apexes fix the quadrilateral, so the flip of edge i
    is memoised by (i, slot i) for the whole search, across nodes and sides.
    """

    def __init__(self, inst: Instance):
        self.pts = inst.points
        self.pairs = inst.admissible_pairs()
        self.index = inst.edge_index()
        self.interior = sum(
            1 << i for i, e in enumerate(self.pairs) if e not in inst.border_edges
        )
        self.memo: list[dict[int, Flip | tuple[()]]] = [{} for _ in self.pairs]

    def apexes(self, t: Triangulation) -> Apexes:
        """The slots of ``t``, read from its cached apex map."""
        slots = [0] * len(self.pairs)
        for e, incident in apex_map(t).items():
            slots[self.index[e]] = sum(1 << v for v in incident)
        return slots

    def expand(self, key: int, apexes: Apexes) -> Iterator[tuple[Flip, int]]:
        """Each flip of the node ``key`` with its neighbour's key, in edge order."""
        memo = self.memo
        edges = key & self.interior
        while edges:
            low = edges & -edges
            edges ^= low
            i = low.bit_length() - 1
            pair = apexes[i]
            flip = memo[i].get(pair)
            if flip is None:
                flip = memo[i][pair] = self._flip(i, pair)
            if flip:
                yield flip, key ^ flip[0]

    def _flip(self, i: int, pair: int) -> Flip | tuple[()]:
        """The flip of edge i with apexes ``pair``; () when its quadrilateral
        is not strictly convex."""
        e = self.pairs[i]
        x, y = (pair & -pair).bit_length() - 1, pair.bit_length() - 1
        quad = apex_quadrilateral(self.pts, {e: (x, y)}, e)
        if not quad.strictly_convex:
            return ()
        a, b, c, d = quad.vertices
        index = self.index
        j = index[quad.opposite]
        # The ccw faces abc and acd become abd and bcd: each side trades the
        # apex across the old diagonal for the one across the new.
        return (
            1 << i | 1 << j, e, i, j, 1 << a | 1 << c,
            index[canonical_edge(a, b)], 1 << c | 1 << d,
            index[canonical_edge(b, c)], 1 << a | 1 << d,
            index[canonical_edge(c, d)], 1 << a | 1 << b,
            index[canonical_edge(d, a)], 1 << c | 1 << b,
        )


def _child(apexes: Apexes, flip: Flip) -> Apexes:
    """A copy of ``apexes`` with ``flip`` applied."""
    _, _, i, j, diagonal, s0, x0, s1, x1, s2, x2, s3, x3 = flip
    child = apexes.copy()
    child[i] = 0
    child[j] = diagonal
    child[s0] ^= x0
    child[s1] ^= x1
    child[s2] ^= x2
    child[s3] ^= x3
    return child


def build_flip_graph(seed: Triangulation) -> FlipGraph:
    """BFS closure of the seed under all legal flips.

    The seed's slots are read from its cached apex map.  Each queued child
    carries its own slots, derived from its parent's by one flip, and drops
    them when dequeued, so only the frontier holds them.  Node ids are
    assigned in discovery order.  Raises GraphTooLarge when the closure has
    more than MAX_NODES triangulations.
    """
    flips = _Flips(seed.instance)
    start = seed.key()
    nodes = [start]
    index = {start: 0}
    adjacency: list[list[tuple[Edge, int]]] = [[]]
    queue = deque([(0, flips.apexes(seed))])
    while queue:
        u, apexes = queue.popleft()
        arcs = adjacency[u]
        for flip, neighbor in flips.expand(nodes[u], apexes):
            v = index.get(neighbor)
            if v is None:
                if len(nodes) >= MAX_NODES:
                    raise GraphTooLarge(f"flip graph exceeds {MAX_NODES} nodes")
                v = len(nodes)
                index[neighbor] = v
                nodes.append(neighbor)
                adjacency.append([])
                queue.append((v, _child(apexes, flip)))
            arcs.append((flip[1], v))
    return FlipGraph(
        instance=seed.instance, nodes=nodes, index=index, adjacency=adjacency
    )


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
    flips = _Flips(t1.instance)
    seen = ({start: 0}, {goal: 0})
    frontiers = [[(start, flips.apexes(t1))], [(goal, flips.apexes(t2))]]
    levels = [0, 0]
    while frontiers[0] and frontiers[1]:
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        mine, other = seen[side], seen[1 - side]
        depth = levels[side] + 1
        level: list[tuple[int, Apexes]] = []
        for key, apexes in frontiers[side]:
            for flip, neighbor in flips.expand(key, apexes):
                if neighbor in other:
                    return depth + other[neighbor]
                if neighbor not in mine:
                    if len(mine) + len(other) >= MAX_NODES:
                        raise GraphTooLarge(
                            f"flip graph exceeds {MAX_NODES} nodes"
                        )
                    mine[neighbor] = depth
                    level.append((neighbor, _child(apexes, flip)))
        frontiers[side] = level
        levels[side] = depth
    raise unreachable


def enumerate_triangulations_direct(inst: Instance) -> list[int]:
    """The keys of all triangulations of the instance, sorted, by exhaustive
    search.

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
    pairs = inst.admissible_pairs()
    border = sum(1 << i for i, e in enumerate(pairs) if e in inst.border_edges)
    if need == 0:
        return [border]
    packed = kernels.segments_array([inst.segment(e) for e in pairs])
    # Bit j of crossers[i]: pairs i and j cross.
    grid = kernels.crossing_matrix(packed, packed)
    crossers = [
        int.from_bytes(row.tobytes(), "little")
        for row in np.packbits(grid, axis=1, bitorder="little")
    ]
    results: list[int] = []

    def rec(allowed: int, need_left: int, key: int) -> None:
        # Take the set bits of ``allowed`` lowest first, clearing each as it
        # is taken, so a branch only adds candidates after its last one.  A
        # triangulation is maximal, so a candidate passed over must be
        # crossed by a later one: once none is left to cross it, or fewer
        # candidates are left than edges are still needed, no later branch
        # completes.
        while allowed.bit_count() >= need_left:
            low = allowed & -allowed
            allowed ^= low
            crossing = crossers[low.bit_length() - 1]
            if need_left == 1:
                results.append(key | low)
            else:
                rec(allowed & ~crossing, need_left - 1, key | low)
            if not allowed & crossing:
                return

    rec(((1 << len(pairs)) - 1) ^ border, need, border)
    results.sort()
    return results
