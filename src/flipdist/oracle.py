"""Ground truth at desk scale: flip-graph BFS and exhaustive enumeration.

Every search names a triangulation by its :meth:`Triangulation.key`, an int
with bit i set iff ``inst.admissible_pairs()[i]`` is one of its edges;
``inst.edges_of(key)`` decodes a key into its sorted edge list.  The two
flip searches, the direct enumeration and the ``enumerate`` command's check
of its list (:func:`_closure_gap`) read one crossing grid per instance, that
of its admissible pairs, which :class:`_FlipTable` computes and the weak memo
``_TABLES`` keeps.  The searches and the check hold keys as rows of
W = ceil(P / 64) little-endian uint64 words, for P admissible pairs, and
expand many at a time: a search a whole breadth-first level, the check its
whole list.

The flip rule.  Let K be a triangulation's key, j an admissible pair and
m the set of K's edges that cross j.  If m is one edge i, then
K - i + j is the flip of edge i, and every flip arises so, once:

* (<=) K - i + j is non-crossing and has the edge count Euler's relation
  fixes, so it is maximal, a triangulation (the fact the direct
  enumeration rests on).  The two faces on i form the only face of K - i
  that j can run through, so j is their quadrilateral's other diagonal.
* (=>) A flip's new diagonal crosses only the old diagonal of its strictly
  convex quadrilateral: it runs inside the two faces on that diagonal.

So a flip is unique per edge i.  A pair already in K crosses no edge of K
(m is empty) and drops out without a test, and so does every pair that
crosses no admissible pair at all, border edges among them.  A level
finds |m| for all its keys and candidates j at once: the grid's column j
is held as key words, so m is K & column j and |m| its bit count; where
|m| = 1, the position of the lone bit is i.
"""

from __future__ import annotations

import weakref
from functools import cached_property

import numpy as np

from . import kernels
from .errors import FlipdistError, GraphTooLarge, InstanceTooLarge
from .triangulation import (
    Edge,
    Instance,
    Triangulation,
    interior_edge_count,
    require_same_instance,
    require_valid,
)

MAX_NODES = 10**6
MAX_DIRECT_POINTS = 12

# Cells of the (rows x candidates) grid of |m| a level is expanded by at a
# time, which bounds its temporaries at any level size: one uint64 word and
# one bit count per cell for each key word.
_CELL_BLOCK = 1 << 16


class FlipGraph:
    """The graph of all triangulations reachable from a seed by single flips.

    ``nodes`` lists their keys in discovery order, and ``adjacency[u]``
    lists ``(flipped edge, neighbour id)`` in edge order.  ``adjacency`` is
    built the first time it is read, from the search's arc arrays, which
    hold source id, flipped pair id and target id in (source, flipped)
    order.
    """

    def __init__(
        self,
        instance: Instance,
        nodes: list[int],
        arcs: tuple[np.ndarray, np.ndarray, np.ndarray],
    ):
        self.instance = instance
        self.nodes = nodes
        self._arcs = arcs

    @cached_property
    def adjacency(self) -> list[list[tuple[Edge, int]]]:
        source, flipped, target = self._arcs
        pairs = self.instance.admissible_pairs()
        arcs = list(zip(map(pairs.__getitem__, flipped.tolist()), target.tolist()))
        ends = np.cumsum(np.bincount(source, minlength=len(self.nodes))).tolist()
        return [arcs[lo:hi] for lo, hi in zip([0] + ends[:-1], ends)]


def _rows(keys: list[int], words: int) -> np.ndarray:
    """Keys as rows of ``words`` little-endian uint64 words."""
    raw = b"".join(k.to_bytes(8 * words, "little") for k in keys)
    return np.frombuffer(raw, dtype="<u8").reshape(len(keys), words)


def _ints(rows: np.ndarray) -> list[int]:
    """The keys that rows of little-endian uint64 words stand for."""
    words = rows.T.tolist()
    keys = words[0]
    for w in range(1, len(words)):
        keys = [k | v << 64 * w for k, v in zip(keys, words[w])]
    return keys


class _FlipTable:
    """An instance's crossing grid as the searches read it, built once per
    instance.

    The crossing grid of the admissible pairs is one
    :func:`kernels.segment_crossings` call: entry (i, j) is whether pairs i
    and j cross properly.  It is packed once into ``rows``, one key row per
    pair: word w of row i holds the bits of the pairs crossing pair i.
    ``cand`` lists the pairs that cross some admissible pair, the only ones
    a flip can add.  Crossing is symmetric, so ``cols``, their rows
    transposed, holds the grid's candidate columns word by word:
    ``cols[w, j]`` is word w of the key whose bit i is set iff pairs i and
    cand[j] cross.  ``bits`` holds each pair's own bit as a key row.
    """

    def __init__(self, inst: Instance):
        ends = np.array(inst.admissible_pairs(), dtype=np.int64).reshape(-1, 2)
        grid = kernels.segment_crossings(inst._packed, ends, ends)
        self.pairs = len(grid)
        self.words = -(-self.pairs // 64)
        ids = np.arange(self.pairs)
        packed = np.zeros((self.pairs, 8 * self.words), dtype=np.uint8)
        packed[:, : -(-self.pairs // 8)] = np.packbits(grid, axis=1, bitorder="little")
        self.rows = packed.view("<u8")
        self.cand = np.flatnonzero(self.rows.any(axis=1))
        self.cols = self.rows[self.cand].T.copy()
        self.bits = np.zeros((self.pairs, self.words), dtype=np.uint64)
        self.bits[ids, ids // 64] = np.uint64(1) << (ids % 64).astype(np.uint64)
        self.cand_bits = self.bits[self.cand]
        # Rows of a level expanded at a time.
        self.step = max(1, _CELL_BLOCK // max(1, len(self.cand)))

    def expand(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every flip of every row of ``keys``, in (row, flipped edge) order:
        the rows' positions, the flipped pairs' ids and the neighbours'
        keys."""
        found = []
        for lo in range(0, len(keys), self.step):
            block = keys[lo:lo + self.step]
            # |m| for each row and candidate, one pass per key word.  It is at
            # most a triangulation's edge count, far below 2^16.
            crossed = np.zeros((len(block), len(self.cand)), dtype=np.uint16)
            for w in range(self.words):
                crossed += np.bitwise_count(block[:, w, None] & self.cols[w])
            row, j = (crossed == 1).nonzero()
            # Where |m| = 1, i is 64 w plus the bit count of m_w - 1 in the
            # one word w where m is nonzero; in the others that count is 64.
            flipped = np.zeros(len(row), dtype=np.int64)
            for w in range(self.words):
                m_w = block[:, w][row] & self.cols[w][j]
                below = np.bitwise_count(m_w - np.uint64(1)).astype(np.int64)
                flipped += np.where(below < 64, below + 64 * w, 0)
            found.append((row + lo, j, flipped))
        row, j, flipped = (
            found[0] if len(found) == 1 else map(np.concatenate, zip(*found))
        )
        order = np.argsort(row * self.pairs + flipped, kind="stable")
        row, j, flipped = row[order], j[order], flipped[order]
        # np.take gathers whole rows; indexing a 2-D array by an index array
        # took about ten times as long at two words.
        return row, flipped, (
            np.take(keys, row, axis=0)
            ^ np.take(self.bits, flipped, axis=0)
            ^ np.take(self.cand_bits, j, axis=0)
        )


# Each instance's table, a pure function of its points and border.  Keys are
# weak, so the memo keeps no instance alive.
_TABLES: "weakref.WeakKeyDictionary[Instance, _FlipTable]" = weakref.WeakKeyDictionary()


def _flip_table(inst: Instance) -> _FlipTable:
    table = _TABLES.get(inst)
    if table is None:
        table = _TABLES[inst] = _FlipTable(inst)
    return table


def _first_seen(rows: np.ndarray, known: int) -> np.ndarray:
    """For each row from position ``known`` on, the position of the first
    row equal to it.

    Rows are sorted on their word columns; the sort is stable, so the first
    of a run of equal rows is the earliest.
    """
    order = np.lexsort(rows.T)
    ranked = np.take(rows, order, axis=0)
    starts = np.empty(len(rows), dtype=bool)
    starts[0] = True
    np.logical_or.reduce(ranked[1:] != ranked[:-1], axis=1, out=starts[1:])
    first = np.empty(len(rows), dtype=np.int64)
    first[order] = order[starts][starts.cumsum() - 1]
    return first[known:]


def build_flip_graph(seed: Triangulation) -> FlipGraph:
    """BFS closure of the seed under all legal flips, a level at a time.

    A neighbour of a node at depth d is at depth d - 1, d or d + 1, so each
    level's neighbours are told apart from the two levels before them only.
    Node ids are assigned in discovery order: by level, then by the first
    arc in (node, flipped edge) order that reaches the node.  Raises
    InvariantViolation (:func:`require_valid`) when the seed is not a valid
    triangulation, since a search from a non-maximal set would run without
    complaint, and GraphTooLarge when the closure has more than MAX_NODES
    triangulations.
    """
    require_valid(seed, "seed")
    inst = seed.instance
    flips = _flip_table(inst)
    level = _rows([seed.key()], flips.words)
    prev = level[:0]
    levels, arcs = [level], []
    base, total = 0, 1  # the id of the level's first node; the nodes found
    while len(level):
        row, flipped, keys = flips.expand(level)
        known = len(prev) + len(level)
        first = _first_seen(np.concatenate([prev, level, keys]), known)
        new = first == np.arange(known, known + len(keys))
        count = int(np.count_nonzero(new))
        if total + count > MAX_NODES:
            raise GraphTooLarge(f"flip graph exceeds {MAX_NODES} nodes")
        # Node ids by position: prev and level hold consecutive ids, and the
        # first arcs reaching new nodes number them in arc order.
        held = np.arange(base - len(prev), base + len(level))
        ids = np.concatenate([held, np.cumsum(new) + (total - 1)])
        arcs.append((row + base, flipped, ids[first]))
        prev, level = level, keys[new]
        levels.append(level)
        base, total = total, total + count
    return FlipGraph(
        inst,
        _ints(np.concatenate(levels)),
        tuple(np.concatenate(part) for part in zip(*arcs)),
    )


def _closure_gap(seed: Triangulation, keys: list[int]) -> str | None:
    """Why ``keys`` are not the sorted flip closure R of ``seed``, or None
    when they are, decided from one expansion of the whole list instead of a
    search.

    With S the listed keys: R is in S when the seed is listed and every
    flip of every listed key is listed, by induction on depth.  S is in R
    when every listed position is marked by marking the seed, then the
    flips of marked keys only, since a flip of a triangulation is one.
    Marks go to the first copy of a key (:func:`_first_seen`), so a repeated
    key stays unmarked.  Last, the keys must increase.  The witness names
    the first check that fails, at its first key or flip, in (key, flipped
    edge) order.  Raises InvariantViolation (:func:`require_valid`) when the
    seed is not a valid triangulation, which the argument needs.
    """
    require_valid(seed, "seed")
    inst, n = seed.instance, len(keys)
    if seed.key() not in keys:
        return f"the greedy seed is not among the {n} listed triangulations"
    flips = _flip_table(inst)
    listed = _rows(keys, flips.words)
    row, flipped, neighbours = flips.expand(listed)
    target = _first_seen(np.concatenate([listed, neighbours]), n)
    lacking = np.flatnonzero(target >= n)
    if len(lacking):
        k = int(lacking[0])
        source, pairs = int(row[k]), inst.admissible_pairs()
        added = (_ints(neighbours[k:k + 1])[0] & ~keys[source]).bit_length() - 1
        (a, b), (c, d) = pairs[flipped[k]], pairs[added]
        return (
            f"listed triangulation {source} of {n} flips {a}-{b} to {c}-{d}, "
            "which is not listed"
        )
    marked = np.zeros(n, dtype=bool)
    marked[keys.index(seed.key())] = True
    count = 0
    while (grown := int(np.count_nonzero(marked))) > count:
        count = grown
        marked[target[marked[row]]] = True
    if count < n:
        return (
            f"listed triangulation {int(np.argmin(marked))} of {n} is not "
            "reachable from the greedy seed"
        )
    # The rows are distinct now; each must exceed its predecessor in the
    # highest word where the two differ.
    before, after = listed[:-1], listed[1:]
    rising = np.zeros(n - 1, dtype=bool)
    for w in range(flips.words):
        same = before[:, w] == after[:, w]
        rising = np.where(same, rising, before[:, w] < after[:, w])
    if not rising.all():
        first = int(np.argmin(rising)) + 1
        return f"listed triangulation {first} of {n} is out of key order"
    return None


def exact_flip_distance(t1: Triangulation, t2: Triangulation) -> int:
    """Shortest flip-path length between t1 and t2.

    A bidirectional breadth-first search: one side walks from t1, the
    other from t2, and each round expands the side with the smaller
    frontier by one full level, t1's side on a tie.  The sides' discovered
    sets stay disjoint until they meet, and each holds every node within
    its depth of its seed; so if they have not met at depths la and lb,
    the distance exceeds la + lb, any node the next round reaches on the
    other side is at depth lb there, and the first meeting, la + 1 + lb,
    is optimal.  So each side keeps its last two levels only, for its own
    dedupe (as in :func:`build_flip_graph`) and for the other side's
    meeting test.  Raises InvariantViolation (:func:`require_valid`) when
    t1 or t2 is not a valid triangulation, GraphTooLarge when the two sides
    together discover more than MAX_NODES triangulations, counted in arc
    order up to the first meeting, and FlipdistError when a side runs out of
    nodes before they meet, which the connected flip graph of valid
    triangulations never lets happen.
    """
    require_same_instance(t1, t2)
    require_valid(t1, "t1")
    require_valid(t2, "t2")
    start, goal = t1.key(), t2.key()
    if start == goal:
        return 0
    flips = _flip_table(t1.instance)
    seeds = _rows([start, goal], flips.words)
    # Each side's previous level, current level and depth.
    sides = [[seeds[:0], seeds[:1], 0], [seeds[:0], seeds[1:], 0]]
    total = 2
    while len(sides[0][1]) and len(sides[1][1]):
        side = 0 if len(sides[0][1]) <= len(sides[1][1]) else 1
        prev, level, depth = sides[side]
        other, other_depth = sides[1 - side][1], sides[1 - side][2]
        _, _, keys = flips.expand(level)
        mine = len(prev) + len(level)
        known = mine + len(other)
        first = _first_seen(np.concatenate([prev, level, other, keys]), known)
        new = first == np.arange(known, known + len(keys))
        meets = ((first >= mine) & (first < known)).nonzero()[0]
        stop = meets[0] if len(meets) else len(keys)
        if total + np.count_nonzero(new[:stop]) > MAX_NODES:
            raise GraphTooLarge(f"flip graph exceeds {MAX_NODES} nodes")
        if len(meets):
            return depth + 1 + other_depth
        total += int(np.count_nonzero(new))
        sides[side] = [level, keys[new], depth + 1]
    raise FlipdistError(
        "target triangulation unreachable by flips (flip graph disconnected)"
    )


def enumerate_triangulations_direct(inst: Instance) -> list[int]:
    """The keys of all triangulations of the instance, sorted, by exhaustive
    search.

    Enumerates every pairwise non-crossing set of admissible interior edges
    with exactly the interior edge count the Euler formula dictates; together
    with the border edges, each such set is maximal and hence a
    triangulation.  Shares only the crossing grid with the flip searches.
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
    # Bit j of crossers[i]: pairs i and j cross.
    crossers = _ints(_flip_table(inst).rows)
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
