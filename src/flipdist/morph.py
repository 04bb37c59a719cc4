"""Constructive flip morph: strictly decrease crossings until the target."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import kernels
from .errors import LemmaViolation
from .geometry import Point
from .triangulation import (
    ApexMap,
    Edge,
    MutableTriangulation,
    Sides,
    Triangulation,
    _read_quadrilateral,
    _rewrite_apexes,
    apex_map,
    interior_edge_count,
    require_same_instance,
    require_valid,
)


def intersection_upper_bound(n: int, n_b: int, h: int) -> int:
    """Worst-case crossing total: every interior edge crossing every other."""
    return interior_edge_count(n, n_b, h) ** 2


class FlipStep(NamedTuple):
    removed: Edge
    added: Edge
    before: int
    after: int


@dataclass(frozen=True)
class FlipSequence:
    """A witness that the flip distance is at most the crossing total."""

    start: Triangulation
    target: Triangulation
    steps: tuple[FlipStep, ...]

    def replay(self) -> Triangulation:
        """The triangulation the steps reach; each flip is checked legal."""
        state = MutableTriangulation(self.start)
        for step in self.steps:
            state.flip(step.removed)
        return state.freeze()


def _crosser_masks(
    t1: Triangulation, t2: Triangulation
) -> tuple[dict[Edge, int], list[int]]:
    """The crosser masks of t1's edges against t2, and t2's vertex masks.

    Bit j of a mask stands for ``t2.interior_edges()[j]``.  The first map
    holds, for each edge of t1 that t2 crosses, the mask of the t2 edges
    properly crossing it (one crossing grid); every other edge's mask is 0.
    ``at[v]`` is the mask of the t2 interior edges incident to vertex v.
    """
    grid = kernels.crossing_matrix(t1.interior_array(), t2.interior_array())
    rows = np.packbits(grid, axis=1, bitorder="little")
    crossers = {
        e: mask
        for e, row in zip(t1.interior_edges(), rows)
        if (mask := int.from_bytes(row.tobytes(), "little"))
    }
    at = [0] * t2.instance.n
    for j, (u, v) in enumerate(t2.interior_edges()):
        at[u] |= 1 << j
        at[v] |= 1 << j
    return crossers, at


def _reducing_flip(
    pts: Sequence[Point],
    apexes: ApexMap,
    maximal: list[Edge],
    best: int,
    crossers: dict[Edge, int],
    at: list[int],
) -> tuple[int, int, int, Sides, int]:
    """The first maximal edge, in canonical order, whose flip lowers its count.

    ``maximal`` lists, sorted, the crossed edges whose count (the bit count
    of their mask in ``crossers``) is the maximum ``best``.  A crossed edge
    is interior, so it has a quadrilateral abcd in the state's apex map.
    Returns the edge's index in ``maximal``, b, d and the canonical sides
    of its quadrilateral (see :func:`_read_quadrilateral`) and the new
    diagonal's crosser mask.  Every maximal edge must sit in a strictly
    convex quadrilateral, and at least one must qualify; either failure
    raises LemmaViolation.

    The new diagonal's mask comes from the masks of the quadrilateral's
    sides, with no geometry (:func:`_diagonal_mask`).  For the flip of ac
    in the strictly convex ccw quadrilateral abcd, with X(s) the crosser
    mask of segment s (0 for a border side):

        X(bd) = (X(ab) | X(da) | at[a]) & (X(bc) | X(cd) | at[c])

    Why it holds when t1 and t2 are valid triangulations.  The open
    triangles abc and acd, the open diagonal ac and the open sides contain
    no vertex, and no vertex lies inside an edge.  So a t2 edge f that
    properly crosses bd passes through the open quadrilateral with both
    ends outside it, and meets its boundary in exactly two points.  Each is
    a proper crossing of a side or an end of f at a or c; it is not b or d,
    where f would share an end with bd.  bd splits the quadrilateral into
    abd and bcd, so f crosses bd iff one point lies on the chain d-a-b and
    the other on the chain b-c-d: f is in both terms.  Conversely, an edge
    in both terms meets each chain at a point other than b and d.  The two
    points lie strictly on opposite sides of bd in the convex
    quadrilateral, so the edge between them properly crosses bd; ac, which
    is ``at[a] & at[c]`` when t2 has it, is one such edge.  t2's border
    edges cross no admissible pair, so its interior edges are all the masks
    need.
    """
    for i, e in enumerate(maximal):
        b, d, strictly_convex, sides = _read_quadrilateral(pts, apexes, e)
        if not strictly_convex:
            raise LemmaViolation(
                f"maximal edge {e} has no strictly convex quadrilateral"
            )
        mask = _diagonal_mask(e, sides, crossers, at)
        if mask.bit_count() < best:
            return i, b, d, sides, mask
    raise LemmaViolation(f"no maximal edge of {maximal} reduces crossings")


def _diagonal_mask(
    e: Edge, sides: Sides, crossers: dict[Edge, int], at: list[int]
) -> int:
    """The crosser mask of the other diagonal bd of the quadrilateral abcd
    around e = (a, c), from the masks of its canonical sides ab, bc, cd, da
    by the identity of :func:`_reducing_flip`."""
    a, c = e
    ab, bc, cd, da = sides
    get = crossers.get
    return (get(ab, 0) | get(da, 0) | at[a]) & (get(bc, 0) | get(cd, 0) | at[c])


def morph(t1: Triangulation, t2: Triangulation) -> FlipSequence:
    """A flip sequence from t1 to t2 of length at most their crossing total.

    Raises InstanceMismatch for different instances and, from
    :func:`require_valid`, InvariantViolation when either input is not a
    valid triangulation.  Each step flips the first maximal edge, in
    canonical order, whose flip lowers its count (:func:`_reducing_flip`),
    so the per-step totals strictly decrease to zero.

    The pair is counted once, as one crossing grid from which each edge of
    t1 gets the mask of the t2 edges crossing it (:func:`_crosser_masks`).
    The crossers of an edge depend only on the edge and t2, so a flip
    changes the masks only by dropping the removed diagonal's and adding
    the new diagonal's, which :func:`_reducing_flip` derives from the
    masks of its quadrilateral's sides: no step calls a kernel.

    A step costs sorting the k maximal edges plus amortised O(1) upkeep of
    buckets holding the crossed edges by count (Dial, CACM 1969): a flip
    swaps an edge of the maximal count for one of strictly smaller count
    and changes no other count, so the maximum never rises, and each bucket
    is sorted once, when the falling pointer reaches it.  Each candidate's
    quadrilateral is read once, on plain ints (:func:`_read_quadrilateral`:
    three ``orient`` calls and its four canonical sides), and the flipped
    one's sides serve both the mask identity and the in-place rewrite of
    its two faces (:func:`_rewrite_apexes`): no side key is computed twice.
    Every state has as many edges as t2, so it equals t2 when none of its
    edges is missing from t2: a number that two lookups per flip keep
    current.
    """
    require_same_instance(t1, t2)
    require_valid(t1, "t1")
    require_valid(t2, "t2")
    crossers, at = _crosser_masks(t1, t2)
    # Counts run up to the number of t2's interior edges; the pointer starts
    # above them, at an empty bucket.
    buckets: list[list[Edge]] = [[] for _ in range(len(t2.interior_edges()) + 2)]
    for e, mask in crossers.items():
        buckets[mask.bit_count()].append(e)
    total = sum(c * len(bucket) for c, bucket in enumerate(buckets))
    best = len(buckets) - 1
    pts = t1.instance.points
    apexes = dict(apex_map(t1))  # the state, flipped in place
    target = t2.edges
    missing = len(t1.edges - target)
    steps: list[FlipStep] = []
    while missing:
        while best and not buckets[best]:
            best -= 1
            buckets[best].sort()
        maximal = buckets[best]
        i, b, d, sides, mask = _reducing_flip(pts, apexes, maximal, best, crossers, at)
        removed = maximal.pop(i)
        new_count = mask.bit_count()
        after = total - best + new_count
        del crossers[removed]
        a, c = removed
        added = _rewrite_apexes(apexes, a, b, c, d, sides)
        if mask:
            buckets[new_count].append(added)
            crossers[added] = mask
        missing += (added not in target) - (removed not in target)
        steps.append(FlipStep(removed, added, total, after))
        total = after
    return FlipSequence(start=t1, target=t2, steps=tuple(steps))
