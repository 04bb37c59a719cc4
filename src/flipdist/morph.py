"""Constructive flip morph: strictly decrease crossings until the target."""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .crossings import count_pair
from .errors import LemmaViolation
from .triangulation import (
    Edge,
    MutableTriangulation,
    Quadrilateral,
    Triangulation,
    interior_edge_count,
)


def intersection_upper_bound(n: int, n_b: int, h: int) -> int:
    """Worst-case crossing total: every interior edge crossing every other."""
    return interior_edge_count(n, n_b, h) ** 2


@dataclass(frozen=True)
class FlipStep:
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


def _crossing_edges(t: Triangulation, target: Triangulation) -> dict[Edge, int]:
    """#(e, target) for each edge e of t that target crosses."""
    return {e: c for e, c in count_pair(t, target).per_edge.items() if c}


def _reducing_flip(
    state: MutableTriangulation, counts: dict[Edge, int], target: Triangulation
) -> tuple[Quadrilateral, int]:
    """The first maximal edge, in canonical order, whose flip lowers its count.

    Returns the edge's quadrilateral and the replacement diagonal's count.
    Every maximal edge must sit in a strictly convex quadrilateral, and at
    least one must qualify; either failure raises LemmaViolation.
    """
    best = max(counts.values(), default=0)
    maximal = sorted(e for e, c in counts.items() if c == best)
    for e in maximal:
        quad = state.quadrilateral(e)
        if quad is None or not quad.strictly_convex:
            raise LemmaViolation(
                f"maximal edge {e} has no strictly convex quadrilateral"
            )
        # The new diagonal lies inside the region, so no border edge can
        # properly cross it: count it against target's interior edges only.
        segment = kernels.segments_array([state.instance.segment(quad.opposite)])
        new_count = int(kernels.crossing_counts(segment, target.interior_array())[0])
        if new_count < best:
            return quad, new_count
    raise LemmaViolation(f"no maximal edge of {maximal} reduces crossings")


def morph(t1: Triangulation, t2: Triangulation) -> FlipSequence:
    """A flip sequence from t1 to t2 of length at most their crossing total.

    Each step flips the first maximal edge, in canonical order, whose flip
    lowers its count (:func:`_reducing_flip`), so the per-step totals
    strictly decrease to zero.  The pair is counted once (``count_pair``
    raises InstanceMismatch for different instances); #(e, t2) depends only
    on e and t2, so a flip changes the per-edge counts only by dropping the
    removed edge and adding the new diagonal.
    """
    counts = _crossing_edges(t1, t2)
    total = sum(counts.values())
    state = MutableTriangulation(t1)
    steps: list[FlipStep] = []
    while state.edges != t2.edges:
        quad, new_count = _reducing_flip(state, counts, t2)
        after = total - counts.pop(quad.diagonal) + new_count
        if new_count:
            counts[quad.opposite] = new_count
        state.flip(quad.diagonal)
        steps.append(
            FlipStep(
                removed=quad.diagonal, added=quad.opposite, before=total, after=after
            )
        )
        total = after
    return FlipSequence(start=t1, target=t2, steps=tuple(steps))
