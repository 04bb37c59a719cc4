"""Seeded random instances and triangulation priorities.

A spec's draws come from one ``random.Random(seed)``, and each draw is
accepted or rejected by exact integer tests, so the same spec always gives
the same bytes.  Star borders and interior points reject a draw that makes
three points collinear: :func:`_direction` reduces the direction from a
point to each other point by its gcd and sign, so that three points are
collinear exactly when two directions from one of them repeat, O(n) per
drawn point.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

from . import geometry
from .errors import InfeasibleSpec, InvariantViolation
from .triangulation import Instance, angular_cmp

SHAPES = ("convex_gon", "random_simple_border", "with_holes")

_COORD_RANGE = 10**6
_MAX_ATTEMPTS = 200


@dataclass(frozen=True)
class GenSpec:
    """Deterministic recipe for one instance: same spec, same bytes."""

    seed: int
    n_points: int
    shape: str = "convex_gon"
    holes: int = 0
    interior_points: int = 0

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise InfeasibleSpec(f"unknown shape '{self.shape}'")
        if self.shape == "with_holes" and self.holes < 1:
            raise InfeasibleSpec("with_holes requires holes >= 1")
        if self.shape != "with_holes" and self.holes:
            raise InfeasibleSpec(f"shape '{self.shape}' does not take holes")
        if self.interior_points < 0:
            raise InfeasibleSpec("interior_points must be >= 0")


def _direction(p: geometry.Point, q: geometry.Point) -> tuple[int, int]:
    """The direction from p to q reduced by its gcd, with its sign fixed so
    that opposite directions agree: two points q, r give the same reduced
    direction from p iff p, q and r are collinear.  p and q must differ."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    g = math.gcd(dx, dy)
    if dx < 0 or dx == 0 and dy < 0:
        g = -g
    return dx // g, dy // g


def _collinear_with_two(p: geometry.Point, others: list[geometry.Point]) -> bool:
    """Whether p is collinear with two of ``others``, distinct points that
    all differ from p: exact int work, one reduced direction per point."""
    seen = {_direction(p, q) for q in others}
    return len(seen) < len(others)


def _no_three_collinear(points: list[geometry.Point]) -> bool:
    """Whether no three of ``points``, which are distinct, are collinear: a
    collinear triple i < j < k repeats a direction from i."""
    return not any(
        _collinear_with_two(p, points[i + 1:]) for i, p in enumerate(points)
    )


def _convex_ring(rng: random.Random, n: int) -> list[geometry.Point] | None:
    """n integer points in strictly convex position, ccw."""
    radius = _COORD_RANGE
    offsets = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(n))
    points = [
        (round(radius * math.cos(a)), round(radius * math.sin(a)))
        for a in offsets
    ]
    if len(set(points)) != n:
        return None
    for i in range(n):
        if (
            geometry.orient(
                points[i], points[(i + 1) % n], points[(i + 2) % n]
            )
            != 1
        ):
            return None
    return points


def _star_order(points: list[geometry.Point]) -> list[int] | None:
    """Indices ordered by exact angle around the centroid (star polygon)."""
    n = len(points)
    cx = sum(p[0] for p in points)
    cy = sum(p[1] for p in points)
    # n times each point minus the sum: the centroid moves to the origin.
    scaled = [(p[0] * n - cx, p[1] * n - cy) for p in points]
    cmp = angular_cmp((0, 0), scaled)
    order = sorted(range(n), key=functools.cmp_to_key(cmp))
    for a, b in zip(order, order[1:]):
        if cmp(a, b) == 0:
            return None  # equal angles: ordering ambiguous, retry
    return order


def _sample_interior(
    rng: random.Random,
    count: int,
    points: list[geometry.Point],
    border: list[list[int]],
) -> list[geometry.Point] | None:
    coords = [[points[v] for v in poly] for poly in border]
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    added: list[geometry.Point] = []
    for _ in range(count):
        for _ in range(_MAX_ATTEMPTS):
            p = (
                rng.randint(min(xs), max(xs)),
                rng.randint(min(ys), max(ys)),
            )
            universe = points + added
            if p in universe:
                continue
            if geometry.point_in_region(p, coords) != geometry.INSIDE:
                continue
            if _collinear_with_two(p, universe):
                continue
            added.append(p)
            break
        else:
            return None
    return added


def _gen_convex(spec: GenSpec, rng: random.Random) -> tuple[list, list] | None:
    n_border = spec.n_points - spec.interior_points
    ring = _convex_ring(rng, n_border)
    if ring is None:
        return None
    return ring, [list(range(n_border))]


def _gen_star(spec: GenSpec, rng: random.Random) -> tuple[list, list] | None:
    n_border = spec.n_points - spec.interior_points
    points: list[geometry.Point] = []
    while len(points) < n_border:
        p = (
            rng.randint(-_COORD_RANGE, _COORD_RANGE),
            rng.randint(-_COORD_RANGE, _COORD_RANGE),
        )
        if p not in points:
            points.append(p)
    if not _no_three_collinear(points):
        return None
    order = _star_order(points)
    if order is None:
        return None
    return points, [order]


def _gen_with_holes(spec: GenSpec, rng: random.Random) -> tuple[list, list] | None:
    n_outer = spec.n_points - 3 * spec.holes - spec.interior_points
    outer = _convex_ring(rng, n_outer)
    if outer is None:
        return None
    points = list(outer)
    border: list[list[int]] = [list(range(n_outer))]
    # Hole triangles on a small scale, placed at jittered spots near the
    # middle so they stay well inside the outer ring.
    size = _COORD_RANGE // 20
    for k in range(spec.holes):
        for _ in range(_MAX_ATTEMPTS):
            cx = rng.randint(-_COORD_RANGE // 3, _COORD_RANGE // 3)
            cy = rng.randint(-_COORD_RANGE // 3, _COORD_RANGE // 3)
            tri = [
                (cx + rng.randint(-size, size), cy + rng.randint(-size, size))
                for _ in range(3)
            ]
            if geometry.orient(*tri) == 0 or len(set(tri)) != 3:
                continue
            base = len(points)
            candidate_points = points + tri
            candidate_border = border + [[base, base + 1, base + 2]]
            try:
                Instance(candidate_points, candidate_border)
            except InvariantViolation:
                continue
            if not _no_three_collinear(candidate_points):
                continue
            points, border = candidate_points, candidate_border
            break
        else:
            return None
    return points, border


def generate_instance(spec: GenSpec) -> Instance:
    """A valid instance drawn deterministically from the spec's seed."""
    minimum = 3 + (3 * spec.holes if spec.shape == "with_holes" else 0)
    if spec.n_points - spec.interior_points < minimum:
        raise InfeasibleSpec(
            f"{spec.shape} with {spec.holes} holes needs at least "
            f"{minimum} border points"
        )
    rng = random.Random(spec.seed)
    # Each builder draws the border points and polygons, or None to retry.
    builders = {
        "convex_gon": _gen_convex,
        "random_simple_border": _gen_star,
        "with_holes": _gen_with_holes,
    }
    build = builders[spec.shape]
    for _ in range(_MAX_ATTEMPTS):
        built = build(spec, rng)
        if built is None:
            continue
        points, border = built
        interior = _sample_interior(rng, spec.interior_points, points, border)
        if interior is None:
            continue
        try:
            return Instance(points + interior, border)
        except InvariantViolation:
            continue
    raise InfeasibleSpec(f"could not realize {spec} after {_MAX_ATTEMPTS} attempts")


def random_priority(inst: Instance, seed: int):
    """A seeded random insertion order for :func:`greedy_triangulate`."""
    rng = random.Random(seed)
    pairs = list(inst.admissible_pairs())
    ranks = {e: rng.random() for e in pairs}
    return lambda e: ranks.get(e, 2.0)
