"""The batch rotation sort against the exact comparator.

A triangulation's faces are traced once, by its face certificate.  Under
the numpy kernel and the int64 gate the trace sorts all half-edges at once
by float angle and checks the sort exactly (``_batch_trace``); when that
check fails, beyond the gate, or under ``FLIPDIST_KERNEL=python``, it sorts
each vertex's neighbours with the exact comparator (``_faces_exact``).
Both must find the same triangles, on valid triangulations and on
corrupted edge sets, and ``validate`` must keep every verdict and message.
Counters on both paths show which one ran, so no test here can pass on the
exact loop alone.
"""

import collections
import functools
import random

import pytest

from flipdist import geometry, kernels, triangulation
from flipdist.generate import GenSpec, generate_instance, random_priority
from flipdist.triangulation import (
    Instance,
    Triangulation,
    _edge_ends,
    _face_certificate,
    _face_tuple,
    _violations as _full_checks,
    faces,
    greedy_triangulate,
    validate,
)

from helpers import count_traces
from test_point_location import LIMIT, _instances
from test_triangulation import CERTIFICATE_MUTATIONS, _mutate

# Bound before any test patches them, so calling these counts nothing.
EXACT = triangulation._faces_exact
BATCH = triangulation._batch_trace


def _exact(t):
    """The exact loop's triangles in :func:`faces`' order, each checked to
    have positive area."""
    found, _ = EXACT(t)
    pts = t.instance.points
    assert all(geometry.orient(*(pts[v] for v in row)) > 0 for row in found.tolist())
    return _face_tuple(found)


def _batch(t):
    """The batch trace's triangles in :func:`faces`' order, or None when it
    cannot prove its sort exact."""
    traced = BATCH(t.instance, _edge_ends(sorted(t.edges)))
    if traced is None:
        return None
    o, _, rows, _ = traced
    return _face_tuple(o[rows])


def _tie_star():
    """Around vertex 4 at the origin, neighbours 2 and 5 lie about 2^-61 rad
    apart, below the resolution of a float angle near pi/4.  Their float
    angles tie, the tie goes to the smaller id, 2, and the exact order puts
    5 first: the exact check fails and the fallback must run."""
    inst = Instance(
        [(-LIMIT, -LIMIT), (LIMIT, -LIMIT), (LIMIT, LIMIT - 1), (-LIMIT, LIMIT),
         (0, 0), (LIMIT - 1, LIMIT - 2)],
        [[0, 1, 2, 3]],
    )
    interior = {(0, 4), (1, 4), (2, 4), (3, 4), (4, 5), (1, 5), (2, 5)}
    return Triangulation(inst, inst.border_edges | interior)


@functools.cache
def _trace_instances():
    cases = dict(_instances())
    for n in (10, 16, 24, 40, 64):
        cases[f"convex_{n}"] = generate_instance(
            GenSpec(seed=n, n_points=n, interior_points=n // 4)
        )
        cases[f"star_{n}"] = generate_instance(
            GenSpec(seed=n, n_points=n, shape="random_simple_border",
                    interior_points=n // 8)
        )
        cases[f"holed_{n}"] = generate_instance(
            GenSpec(seed=n, n_points=n, shape="with_holes", holes=1 + n // 24,
                    interior_points=n // 8)
        )
    # A square with one triangular hole, whose interior is a positive
    # 3-cycle of every triangulation.
    cases["triangular_hole"] = Instance(
        [(0, 0), (10, 0), (10, 10), (0, 10), (4, 4), (6, 4), (5, 6)],
        [[0, 1, 2, 3], [4, 5, 6]],
    )
    # A triangular outer polygon, whose outer face is a clockwise 3-cycle of
    # every triangulation.
    cases["triangle"] = Instance(
        [(0, 0), (12, 0), (0, 12), (3, 3), (5, 2), (2, 6)], [[0, 1, 2]]
    )
    return cases


@pytest.mark.parametrize("name", sorted(_trace_instances()))
def test_batch_matches_exact_loop(name, monkeypatch):
    """Same triangles, and the same ``validate`` verdict as the full checks,
    on seeded triangulations and on every kind of corruption of them."""
    inst = _trace_instances()[name]
    gated = inst._packed.array is not None
    counts = count_traces(monkeypatch)
    rng = random.Random(name)
    compared = 0
    for _ in range(3):
        t = greedy_triangulate(inst, priority=random_priority(inst, rng.randrange(10**6)))
        before = counts.copy()
        assert faces(t) == _exact(t)
        # A valid triangulation within the gate never falls back, and is
        # traced once, by validate.
        ran = "batch" if gated else "exact"
        assert counts - before == collections.Counter({ran: 1})
        for kind in CERTIFICATE_MUTATIONS:
            u = Triangulation(inst, _mutate(inst, t.edges, kind, rng.randrange(10**6)))
            if gated:
                batch = _batch(u)
                assert batch in (None, _exact(u))
                compared += batch is not None
            full = _full_checks(u)
            assert (_face_certificate(u) is not None) == (full == [])
            assert validate(u) == full
    assert compared if gated else counts["batch"] + counts["fallback"] == 0


def test_float_angle_tie_falls_back(monkeypatch):
    t = _tie_star()
    assert _batch(t) is None
    counts = count_traces(monkeypatch)
    assert faces(t) == _exact(t)
    assert counts == {"fallback": 1, "exact": 1}
    assert validate(Triangulation(t.instance, t.edges)) == []


def test_beyond_the_gate_takes_the_exact_loop(monkeypatch):
    inst = _trace_instances()["coords_2^31"]
    assert inst._packed.array is None
    counts = count_traces(monkeypatch)
    t = greedy_triangulate(inst)
    assert faces(t) == _exact(t)
    assert counts == {"exact": 1}


def test_python_kernel_takes_the_exact_loop(monkeypatch):
    t = greedy_triangulate(_trace_instances()["convex_64"])
    want = faces(t)
    counts = count_traces(monkeypatch)
    monkeypatch.setenv(kernels.KERNEL_ENV, "python")
    assert faces(Triangulation(t.instance, t.edges)) == want
    assert counts == {"exact": 1}


def test_exact_loop_keeps_no_degenerate_cycle():
    """Three collinear vertices joined pairwise, apart from the border: each
    has two neighbours, so the trace walks the path 5-6-7 as two 3-cycles of
    zero area, neither of them a triangle."""
    inst = _trace_instances()["collinear"]
    t = Triangulation(inst, inst.border_edges | {(5, 6), (6, 7), (5, 7)})
    assert _exact(t) == ()
