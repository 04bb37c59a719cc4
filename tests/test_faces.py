"""The batch face trace against the exact loop.

From ``_FACE_BATCH_EDGES`` edges, ``faces`` sorts all half-edges at once by
float angle, checks the sort exactly, and falls back to the exact angular
sort when the check fails, when a coordinate is beyond the int64 gate, or
under ``FLIPDIST_KERNEL=python``.  Both paths must give the same triangles
in the same order, or the same NotATriangulation, on valid triangulations
and on corrupted edge sets, and ``validate`` must keep every verdict and
message.  Counters on both paths show which one ran, so no test here can
pass on the exact loop alone.
"""

import collections
import functools
import random

import pytest

from flipdist import kernels, triangulation
from flipdist.errors import NotATriangulation
from flipdist.generate import GenSpec, generate_instance, random_priority
from flipdist.triangulation import (
    Instance,
    Triangulation,
    _face_certificate,
    _violations as _full_checks,
    faces,
    greedy_triangulate,
    validate,
)

from helpers import count_traces
from test_point_location import LIMIT, _instances
from test_triangulation import CERTIFICATE_MUTATIONS, _mutate

EXACT = triangulation._faces_exact


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
    return cases


def _count_paths(monkeypatch, batch_from=0):
    """:func:`helpers.count_traces`, with the batch tried from ``batch_from``
    edges."""
    monkeypatch.setattr(triangulation, "_FACE_BATCH_EDGES", batch_from)
    return count_traces(monkeypatch)


def _outcome(trace, t):
    try:
        return trace(t)
    except NotATriangulation as exc:
        return f"NotATriangulation: {exc}"


@pytest.mark.parametrize("name", sorted(_trace_instances()))
def test_batch_matches_exact_loop(name, monkeypatch):
    """Same triangles in the same order, or the same error, and the same
    ``validate`` verdict as the full checks, on seeded triangulations and
    on every kind of corruption of them."""
    inst = _trace_instances()[name]
    gated = inst._packed.array is not None
    counts = _count_paths(monkeypatch)
    rng = random.Random(name)
    for _ in range(3):
        t = greedy_triangulate(inst, priority=random_priority(inst, rng.randrange(10**6)))
        before = counts.copy()
        assert faces(t) == EXACT(t)
        # A valid triangulation within the gate never falls back.
        ran = "batch" if gated else "exact"
        assert counts - before == collections.Counter({ran: 1})
        for kind in CERTIFICATE_MUTATIONS:
            u = Triangulation(inst, _mutate(inst, t.edges, kind, rng.randrange(10**6)))
            assert _outcome(faces, u) == _outcome(EXACT, u)
            full = _full_checks(u)
            assert (_face_certificate(u) is not None) == (full == [])
            assert validate(u) == full
    assert gated or counts["batch"] + counts["fallback"] == 0


def test_float_angle_tie_falls_back(monkeypatch):
    t = _tie_star()
    counts = _count_paths(monkeypatch)
    assert faces(t) == EXACT(t)
    assert counts == {"fallback": 1, "exact": 1}
    assert validate(Triangulation(t.instance, t.edges)) == []


def test_beyond_the_gate_takes_the_exact_loop(monkeypatch):
    inst = _trace_instances()["coords_2^31"]
    assert inst._packed.array is None
    counts = _count_paths(monkeypatch)
    t = greedy_triangulate(inst)
    assert faces(t) == EXACT(t)
    assert counts == {"exact": 1}


def test_python_kernel_takes_the_exact_loop(monkeypatch):
    t = greedy_triangulate(_trace_instances()["convex_64"])
    want = faces(t)
    counts = _count_paths(monkeypatch)
    monkeypatch.setenv(kernels.KERNEL_ENV, "python")
    assert faces(t) == want
    assert counts == {"exact": 1}


def test_size_constant_selects_the_path(monkeypatch):
    small = greedy_triangulate(_trace_instances()["triangular_hole"])
    large = greedy_triangulate(_trace_instances()["convex_64"])
    batch_from = triangulation._FACE_BATCH_EDGES
    assert len(small.edges) < batch_from <= len(large.edges)
    counts = _count_paths(monkeypatch, batch_from)
    faces(small)
    assert counts == {"exact": 1}
    faces(large)
    assert counts == {"exact": 1, "batch": 1}
