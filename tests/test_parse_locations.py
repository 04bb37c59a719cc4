"""Parser errors against a per-element reference.

``formats`` checks each list of points, border ids and edges in one pass
per condition and walks the list again only when a check fails, to name
the first offending entry.  The reference below checks every entry in
order, as the parser did before the one-pass checks.  On corrupted
documents both must raise the same ParseError, text and location, and on
documents the reference accepts the parser must raise no ParseError from
those lists.
"""

import copy
import json
import random

import pytest

from flipdist import formats
from flipdist.errors import InvariantViolation, ParseError
from flipdist.generate import GenSpec, generate_instance
from flipdist.geometry import COORD_LIMIT
from flipdist.triangulation import Instance, greedy_triangulate


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_int_pair(entry):
    return isinstance(entry, list) and len(entry) == 2 and all(map(_is_int, entry))


def _reference_error(obj):
    """The first error text the entry-by-entry checks give for the points,
    border and edges of a triangulation document, or None.  An instance
    whose lists pass is built before its edges are read, and an invalid
    one is refused there."""
    where = "triangulation.instance"
    for i, entry in enumerate(obj["instance"]["points"]):
        if not _is_int_pair(entry):
            return f"{where}.points[{i}]: point must be a pair of integers"
        if any(abs(v) > COORD_LIMIT for v in entry):
            return f"{where}.points[{i}]: coordinate magnitude exceeds 2^30"
    for b, poly in enumerate(obj["instance"]["border"]):
        if not isinstance(poly, list) or not all(map(_is_int, poly)):
            return f"{where}.border[{b}]: polygon must be a list of vertex ids"
    try:
        n = Instance(obj["instance"]["points"], obj["instance"]["border"]).n
    except InvariantViolation as exc:
        return str(exc)
    edges = set()
    for i, entry in enumerate(obj["edges"]):
        here = f"triangulation.edges[{i}]"
        if not _is_int_pair(entry):
            return f"{here}: edge must be a pair of vertex ids"
        a, b = entry
        if not (0 <= a < n and 0 <= b < n) or a == b:
            return f"{here}: edge [{a}, {b}] out of range"
        edges.add((min(a, b), max(a, b)))
    if len(edges) != len(obj["edges"]):
        return "triangulation.edges: duplicate edges"
    return None


BAD_VALUES = [
    True, False, 1.0, "1", None, [], [1], [1, 2, 3], {"x": 1},
    COORD_LIMIT, COORD_LIMIT + 1, -COORD_LIMIT - 1, 2**70, -1, 0, 7,
]


def _corrupt(obj, rng):
    """``obj`` with one to three entries or items replaced."""
    obj = copy.deepcopy(obj)
    for _ in range(rng.randint(1, 3)):
        lists = [
            obj["instance"]["points"], obj["instance"]["border"], obj["edges"],
            rng.choice(obj["instance"]["points"]), rng.choice(obj["edges"]),
            rng.choice(obj["instance"]["border"]),
        ]
        target = rng.choice(lists)
        if not isinstance(target, list) or not target:
            continue
        k = rng.randrange(len(target))
        if target is obj["edges"] and rng.random() < 0.3:
            v = rng.randrange(8)
            target[k] = [v, v]  # an edge from a vertex to itself
        else:
            target[k] = copy.deepcopy(rng.choice(BAD_VALUES))
    return obj


@pytest.mark.parametrize("shape", ["convex", "holed"])
def test_parse_errors_match_entry_by_entry_reference(shape):
    spec = (
        GenSpec(seed=5, n_points=12, interior_points=2)
        if shape == "convex"
        else GenSpec(seed=5, n_points=12, shape="with_holes", holes=1)
    )
    inst = generate_instance(spec)
    good = json.loads(formats.serialize_triangulation(greedy_triangulate(inst)))
    rng = random.Random(shape)
    raised = 0
    for _ in range(400):
        obj = _corrupt(good, rng)
        want = _reference_error(obj)
        try:
            formats.parse_triangulation(json.dumps(obj))
            got = None
        except (ParseError, InvariantViolation) as exc:
            got = str(exc)
        if want is None:
            # Past the list checks: only validation can refuse it.
            assert got is None or got.startswith("invalid triangulation"), got
        else:
            assert got == want
            raised += 1
    assert raised > 300


def test_edge_from_a_vertex_to_itself_is_located():
    inst = generate_instance(GenSpec(seed=5, n_points=6))
    obj = json.loads(formats.serialize_triangulation(greedy_triangulate(inst)))
    obj["edges"][4] = [3, 3]
    with pytest.raises(ParseError) as exc:
        formats.parse_triangulation(json.dumps(obj))
    assert str(exc.value) == "triangulation.edges[4]: edge [3, 3] out of range"
