import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from flipdist import formats
from flipdist.errors import InvariantViolation, ParseError
from flipdist.generate import GenSpec, generate_instance, random_priority
from flipdist.geometry import COORD_LIMIT
from flipdist.morph import FlipSequence, morph
from flipdist.triangulation import Instance, greedy_triangulate

DATA = Path(__file__).parent / "data"


def test_instance_round_trip(square, pentagon, holed):
    for inst in (square, pentagon, holed):
        data = formats.serialize_instance(inst)
        again = formats.parse_instance(data)
        assert again == inst
        assert formats.serialize_instance(again) == data


def test_instance_canonical_bytes(square):
    data = formats.serialize_instance(square)
    assert data.endswith(b"\n")
    obj = json.loads(data)
    assert obj["format"] == "flipdist.instance"
    assert obj["version"] == 1
    assert obj["points"] == [[0, 0], [1, 0], [1, 1], [0, 1]]
    assert obj["border"] == [[0, 1, 2, 3]]


def test_triangulation_round_trip(hexagon):
    t = greedy_triangulate(hexagon)
    data = formats.serialize_triangulation(t)
    again = formats.parse_triangulation(data)
    assert again.edges == t.edges
    assert again.instance == hexagon
    assert formats.serialize_triangulation(again) == data


def test_triangulation_instance_path(tmp_path, pentagon):
    t = greedy_triangulate(pentagon)
    inst_file = tmp_path / "inst.json"
    inst_file.write_bytes(formats.serialize_instance(pentagon))
    doc = {
        "format": "flipdist.triangulation",
        "version": 1,
        "instance_path": "inst.json",
        "edges": [list(e) for e in sorted(t.edges)],
    }
    got = formats.parse_triangulation(
        json.dumps(doc), base_dir=tmp_path
    )
    assert got.edges == t.edges


def test_sequence_round_trip(square_pair):
    t1, t2 = square_pair
    seq = morph(t1, t2)
    data = formats.serialize_sequence(seq)
    again = formats.parse_sequence(data)
    assert again.start.edges == t1.edges
    assert again.target.edges == t2.edges
    assert again.steps == seq.steps
    assert formats.serialize_sequence(again) == data


def test_parse_error_bad_json():
    with pytest.raises(ParseError) as exc:
        formats.parse_instance(b"{not json")
    assert "line" in str(exc.value)


def test_parse_error_wrong_format(square):
    doc = json.loads(formats.serialize_instance(square))
    doc["format"] = "something.else"
    with pytest.raises(ParseError):
        formats.parse_instance(json.dumps(doc))


def test_parse_error_bad_version(square):
    doc = json.loads(formats.serialize_instance(square))
    doc["version"] = 99
    with pytest.raises(ParseError):
        formats.parse_instance(json.dumps(doc))


def test_parse_error_missing_field():
    with pytest.raises(ParseError) as exc:
        formats.parse_instance(
            json.dumps({"format": "flipdist.instance", "version": 1})
        )
    assert "points" in str(exc.value)


def test_parse_error_non_integer_point(square):
    doc = json.loads(formats.serialize_instance(square))
    doc["points"][1] = [0.5, 1]
    with pytest.raises(ParseError) as exc:
        formats.parse_instance(json.dumps(doc))
    assert "points[1]" in str(exc.value)


def test_parse_rejects_invalid_instance():
    doc = {
        "format": "flipdist.instance",
        "version": 1,
        "points": [[0, 0], [2, 2], [2, 0], [0, 2]],
        "border": [[0, 1, 2, 3]],  # self-crossing
    }
    with pytest.raises(InvariantViolation):
        formats.parse_instance(json.dumps(doc))


def test_parse_triangulation_edge_out_of_range(square):
    t = greedy_triangulate(square)
    doc = json.loads(formats.serialize_triangulation(t))
    doc["edges"].append([0, 9])
    with pytest.raises(ParseError):
        formats.parse_triangulation(json.dumps(doc))


def test_parse_triangulation_duplicate_edges(square):
    t = greedy_triangulate(square)
    doc = json.loads(formats.serialize_triangulation(t))
    doc["edges"].append(doc["edges"][0])
    with pytest.raises(ParseError):
        formats.parse_triangulation(json.dumps(doc))


def test_parse_triangulation_rejects_invalid(square):
    doc = json.loads(
        formats.serialize_triangulation(greedy_triangulate(square))
    )
    doc["edges"] = [e for e in doc["edges"] if e != [0, 2]]
    with pytest.raises(InvariantViolation):
        formats.parse_triangulation(json.dumps(doc))
    # but loading without validation succeeds
    t = formats.parse_triangulation(json.dumps(doc), validate_on_load=False)
    assert (0, 2) not in t.edges


def test_parse_sequence_rejects_non_decreasing(square_pair):
    t1, t2 = square_pair
    seq = morph(t1, t2)
    doc = json.loads(formats.serialize_sequence(seq))
    doc["steps"][0]["after"] = doc["steps"][0]["before"]
    with pytest.raises(InvariantViolation):
        formats.parse_sequence(json.dumps(doc))


def test_parse_sequence_rejects_broken_chain(hexagon):
    t1 = greedy_triangulate(hexagon)
    t2 = greedy_triangulate(hexagon, priority=lambda e: (-e[0], -e[1]))
    seq = morph(t1, t2)
    assert len(seq.steps) >= 2
    doc = json.loads(formats.serialize_sequence(seq))
    doc["steps"][1]["before"] = doc["steps"][1]["before"] + 5
    with pytest.raises(InvariantViolation):
        formats.parse_sequence(json.dumps(doc))


def test_parse_sequence_rejects_a_dropped_last_step(hexagon):
    """Without its last step a sequence still chains and decreases, but
    ends above zero crossings."""
    t1 = greedy_triangulate(hexagon)
    t2 = greedy_triangulate(hexagon, priority=lambda e: (-e[0], -e[1]))
    doc = json.loads(formats.serialize_sequence(morph(t1, t2)))
    assert len(doc["steps"]) >= 2
    del doc["steps"][-1]
    with pytest.raises(InvariantViolation) as exc:
        formats.parse_sequence(json.dumps(doc))
    assert str(exc.value) == "last step does not reach zero crossings"


def _instance_by_path(doc, path):
    """``doc`` with its embedded instance replaced by ``path``, or by
    nothing when ``path`` is None."""
    del doc["instance"]
    if path is not None:
        doc["instance_path"] = path
    return json.dumps(doc).encode()


@pytest.mark.parametrize(
    "make, location, message",
    [
        (lambda doc: b"\xff" + json.dumps(doc).encode(), "document",
         "can't decode byte 0xff"),
        (lambda doc: json.dumps([doc]).encode(), "triangulation",
         "expected an object"),
        (lambda doc: _instance_by_path(doc, "missing.json"),
         "triangulation.instance_path", "No such file or directory"),
        (lambda doc: _instance_by_path(doc, None), "triangulation",
         "missing field 'instance' or 'instance_path'"),
    ],
    ids=["non-utf8", "top-level-array", "dangling-instance-path", "no-instance"],
)
def test_parse_triangulation_refuses_document(
    square, tmp_path, make, location, message
):
    doc = json.loads(formats.serialize_triangulation(greedy_triangulate(square)))
    with pytest.raises(ParseError) as exc:
        formats.parse_triangulation(make(doc), base_dir=tmp_path)
    assert exc.value.location == location
    assert message in str(exc.value)


def _set(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize(
    "path, value, location",
    [
        (("version",), True, "instance"),
        (("points", 1), [True, 4], "instance.points[1]"),
        (("points", 2), [1, False], "instance.points[2]"),
        (("border", 0, 2), True, "instance.border[0]"),
        (("points", 3), [0, 2**40], "instance.points[3]"),
        (("points", 0), [-(2**30) - 1, 0], "instance.points[0]"),
    ],
    ids=["version", "x", "y", "border", "x_huge", "x_below_cap"],
)
def test_parse_instance_rejects_bools_and_huge_coordinates(
    square, path, value, location
):
    doc = json.loads(formats.serialize_instance(square))
    _set(doc, path, value)
    with pytest.raises(ParseError) as exc:
        formats.parse_instance(json.dumps(doc))
    assert exc.value.location == location


def test_parse_instance_accepts_coordinate_cap():
    m = 2**30
    doc = {
        "format": "flipdist.instance",
        "version": 1,
        "points": [[-m, -m], [m, -m], [m, m], [-m, m]],
        "border": [[0, 1, 2, 3]],
    }
    assert formats.parse_instance(json.dumps(doc)).points[2] == (m, m)


def test_parse_triangulation_rejects_bool_edge(square):
    doc = json.loads(formats.serialize_triangulation(greedy_triangulate(square)))
    doc["edges"][0] = [False, True]
    with pytest.raises(ParseError) as exc:
        formats.parse_triangulation(json.dumps(doc))
    assert exc.value.location == "triangulation.edges[0]"


@pytest.mark.parametrize(
    "field, value, location",
    [
        ("before", True, "sequence.steps[0]"),
        ("after", False, "sequence.steps[0]"),
        ("removed", [True, 2], "sequence.steps[0].removed"),
        ("added", [True, 3], "sequence.steps[0].added"),
        ("removed", [0, 99], "sequence.steps[0].removed"),
        ("added", [0, 99], "sequence.steps[0].added"),
        ("removed", [1, 1], "sequence.steps[0].removed"),
        ("added", [1, 1], "sequence.steps[0].added"),
    ],
    ids=[
        "before", "after", "removed", "added",
        "removed-out-of-range", "added-out-of-range", "removed-loop", "added-loop",
    ],
)
def test_parse_sequence_rejects_bools(square_pair, field, value, location):
    doc = json.loads(formats.serialize_sequence(morph(*square_pair)))
    doc["steps"][0][field] = value
    with pytest.raises(ParseError) as exc:
        formats.parse_sequence(json.dumps(doc))
    assert exc.value.location == location
    if value in ([0, 99], [1, 1]):
        assert str(exc.value) == f"{location}: edge {value} out of range"


@pytest.mark.parametrize(
    "field, value, reason",
    [
        ("added", [0, 1], "is not"),
        ("before", "forged", "is not the crossing count"),
        ("removed", [0, 1], "is a border edge"),
    ],
    ids=["added-border-edge", "forged-before", "removed-border-edge"],
)
def test_parse_sequence_checks_each_step(hexagon, field, value, reason):
    t1 = greedy_triangulate(hexagon)
    t2 = greedy_triangulate(hexagon, priority=lambda e: (-e[0], -e[1]))
    doc = json.loads(formats.serialize_sequence(morph(t1, t2)))
    step = doc["steps"][0]
    # A forged first total that still decreases and chains to step 1.
    step[field] = step["before"] + 5 if value == "forged" else value
    with pytest.raises(InvariantViolation) as exc:
        formats.parse_sequence(json.dumps(doc))
    assert str(exc.value).startswith("invalid sequence.steps[0]: ")
    assert reason in str(exc.value)


def _reference(obj) -> bytes:
    """The bytes the template writer must give: the generic encoder's."""
    return (json.dumps(obj, indent=2) + "\n").encode()


def _instance_obj(inst):
    return {
        "format": "flipdist.instance",
        "version": 1,
        "points": [[x, y] for x, y in inst.points],
        "border": [list(poly) for poly in inst.border],
    }


def _edges_obj(t):
    return [[a, b] for a, b in sorted(t.edges)]


@st.composite
def _placed_instances(draw):
    """A generated instance (convex, star or holed), scaled by a factor of
    either sign and moved so that it touches the coordinate cap, +-2^30, or
    stays near the origin with negative coordinates."""
    shape = draw(st.sampled_from(["convex_gon", "random_simple_border", "with_holes"]))
    n = draw(st.integers(8, 11))
    holes = 1 if shape == "with_holes" else 0
    base = generate_instance(
        GenSpec(seed=draw(st.integers(0, 10**6)), n_points=n, shape=shape,
                holes=holes, interior_points=draw(st.integers(0, 2)))
    )
    scale = draw(st.sampled_from([1, -1, 3, -500]))
    pts = [(scale * x, scale * y) for x, y in base.points]
    lo_x, hi_x = min(x for x, _ in pts), max(x for x, _ in pts)
    lo_y, hi_y = min(y for _, y in pts), max(y for _, y in pts)
    dx, dy = draw(st.sampled_from([
        (0, 0),
        (COORD_LIMIT - hi_x, COORD_LIMIT - hi_y),
        (-COORD_LIMIT - lo_x, -COORD_LIMIT - lo_y),
        (-COORD_LIMIT - lo_x, COORD_LIMIT - hi_y),
    ]))
    return Instance([(x + dx, y + dy) for x, y in pts], base.border)


@settings(max_examples=60, deadline=None)
@given(inst=_placed_instances(), seeds=st.tuples(st.integers(0, 99), st.integers(0, 99)))
def test_writer_matches_generic_encoder(inst, seeds):
    """Every schema's bytes equal ``json.dumps(indent=2)``'s, with negative
    coordinates, coordinates at +-2^30, holes and a sequence of zero steps,
    and ``serialize . parse`` is a fixpoint."""
    t1, t2 = (greedy_triangulate(inst, priority=random_priority(inst, s)) for s in seeds)
    data = formats.serialize_instance(inst)
    assert data == _reference(_instance_obj(inst))
    assert formats.serialize_instance(formats.parse_instance(data)) == data
    data = formats.serialize_triangulation(t1)
    assert data == _reference({
        "format": "flipdist.triangulation",
        "version": 1,
        "instance": _instance_obj(inst),
        "edges": _edges_obj(t1),
    })
    assert formats.serialize_triangulation(formats.parse_triangulation(data)) == data
    for seq in (morph(t1, t2), FlipSequence(t1, t1, ())):
        data = formats.serialize_sequence(seq)
        assert data == _reference({
            "format": "flipdist.sequence",
            "version": 1,
            "instance": _instance_obj(inst),
            "start": _edges_obj(seq.start),
            "target": _edges_obj(seq.target),
            "steps": [
                {"removed": list(s.removed), "added": list(s.added),
                 "before": s.before, "after": s.after}
                for s in seq.steps
            ],
        })
        assert formats.serialize_sequence(formats.parse_sequence(data)) == data


@pytest.mark.parametrize(
    "path", sorted(p.relative_to(DATA).as_posix() for p in DATA.glob("*/*.json"))
)
def test_golden_files_reserialize_to_their_bytes(path):
    data = (DATA / path).read_bytes()
    if path.endswith(".seq.json"):
        assert formats.serialize_sequence(formats.parse_sequence(data)) == data
    else:
        assert formats.serialize_triangulation(formats.parse_triangulation(data)) == data
