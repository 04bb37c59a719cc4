import json

import pytest

from flipdist import formats
from flipdist.errors import InvariantViolation, ParseError
from flipdist.morph import morph
from flipdist.triangulation import Instance, greedy_triangulate


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
    "field, value",
    [("before", True), ("after", False), ("removed", [True, 2]), ("added", [True, 3])],
    ids=["before", "after", "removed", "added"],
)
def test_parse_sequence_rejects_bools(square_pair, field, value):
    doc = json.loads(formats.serialize_sequence(morph(*square_pair)))
    doc["steps"][0][field] = value
    with pytest.raises(ParseError) as exc:
        formats.parse_sequence(json.dumps(doc))
    assert exc.value.location.startswith("sequence.steps[0]")


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
