import argparse
import json
from pathlib import Path

import pytest

from flipdist import cli, formats, kernels, triangulation
from flipdist.cli import run
from flipdist.generate import GenSpec
from flipdist.oracle import enumerate_triangulations_direct
from flipdist.triangulation import Instance, Triangulation, greedy_triangulate
from helpers import count_traces, generate_pair, wrong_key_lists


@pytest.fixture
def files(tmp_path, hexagon):
    inst = tmp_path / "inst.json"
    inst.write_bytes(formats.serialize_instance(hexagon))
    t1 = greedy_triangulate(hexagon)
    t2 = greedy_triangulate(hexagon, priority=lambda e: (-e[0], -e[1]))
    f1 = tmp_path / "t1.json"
    f2 = tmp_path / "t2.json"
    f1.write_bytes(formats.serialize_triangulation(t1))
    f2.write_bytes(formats.serialize_triangulation(t2))
    return tmp_path, inst, f1, f2


def test_validate_ok(files, capsys):
    _, inst, f1, _ = files
    assert run(["validate", str(inst)]) == 0
    assert run(["validate", str(inst), str(f1)]) == 0
    assert "ok" in capsys.readouterr().out


def test_unknown_kernel_is_refused(files, capsys, monkeypatch):
    _, inst, f1, f2 = files
    monkeypatch.setenv("FLIPDIST_KERNEL", "pyhton")
    assert run(["count", str(f1), str(f2)]) == 1
    assert "unknown FLIPDIST_KERNEL value 'pyhton'" in capsys.readouterr().err
    monkeypatch.setenv("FLIPDIST_KERNEL", "python")
    assert run(["validate", str(inst)]) == 0


def test_validate_reports_violations(tmp_path, capsys):
    doc = {
        "format": "flipdist.instance",
        "version": 1,
        "points": [[0, 0], [1, 0], [1, 1], [0, 1]],
        "border": [[0, 1, 2, 3]],
    }
    inst = tmp_path / "inst.json"
    inst.write_bytes((json.dumps(doc) + "\n").encode())
    tri = {
        "format": "flipdist.triangulation",
        "version": 1,
        "instance": doc,
        "edges": [[0, 1], [1, 2], [2, 3], [0, 3]],
    }
    tfile = tmp_path / "t.json"
    tfile.write_bytes((json.dumps(tri) + "\n").encode())
    assert run(["validate", str(inst), str(tfile)]) == 1
    out = capsys.readouterr().out
    assert "violation:" in out
    # The square without a diagonal is not maximal; both witnesses are named.
    assert out.splitlines() == [
        "violation: triangulation: not maximal: edge (0, 2) could be added",
        "violation: triangulation: not maximal: edge (1, 3) could be added",
    ]


def test_validate_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"{")
    assert run(["validate", str(bad)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_dangling_instance_path_is_a_located_parse_error(files, capsys):
    tmp, _, f1, f2 = files
    doc = json.loads(f1.read_bytes())
    del doc["instance"]
    doc["instance_path"] = "missing.json"
    f1.write_text(json.dumps(doc))
    assert run(["count", str(f1), str(f2)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: triangulation.instance_path: ")
    assert str(tmp / "missing.json") in err


def test_missing_file(tmp_path, capsys):
    assert run(["validate", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_triangulate(files, tmp_path, capsys):
    _, inst, _, _ = files
    out = tmp_path / "out.json"
    assert run(["triangulate", str(inst), "-o", str(out)]) == 0
    t = formats.parse_triangulation(out.read_bytes())
    assert len(t.edges) > 0
    # bad priority syntax: a seed is an optional "-" and ASCII digits
    for bad in ("bogus", "random:--5", "random:\u00b2"):
        assert run(["triangulate", str(inst), "--priority", bad]) == 2
        assert f"invalid --priority '{bad}'" in capsys.readouterr().err


def test_triangulate_random_priority(files, tmp_path):
    _, inst, _, _ = files
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["triangulate", str(inst), "--priority", "random:3", "-o", str(a)]) == 0
    assert run(["triangulate", str(inst), "--priority", "random:3", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_count(files, capsys):
    _, _, f1, f2 = files
    assert run(["count", str(f1), str(f2)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("total=")
    assert "max:" in out


def test_morph(files, tmp_path, capsys):
    _, _, f1, f2 = files
    seq_file = tmp_path / "seq.json"
    assert run(["morph", str(f1), str(f2), "-o", str(seq_file)]) == 0
    out = capsys.readouterr().out
    assert "steps=" in out and "crossings=" in out and "bound=" in out
    seq = formats.parse_sequence(seq_file.read_bytes())
    assert seq.replay().edges == seq.target.edges


@pytest.mark.parametrize("backend", kernels.KERNELS)
def test_morph_traces_each_input_once(tmp_path, monkeypatch, backend):
    """``morph t1 t2`` traces the faces of each input once, when validate
    accepts it, and builds the apex map of t1 alone: t2's is never read."""
    t1, t2 = generate_pair(GenSpec(seed=3, n_points=24, interior_points=6), 4)
    f1, f2 = tmp_path / "t1.json", tmp_path / "t2.json"
    f1.write_bytes(formats.serialize_triangulation(t1))
    f2.write_bytes(formats.serialize_triangulation(t2))
    monkeypatch.setenv(kernels.KERNEL_ENV, backend)
    traces = count_traces(monkeypatch)
    built = []
    apexes_of = triangulation._apexes_of

    def counting(*args):
        built.append(apexes_of(*args))
        return built[-1]

    monkeypatch.setattr(triangulation, "_apexes_of", counting)
    assert run(["morph", str(f1), str(f2), "-o", str(tmp_path / "seq.json")]) == 0
    assert traces == {"batch" if backend == "numpy" else "exact": 2}
    assert [apexes.keys() for apexes in built] == [t1.edges]


def test_distance(files, capsys):
    _, _, f1, f2 = files
    assert run(["distance", str(f1), str(f2)]) == 0
    assert int(capsys.readouterr().out.strip()) >= 1


def test_enumerate(files, capsys):
    _, inst, _, _ = files
    assert run(["enumerate", str(inst)]) == 0
    assert "14 triangulations" in capsys.readouterr().out
    assert run(["enumerate", str(inst), "--list"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 15


def _wrong_lists(inst):
    keys = enumerate_triangulations_direct(inst)
    return wrong_key_lists(inst, keys, greedy_triangulate(inst).key())


# The witness each wrong list is refused with: the seed unlisted, a listed
# key's flip unlisted, a listed key unreached, a key out of order.
WRONG_LIST_WITNESSES = {
    "less_one": "listed triangulation 0 of 13 flips 0-2 to 1-3, which is not listed",
    "duplicated": "listed triangulation 8 of 15 is not reachable from the greedy seed",
    "non_triangulation": "listed triangulation 7 of 15 flips 2-4 to 3-5, which is not listed",
    "without_seed": "the greedy seed is not among the 13 listed triangulations",
    "out_of_order": "listed triangulation 1 of 14 is out of key order",
}


@pytest.mark.parametrize("case", sorted(WRONG_LIST_WITNESSES))
def test_enumerate_refuses_a_wrong_list(files, capsys, monkeypatch, hexagon, case):
    _, inst, _, _ = files
    wrong = _wrong_lists(hexagon)[case]
    monkeypatch.setattr(cli, "enumerate_triangulations_direct", lambda _: list(wrong))
    assert run(["enumerate", str(inst)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: flip-graph reachability disagrees with direct enumeration: "
        f"{WRONG_LIST_WITNESSES[case]}\n"
    )


def test_wrong_list_witness_names_the_missing_flip(hexagon):
    """Less one key, the witness is listed key 0, whose flip of 0-2 to 1-3 is
    the key left out."""
    wrong = _wrong_lists(hexagon)["less_one"]
    (missing,) = set(enumerate_triangulations_direct(hexagon)) - set(wrong)
    index = hexagon.edge_index()
    assert wrong[0] ^ 1 << index[0, 2] ^ 1 << index[1, 3] == missing


def test_audit(files, capsys):
    _, _, f1, f2 = files
    assert run(["audit", str(f1), str(f2)]) == 0
    out = capsys.readouterr().out
    assert "AUDIT PASS" in out
    assert "[PASS]" in out


def test_audit_equal_pair(files, capsys):
    _, _, f1, _ = files
    assert run(["audit", str(f1), str(f1)]) == 0
    assert "vacuous" in capsys.readouterr().out


def test_render(files, tmp_path):
    _, _, f1, f2 = files
    svg = tmp_path / "out.svg"
    assert run(["render", str(f1), "-o", str(svg)]) == 0
    body = svg.read_text()
    assert body.startswith("<?xml")
    assert "<svg" in body and "</svg>" in body
    assert run(["render", str(f1), "--overlay", str(f2), "-o", str(svg)]) == 0
    assert "stroke-dasharray" in svg.read_text()


def test_render_sequence(files, tmp_path):
    _, _, f1, f2 = files
    seq_file = tmp_path / "seq.json"
    run(["morph", str(f1), str(f2), "-o", str(seq_file)])
    svg = tmp_path / "frames.svg"
    assert run(["render", str(f1), "--sequence", str(seq_file), "-o", str(svg)]) == 0
    seq = formats.parse_sequence(seq_file.read_bytes())
    body = svg.read_text()
    assert f'width="{1000 * (len(seq.steps) + 1)}"' in body


@pytest.fixture
def two_instances(tmp_path):
    """Triangulations ta of a 6-point and tb, tb2 of a 9-point instance, and
    the morph sequence sb from tb to tb2."""
    names = ("a", "b", "ta", "tb", "tb2", "sb")
    p = {name: str(tmp_path / f"{name}.json") for name in names}
    for argv in (
        ["gen", "--seed", "1", "--n-points", "6", "-o", p["a"]],
        ["gen", "--seed", "2", "--n-points", "9", "-o", p["b"]],
        ["triangulate", p["a"], "-o", p["ta"]],
        ["triangulate", p["b"], "-o", p["tb"]],
        ["triangulate", p["b"], "--priority", "random:3", "-o", p["tb2"]],
        ["morph", p["tb"], p["tb2"], "-o", p["sb"]],
    ):
        assert run(argv) == 0
    assert formats.parse_sequence(Path(p["sb"]).read_bytes()).steps
    return p


@pytest.mark.parametrize(
    "args",
    [["ta", "--overlay", "tb"], ["tb", "--overlay", "ta"], ["ta", "--sequence", "sb"]],
    ids=["overlay-larger", "overlay-smaller", "sequence"],
)
def test_render_refuses_other_instance(two_instances, tmp_path, capsys, args):
    svg = tmp_path / "out.svg"
    capsys.readouterr()
    argv = [two_instances.get(a, a) for a in args]
    assert run(["render", *argv, "-o", str(svg)]) == 1
    assert capsys.readouterr().err == (
        "error: triangulations have different instances\n"
    )
    assert not svg.exists()


def test_gen_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["gen", "--seed", "9", "--n-points", "7", "-o"]
    assert run(args + [str(a)]) == 0
    assert run(args + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    inst = formats.parse_instance(a.read_bytes())
    assert inst.n == 7


def test_gen_infeasible(capsys):
    assert run(["gen", "--seed", "1", "--n-points", "4",
                "--shape", "with_holes", "--holes", "2"]) == 1
    assert "error" in capsys.readouterr().err


def test_gen_refuses_negative_interior_points(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert run(["gen", "--seed", "1", "--n-points", "6",
                "--interior-points", "-2", "-o", str(out)]) == 1
    assert capsys.readouterr().err == "error: interior_points must be >= 0\n"
    assert not out.exists()


def test_stdout_output(files, capsys):
    _, inst, _, _ = files
    assert run(["triangulate", str(inst)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["format"] == "flipdist.triangulation"


@pytest.mark.parametrize("point", [[True, 0], [0, 2**40]], ids=["bool", "huge"])
def test_validate_rejects_bool_and_huge_coordinates(tmp_path, capsys, point):
    doc = {
        "format": "flipdist.instance",
        "version": 1,
        "points": [[0, 0], point, [1, 1], [0, 1]],
        "border": [[0, 1, 2, 3]],
    }
    bad = tmp_path / "inst.json"
    bad.write_text(json.dumps(doc))
    assert run(["validate", str(bad)]) == 2
    assert "instance.points[1]" in capsys.readouterr().err


@pytest.mark.parametrize("border", [[0, 1, 7], [0, 1, 3], [0, -1, 2]])
def test_validate_out_of_range_border_id(tmp_path, capsys, border):
    doc = {
        "format": "flipdist.instance",
        "version": 1,
        "points": [[0, 0], [1, 0], [0, 1]],
        "border": [border],
    }
    bad = tmp_path / "inst.json"
    bad.write_text(json.dumps(doc))
    assert run(["validate", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: invalid instance: border[0] has out-of-range vertex ids\n"
    )


def test_parser_is_built_once(files, monkeypatch):
    _, inst, f1, f2 = files
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "flipdist":
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    assert run(["validate", str(inst)]) == 0
    assert run(["count", str(f1), str(f2)]) == 0
    assert len(built) == 1


def test_validate_different_instance(files, tmp_path, capsys, square):
    _, inst, _, _ = files
    other = tmp_path / "square.json"
    other.write_bytes(formats.serialize_triangulation(greedy_triangulate(square)))
    assert run(["validate", str(inst), str(other)]) == 1
    assert capsys.readouterr().out == (
        "violation: triangulation references a different instance\n"
    )


def test_validate_notes_pinched_instance(tmp_path, capsys):
    pinched = Instance(
        [(0, 0), (10, 0), (10, 10), (0, 10), (5, 2), (6, 4)],
        [[0, 1, 2, 3], [0, 4, 5]],
    )
    inst = tmp_path / "pinched.json"
    inst.write_bytes(formats.serialize_instance(pinched))
    assert run(["validate", str(inst)]) == 0
    assert capsys.readouterr().out == (
        "note: pinched (border polygons share a vertex)\nok\n"
    )


@pytest.mark.parametrize(
    "case", ["start-crossing", "target-invalid", "target-unreached"]
)
def test_render_refuses_invalid_sequence(files, tmp_path, capsys, hexagon, case):
    _, _, f1, f2 = files
    seq_file = tmp_path / "seq.json"
    assert run(["morph", str(f1), str(f2), "-o", str(seq_file)]) == 0
    doc = json.loads(seq_file.read_text())
    assert doc["steps"]
    if case == "start-crossing":
        # An admissible pair outside a triangulation crosses one of its edges.
        start = {tuple(e) for e in doc["start"]}
        doc["start"].append(min(set(hexagon.admissible_pairs()) - start))
        expected = "error: invalid sequence.start: edges "
    elif case == "target-invalid":
        doc["target"].pop(0)
        expected = "error: invalid sequence.target: missing border edge "
    else:
        doc["target"] = doc["start"]
        expected = "error: sequence.steps do not reach sequence.target\n"
    seq_file.write_text(json.dumps(doc))
    capsys.readouterr()
    svg = tmp_path / "frames.svg"
    assert run(["render", str(f1), "--sequence", str(seq_file), "-o", str(svg)]) == 1
    assert capsys.readouterr().err.startswith(expected)
    assert not svg.exists()


def test_commands_never_call_the_coordinate_kernel(files, tmp_path, monkeypatch, capsys):
    """Every command gathers its crossings from sign tables: with the
    coordinate kernel's crossing_matrix and crossing_counts patched to raise,
    each still succeeds, validate on a valid and on an invalid
    triangulation alike."""

    def refused(*args, **kwargs):
        raise AssertionError("coordinate kernel called")

    monkeypatch.setattr(kernels, "crossing_matrix", refused)
    monkeypatch.setattr(kernels, "crossing_counts", refused)
    _, inst, f1, f2 = files
    gen = ["gen", "--seed", "2", "--n-points", "12", "--shape", "with_holes"]
    assert run([*gen, "--holes", "1", "-o", str(tmp_path / "gen.json")]) == 0
    generated, t = tmp_path / "gen.json", tmp_path / "t.json"
    assert run(["triangulate", str(generated), "-o", str(t)]) == 0
    assert run(["validate", str(generated), str(t)]) == 0
    assert run(["validate", str(inst), str(f1)]) == 0
    t1 = formats.parse_triangulation(f1.read_bytes())
    broken = Triangulation(t1.instance, set(t1.edges) - {t1.interior_edges()[0]})
    bad = tmp_path / "bad.json"
    bad.write_bytes(formats.serialize_triangulation(broken))
    assert run(["validate", str(inst), str(bad)]) == 1
    assert "not maximal" in capsys.readouterr().out
    seq = tmp_path / "seq.json"
    for argv in (
        ["count", str(f1), str(f2)],
        ["morph", str(f1), str(f2), "-o", str(seq)],
        ["audit", str(f1), str(f2)],
        ["distance", str(f1), str(f2)],
        ["enumerate", str(inst)],
        ["render", str(f1), "--overlay", str(f2), "-o", str(tmp_path / "o.svg")],
        ["render", str(f1), "--sequence", str(seq), "-o", str(tmp_path / "s.svg")],
    ):
        assert run(argv) == 0, argv
