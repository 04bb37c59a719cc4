"""Canonical JSON file formats for instances, triangulations and sequences.

Every serializer is canonical (fixed key order, sorted lists, 2-space
indent, trailing newline), so serialize(parse(serialize(x))) == serialize(x)
byte for byte and golden files diff cleanly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional

from . import kernels
from .crossings import count_pair
from .errors import EdgeNotInTriangulation, InvariantViolation, NotFlippable, ParseError
from .geometry import COORD_LIMIT
from .morph import FlipSequence, FlipStep
from .triangulation import (
    Instance,
    MutableTriangulation,
    Triangulation,
    canonical_edge,
    validate,
)

INSTANCE_FORMAT = "flipdist.instance"
TRIANGULATION_FORMAT = "flipdist.triangulation"
SEQUENCE_FORMAT = "flipdist.sequence"
VERSION = 1


def _dump(obj: Any) -> bytes:
    return (json.dumps(obj, indent=2) + "\n").encode("utf-8")


def _load(doc: bytes | str) -> Any:
    if isinstance(doc, bytes):
        try:
            doc = doc.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(str(exc), "document") from exc
    try:
        return json.loads(doc)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, f"line {exc.lineno}, column {exc.colno}") from exc


def _is_int(value: Any) -> bool:
    """A JSON integer: ``true`` and ``false`` load as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _expect(obj: Any, key: str, kind: type, where: str) -> Any:
    if not isinstance(obj, dict):
        raise ParseError("expected an object", where)
    if key not in obj:
        raise ParseError(f"missing field '{key}'", where)
    value = obj[key]
    if not isinstance(value, kind) or (kind is int and not _is_int(value)):
        raise ParseError(
            f"field '{key}' must be {kind.__name__}, got {type(value).__name__}",
            where,
        )
    return value


def _check_format(obj: Any, expected: str, where: str) -> None:
    fmt = _expect(obj, "format", str, where)
    if fmt != expected:
        raise ParseError(f"format '{fmt}' is not '{expected}'", where)
    version = _expect(obj, "version", int, where)
    if version != VERSION:
        raise ParseError(f"unsupported version {version}", where)


def _instance_obj(inst: Instance) -> dict:
    return {
        "format": INSTANCE_FORMAT,
        "version": VERSION,
        "points": [[x, y] for x, y in inst.points],
        "border": [list(poly) for poly in inst.border],
    }


def _parse_instance_obj(
    obj: Any, where: str, known: Optional[Instance] = None
) -> Instance:
    _check_format(obj, INSTANCE_FORMAT, where)
    points_raw = _expect(obj, "points", list, where)
    points = []
    for i, entry in enumerate(points_raw):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(_is_int(v) for v in entry)
        ):
            raise ParseError(
                "point must be a pair of integers", f"{where}.points[{i}]"
            )
        if any(abs(v) > COORD_LIMIT for v in entry):
            raise ParseError(
                "coordinate magnitude exceeds 2^30", f"{where}.points[{i}]"
            )
        points.append((entry[0], entry[1]))
    border_raw = _expect(obj, "border", list, where)
    border = []
    for b, poly in enumerate(border_raw):
        if not isinstance(poly, list) or not all(_is_int(v) for v in poly):
            raise ParseError(
                "polygon must be a list of vertex ids", f"{where}.border[{b}]"
            )
        border.append(tuple(poly))
    if known is not None and known.points == tuple(points) and (
        known.border == tuple(border)
    ):
        return known
    return Instance(points, border)


def serialize_instance(inst: Instance) -> bytes:
    return _dump(_instance_obj(inst))


def parse_instance(doc: bytes | str, known: Optional[Instance] = None) -> Instance:
    """The instance in ``doc``; ``known`` itself when it has the same points
    and border, so a command validates each instance once."""
    return _parse_instance_obj(_load(doc), "instance", known)


def _edges_list(t: Triangulation) -> list[list[int]]:
    return [[a, b] for a, b in sorted(t.edges)]


def _parse_edges(obj: Any, inst: Instance, where: str) -> list[tuple[int, int]]:
    edges_raw = _expect(obj, "edges", list, where) if isinstance(obj, dict) else obj
    if not isinstance(edges_raw, list):
        raise ParseError("edges must be a list", where)
    edges = []
    for i, entry in enumerate(edges_raw):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(_is_int(v) for v in entry)
        ):
            raise ParseError(
                "edge must be a pair of vertex ids", f"{where}[{i}]"
            )
        a, b = entry
        if not (0 <= a < inst.n and 0 <= b < inst.n) or a == b:
            raise ParseError(f"edge [{a}, {b}] out of range", f"{where}[{i}]")
        edges.append(canonical_edge(a, b))
    if len(set(edges)) != len(edges):
        raise ParseError("duplicate edges", where)
    return edges


def _resolve_instance(
    obj: Any, where: str, base_dir: Optional[Path], known: Optional[Instance]
) -> Instance:
    if isinstance(obj, dict) and "instance" in obj:
        return _parse_instance_obj(obj["instance"], f"{where}.instance", known)
    if isinstance(obj, dict) and "instance_path" in obj:
        rel = _expect(obj, "instance_path", str, where)
        path = Path(rel)
        if not path.is_absolute() and base_dir is not None:
            path = base_dir / path
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise ParseError(str(exc), f"{where}.instance_path") from exc
        return parse_instance(data, known)
    raise ParseError("missing field 'instance' or 'instance_path'", where)


def serialize_triangulation(t: Triangulation) -> bytes:
    return _dump(
        {
            "format": TRIANGULATION_FORMAT,
            "version": VERSION,
            "instance": _instance_obj(t.instance),
            "edges": _edges_list(t),
        }
    )


def parse_triangulation(
    doc: bytes | str,
    base_dir: Optional[Path] = None,
    validate_on_load: bool = True,
    known: Optional[Instance] = None,
) -> Triangulation:
    """The triangulation in ``doc``, validated unless ``validate_on_load`` is
    false.  Its instance is ``known`` when that has the same points and
    border (see :func:`parse_instance`)."""
    obj = _load(doc)
    _check_format(obj, TRIANGULATION_FORMAT, "triangulation")
    inst = _resolve_instance(obj, "triangulation", base_dir, known)
    edges = _parse_edges(obj, inst, "triangulation.edges")
    t = Triangulation(inst, edges)
    if validate_on_load:
        violations = validate(t)
        if violations:
            raise InvariantViolation("invalid triangulation", violations)
    return t


def serialize_sequence(seq: FlipSequence) -> bytes:
    return _dump(
        {
            "format": SEQUENCE_FORMAT,
            "version": VERSION,
            "instance": _instance_obj(seq.start.instance),
            "start": _edges_list(seq.start),
            "target": _edges_list(seq.target),
            "steps": [
                {
                    "removed": list(s.removed),
                    "added": list(s.added),
                    "before": s.before,
                    "after": s.after,
                }
                for s in seq.steps
            ],
        }
    )


def parse_sequence(
    doc: bytes | str,
    base_dir: Optional[Path] = None,
    known: Optional[Instance] = None,
) -> FlipSequence:
    obj = _load(doc)
    _check_format(obj, SEQUENCE_FORMAT, "sequence")
    inst = _resolve_instance(obj, "sequence", base_dir, known)
    start, target = (
        Triangulation(
            inst,
            _parse_edges(_expect(obj, key, list, "sequence"), inst, f"sequence.{key}"),
        )
        for key in ("start", "target")
    )
    steps_raw = _expect(obj, "steps", list, "sequence")
    steps = []
    for i, entry in enumerate(steps_raw):
        where = f"sequence.steps[{i}]"
        removed = _parse_edges(
            [_expect(entry, "removed", list, where)], inst, where
        )[0]
        added = _parse_edges([_expect(entry, "added", list, where)], inst, where)[0]
        before = _expect(entry, "before", int, where)
        after = _expect(entry, "after", int, where)
        steps.append(FlipStep(removed=removed, added=added, before=before, after=after))
    for i in range(len(steps)):
        if steps[i].after >= steps[i].before:
            raise InvariantViolation(
                f"step {i} does not decrease crossings "
                f"({steps[i].before} -> {steps[i].after})"
            )
        if i + 1 < len(steps) and steps[i + 1].before != steps[i].after:
            raise InvariantViolation(
                f"step {i + 1} 'before' does not chain from step {i} 'after'"
            )
    if steps and steps[-1].after != 0:
        raise InvariantViolation("last step does not reach zero crossings")
    for where, t in (("sequence.start", start), ("sequence.target", target)):
        if violations := validate(t):
            raise InvariantViolation(f"invalid {where}", violations)
    state = MutableTriangulation(start)
    for i, step in enumerate(steps):
        try:
            quad = state.quadrilateral(step.removed)
            state.flip(step.removed)
        except (EdgeNotInTriangulation, NotFlippable) as exc:
            raise InvariantViolation(
                f"invalid sequence.steps[{i}]", [str(exc)]
            ) from exc
        if step.added != quad.opposite:
            raise InvariantViolation(
                f"invalid sequence.steps[{i}]",
                [f"added {step.added} is not {quad.opposite}, the diagonal "
                 f"the flip of {step.removed} creates"],
            )
    if state.edges != target.edges:
        raise InvariantViolation("sequence.steps do not reach sequence.target")
    _check_totals(start, target, steps)
    return FlipSequence(start=start, target=target, steps=tuple(steps))


def _check_totals(
    start: Triangulation, target: Triangulation, steps: list[FlipStep]
) -> None:
    """Each step's totals must be crossing counts against ``target``: the
    first ``before`` is #(start, target), and each flip takes #(removed,
    target) off and puts #(added, target) on."""
    rows = [e for step in steps for e in (step.removed, step.added)]
    counts = kernels.crossing_counts(
        kernels.segments_array([start.segment(e) for e in rows]),
        target.interior_array(),
    ).tolist()
    total = count_pair(start, target).total
    for i, step in enumerate(steps):
        after = total - counts[2 * i] + counts[2 * i + 1]
        for name, got, want in (
            ("before", step.before, total),
            ("after", step.after, after),
        ):
            if got != want:
                raise InvariantViolation(
                    f"invalid sequence.steps[{i}]",
                    [f"{name} {got} is not the crossing count {want}"],
                )
        total = after
