"""Canonical JSON file formats for instances, triangulations and sequences.

Every serializer is canonical (fixed key order, sorted lists, 2-space
indent, trailing newline), so serialize(parse(serialize(x))) == serialize(x)
byte for byte and golden files diff cleanly.  The three schemas are fixed, so
each serializer fills a template with its integers: the bytes are those of
``json.dumps(obj, indent=2) + "\n"``, which the tests keep as the reference,
without its pure-Python indenting encoder.
"""

from __future__ import annotations

import json
import operator
from itertools import chain
from pathlib import Path
from typing import Any, Iterable, Optional

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


def _flat_ints(entries: list, size: Optional[int] = None) -> Optional[list[int]]:
    """The items of ``entries`` in one flat list when every entry is a list
    (of ``size`` items, if given) of JSON integers, else None.

    Each condition is one pass over a whole list; a caller that gets None
    walks the entries again to name the first offending one.
    """
    if {list} >= set(map(type, entries)) and (
        size is None or {size} >= set(map(len, entries))
    ):
        flat = list(chain.from_iterable(entries))
        if {int} >= set(map(type, flat)):
            return flat
    return None


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


def _list(items: list[str], indent: str) -> str:
    """Rendered JSON values as a list laid out the way ``json.dumps(indent=2)``
    lays it out at ``indent``."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def _pairs(pairs: Iterable[tuple[int, int]], indent: str) -> str:
    """A list of int pairs (points or edges) at ``indent``."""
    inner = indent + "    "
    pair = f"[\n{inner}%d,\n{inner}%d\n{indent}  ]"
    return _list([pair % p for p in pairs], indent)


def _instance_text(inst: Instance, indent: str) -> str:
    inner = indent + "  "
    border = [_list([str(v) for v in poly], inner + "  ") for poly in inst.border]
    return (
        f'{{\n{inner}"format": "{INSTANCE_FORMAT}",\n'
        f'{inner}"version": {VERSION},\n'
        f'{inner}"points": {_pairs(inst.points, inner)},\n'
        f'{inner}"border": {_list(border, inner)}\n'
        f"{indent}}}"
    )


def _parse_instance_obj(
    obj: Any, where: str, known: Optional[Instance] = None
) -> Instance:
    _check_format(obj, INSTANCE_FORMAT, where)
    points_raw = _expect(obj, "points", list, where)
    flat = _flat_ints(points_raw, 2)
    if flat is None or flat and not (
        -COORD_LIMIT <= min(flat) <= max(flat) <= COORD_LIMIT
    ):
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
    points = list(zip(flat[::2], flat[1::2]))
    border_raw = _expect(obj, "border", list, where)
    if _flat_ints(border_raw) is None:
        for b, poly in enumerate(border_raw):
            if not isinstance(poly, list) or not all(_is_int(v) for v in poly):
                raise ParseError(
                    "polygon must be a list of vertex ids", f"{where}.border[{b}]"
                )
    border = list(map(tuple, border_raw))
    if known is not None and known.points == tuple(points) and (
        known.border == tuple(border)
    ):
        return known
    return Instance(points, border)


def serialize_instance(inst: Instance) -> bytes:
    return (_instance_text(inst, "") + "\n").encode()


def parse_instance(doc: bytes | str, known: Optional[Instance] = None) -> Instance:
    """The instance in ``doc``; ``known`` itself when it has the same points
    and border, so a command validates each instance once."""
    return _parse_instance_obj(_load(doc), "instance", known)


def _parse_edges(edges_raw: list, inst: Instance, where: str) -> list[tuple[int, int]]:
    flat = _flat_ints(edges_raw, 2)
    if (
        flat is None
        or flat and not 0 <= min(flat) <= max(flat) < inst.n
        or any(map(operator.eq, flat[::2], flat[1::2]))
    ):
        for i, entry in enumerate(edges_raw):
            _parse_edge(entry, inst, f"{where}[{i}]")
    edges = list(map(canonical_edge, flat[::2], flat[1::2]))
    if len(set(edges)) != len(edges):
        raise ParseError("duplicate edges", where)
    return edges


def _parse_edge(entry: Any, inst: Instance, where: str) -> tuple[int, int]:
    """The edge ``entry`` names, canonical; a ParseError located at ``where``
    unless it is a pair of distinct vertex ids of ``inst``."""
    if (
        not isinstance(entry, list)
        or len(entry) != 2
        or not all(_is_int(v) for v in entry)
    ):
        raise ParseError("edge must be a pair of vertex ids", where)
    a, b = entry
    if not (0 <= a < inst.n and 0 <= b < inst.n) or a == b:
        raise ParseError(f"edge [{a}, {b}] out of range", where)
    return canonical_edge(a, b)


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
    return (
        f'{{\n  "format": "{TRIANGULATION_FORMAT}",\n'
        f'  "version": {VERSION},\n'
        f'  "instance": {_instance_text(t.instance, "  ")},\n'
        f'  "edges": {_pairs(sorted(t.edges), "  ")}\n}}\n'
    ).encode()


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
    where = "triangulation.edges"
    edges = _parse_edges(_expect(obj, "edges", list, where), inst, where)
    t = Triangulation(inst, edges)
    if validate_on_load:
        violations = validate(t)
        if violations:
            raise InvariantViolation("invalid triangulation", violations)
    return t


# One step of a sequence, at the indent of the "steps" list's items.
_STEP = (
    "{\n"
    '      "removed": [\n        %d,\n        %d\n      ],\n'
    '      "added": [\n        %d,\n        %d\n      ],\n'
    '      "before": %d,\n'
    '      "after": %d\n'
    "    }"
)


def serialize_sequence(seq: FlipSequence) -> bytes:
    steps = [_STEP % (*s.removed, *s.added, s.before, s.after) for s in seq.steps]
    return (
        f'{{\n  "format": "{SEQUENCE_FORMAT}",\n'
        f'  "version": {VERSION},\n'
        f'  "instance": {_instance_text(seq.start.instance, "  ")},\n'
        f'  "start": {_pairs(sorted(seq.start.edges), "  ")},\n'
        f'  "target": {_pairs(sorted(seq.target.edges), "  ")},\n'
        f'  "steps": {_list(steps, "  ")}\n}}\n'
    ).encode()


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
        removed, added = (
            _parse_edge(_expect(entry, key, list, where), inst, f"{where}.{key}")
            for key in ("removed", "added")
        )
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
            quad = state.flip(step.removed)
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
        start.instance.segments(rows), target.interior_array()
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
