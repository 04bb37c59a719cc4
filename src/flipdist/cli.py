"""Command-line front end.

Exit codes: 0 success, 1 domain error (validation or audit failure),
2 usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import formats, lemmas, render
from .crossings import count_pair
from .errors import FlipdistError, ParseError
from .generate import GenSpec, generate_instance, random_priority
from .morph import intersection_upper_bound, morph
from .oracle import build_flip_graph, enumerate_triangulations_direct, exact_flip_distance
from .triangulation import Instance, Triangulation, greedy_triangulate, validate


def _load_instance(path: str):
    return formats.parse_instance(Path(path).read_bytes())


def _load_triangulation(path: str, known: Instance | None = None) -> Triangulation:
    """Parse and validate a triangulation file; ``known``, an instance this
    command has already loaded, is reused when the file embeds the same one."""
    p = Path(path)
    return formats.parse_triangulation(p.read_bytes(), base_dir=p.parent, known=known)


def _load_pair(args) -> tuple[Triangulation, Triangulation]:
    t1 = _load_triangulation(args.tri1)
    return t1, _load_triangulation(args.tri2, t1.instance)


def _write(path: str | None, data: bytes) -> None:
    if path is None or path == "-":
        sys.stdout.write(data.decode("utf-8"))
    else:
        Path(path).write_bytes(data)


def _cmd_validate(args) -> int:
    inst = _load_instance(args.instance)
    violations: list[str] = []
    if args.triangulation is not None:
        p = Path(args.triangulation)
        t = formats.parse_triangulation(
            p.read_bytes(), base_dir=p.parent, validate_on_load=False, known=inst
        )
        if t.instance != inst:
            violations.append("triangulation references a different instance")
        else:
            violations.extend(f"triangulation: {v}" for v in validate(t))
    for v in violations:
        print(f"violation: {v}")
    if inst.is_pinched:
        print("note: pinched (border polygons share a vertex)")
    if not violations:
        print("ok")
    return 1 if violations else 0


def _cmd_triangulate(args) -> int:
    inst = _load_instance(args.instance)
    if args.priority == "lex":
        t = greedy_triangulate(inst)
    else:
        kind, _, seed = args.priority.partition(":")
        if kind != "random" or not seed.lstrip("-").isdigit():
            print(
                f"invalid --priority '{args.priority}' (use lex or random:SEED)",
                file=sys.stderr,
            )
            return 2
        t = greedy_triangulate(inst, priority=random_priority(inst, int(seed)))
    _write(args.output, formats.serialize_triangulation(t))
    return 0


def _cmd_count(args) -> int:
    t1, t2 = _load_pair(args)
    report = count_pair(t1, t2)
    print(f"total={report.total}")
    for e, c in sorted(report.per_edge.items()):
        if c:
            print(f"{e[0]}-{e[1]}: {c}")
    if report.max_edges:
        joined = " ".join(f"{a}-{b}" for a, b in report.max_edges)
        print(f"max: {joined}")
    return 0


def _cmd_morph(args) -> int:
    t1, t2 = _load_pair(args)
    seq = morph(t1, t2)
    crossings = seq.steps[0].before if seq.steps else 0
    if seq.replay().edges != t2.edges:
        raise FlipdistError("internal: sequence replay does not reach target")
    inst = t1.instance
    bound = intersection_upper_bound(inst.n, inst.n_b, inst.h)
    print(f"steps={len(seq.steps)} crossings={crossings} bound={bound}")
    if args.output:
        _write(args.output, formats.serialize_sequence(seq))
    return 0


def _cmd_distance(args) -> int:
    t1, t2 = _load_pair(args)
    print(exact_flip_distance(t1, t2))
    return 0


def _cmd_enumerate(args) -> int:
    inst = _load_instance(args.instance)
    nodes = enumerate_triangulations_direct(inst)
    seed = greedy_triangulate(inst)
    graph = build_flip_graph(seed)
    if sorted(graph.nodes) != nodes:
        raise FlipdistError(
            "flip-graph reachability disagrees with direct enumeration "
            f"({len(graph.nodes)} vs {len(nodes)} triangulations)"
        )
    print(f"{len(nodes)} triangulations")
    if args.list:
        for node in nodes:
            print(" ".join(f"{a}-{b}" for a, b in node))
    return 0


def _cmd_audit(args) -> int:
    t1, t2 = _load_pair(args)
    reports = [("propositions", lemmas.audit_propositions(t1, t2))]
    if t1.edges != t2.edges:
        reports.append(("lemma1", lemmas.audit_lemma1(t1, t2)))
        reports.append(("lemma2", lemmas.audit_lemma2(t1, t2)))
        reports.append(("lemma2.2", lemmas.audit_lemma2_2(t1, t2)))
    else:
        print("triangulations equal; lemma audits vacuous")
    ok = True
    for name, rep in reports:
        print(f"# {name}")
        print(rep.format())
        ok = ok and rep.passed
    print("AUDIT PASS" if ok else "AUDIT FAIL")
    return 0 if ok else 1


def _cmd_render(args) -> int:
    t = _load_triangulation(args.triangulation)
    overlay = _load_triangulation(args.overlay, t.instance) if args.overlay else None
    sequence = None
    if args.sequence:
        p = Path(args.sequence)
        sequence = formats.parse_sequence(
            p.read_bytes(), base_dir=p.parent, known=t.instance
        )
    svg = render.render_svg(t, overlay=overlay, sequence=sequence)
    _write(args.output, svg.encode("utf-8"))
    return 0


def _cmd_gen(args) -> int:
    spec = GenSpec(
        seed=args.seed,
        n_points=args.n_points,
        shape=args.shape,
        holes=args.holes,
        interior_points=args.interior_points,
    )
    inst = generate_instance(spec)
    _write(args.output, formats.serialize_instance(inst))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every run."""
    parser = argparse.ArgumentParser(
        prog="flipdist",
        description="Edge-flip distance tooling for constrained triangulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance or triangulation file")
    p.add_argument("instance")
    p.add_argument("triangulation", nargs="?", default=None)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("triangulate", help="greedily triangulate an instance")
    p.add_argument("instance")
    p.add_argument("--priority", default="lex", help="lex or random:SEED")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_triangulate)

    p = sub.add_parser("count", help="crossing counts between two triangulations")
    p.add_argument("tri1")
    p.add_argument("tri2")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("morph", help="flip sequence from tri1 to tri2")
    p.add_argument("tri1")
    p.add_argument("tri2")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_morph)

    p = sub.add_parser("distance", help="exact flip distance via BFS")
    p.add_argument("tri1")
    p.add_argument("tri2")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("enumerate", help="count all triangulations of an instance")
    p.add_argument("instance")
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("audit", help="run all structural audits on a pair")
    p.add_argument("tri1")
    p.add_argument("tri2")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("render", help="render a triangulation to SVG")
    p.add_argument("triangulation")
    p.add_argument("--overlay", default=None)
    p.add_argument("--sequence", default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n-points", type=int, required=True)
    p.add_argument("--shape", choices=["convex_gon", "random_simple_border", "with_holes"], default="convex_gon")
    p.add_argument("--holes", type=int, default=0)
    p.add_argument("--interior-points", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except FlipdistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
