"""Executable audits of the structural claims the morph relies on.

Each audit runs standalone over a pair of triangulations and returns an
AuditReport; a failing check always carries a concrete witness.  Checks whose
hypothesis never triggered are reported as skipped, never as passed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import geometry
from .crossings import count_pair, count_segment, quad_crossers
from .errors import AlreadyEqual, InvariantViolation
from .triangulation import (
    Edge,
    Quadrilateral,
    Triangulation,
    canonical_edge,
    quadrilateral_of,
    require_same_instance,
    validate,
)

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


@dataclass(frozen=True)
class CheckResult:
    name: str
    rule: str
    status: str
    witness: str = ""

    def format(self) -> str:
        tail = f" ({self.witness})" if self.witness else ""
        return f"[{self.status.upper():4s}] {self.name}{tail}"


@dataclass
class AuditReport:
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, rule: str, status: str, witness: str = "") -> None:
        self.checks.append(CheckResult(name, rule, status, witness))

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def count(self, status: str) -> int:
        return sum(1 for c in self.checks if c.status == status)

    def format(self) -> str:
        return "\n".join(c.format() for c in self.checks)


def _signed_det(p, q, r) -> int:
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _strictly_inside_quad(
    t: Triangulation, quad: Quadrilateral, p: geometry.Point
) -> bool:
    """p strictly inside the union of the two triangles of the quadrilateral."""
    pts = t.instance.points
    a, b, c, d = (pts[v] for v in quad.vertices)
    for tri in ((a, b, c), (a, c, d)):
        if all(
            geometry.orient(tri[i], tri[(i + 1) % 3], p) == 1 for i in range(3)
        ):
            return True
    return geometry.point_on_open_segment(p, (a, c))


def audit_propositions(t1: Triangulation, t2: Triangulation) -> AuditReport:
    """Structural sanity of a pair of valid triangulations.

    Covers: planarity, no vertex inside a quadrilateral (and crossing-edge
    endpoint kinds), no t2 meeting inside a quadrilateral, closest-crossing
    adjacency, equality iff zero crossings, crossed edges absent from the
    other triangulation, and shared uncrossed border edges.
    """
    require_same_instance(t1, t2)
    for label, t in (("t1", t1), ("t2", t2)):
        bad = validate(t)
        if bad:
            raise InvariantViolation(f"{label} is not a valid triangulation", bad)
    report = AuditReport()
    pts = t1.instance.points
    crossings = count_pair(t1, t2)

    # P1: planarity of each triangulation (validated above).
    report.add("planarity", "P1", PASS)

    # P2: endpoint kinds of every t2 edge crossing a t1 quadrilateral.
    quads = [quadrilateral_of(t1, e) for e in t1.interior_edges()]
    crossers = quad_crossers(t1, quads, t2)
    # The t2 edges entering each quadrilateral: those crossing a side or the
    # diagonal ac, and the other diagonal bd when t2 has it.
    entering = []
    for quad, sets in zip(quads, crossers):
        hit = set().union(*sets.values())
        if quad.opposite in t2.edges:
            hit.add(quad.opposite)
        entering.append(sorted(hit))
    checked = 0
    for quad, crossing in zip(quads, entering):
        corner_set = set(quad.vertices)
        for e in crossing:
            checked += 1
            if e == quad.opposite:
                continue
            kinds = []
            for v in e:
                if v in corner_set:
                    kinds.append("corner")
                elif _strictly_inside_quad(t1, quad, pts[v]):
                    kinds.append("inside")
                else:
                    kinds.append("outside")
            if "inside" in kinds or kinds == ["corner", "corner"]:
                report.add(
                    "no-vertex-inside-quad",
                    "P2",
                    FAIL,
                    f"edge {e} endpoint kinds {kinds} in quad {quad.vertices}",
                )
    if checked:
        if all(c.name != "no-vertex-inside-quad" for c in report.checks):
            report.add("no-vertex-inside-quad", "P2", PASS, f"{checked} edges")
    else:
        report.add("no-vertex-inside-quad", "P2", SKIP, "no crossing edges")

    # P3: two t2 edges crossing a quad never meet strictly inside it.
    checked = 0
    ok = True
    for quad, crossing in zip(quads, entering):
        for i in range(len(crossing)):
            for j in range(i + 1, len(crossing)):
                shared = set(crossing[i]) & set(crossing[j])
                checked += 1
                for v in shared:
                    if _strictly_inside_quad(t1, quad, pts[v]):
                        ok = False
                        report.add(
                            "no-meeting-inside-quad",
                            "P3",
                            FAIL,
                            f"edges {crossing[i]},{crossing[j]} meet at {v} "
                            f"inside quad {quad.vertices}",
                        )
    if checked:
        if ok:
            report.add("no-meeting-inside-quad", "P3", PASS, f"{checked} pairs")
    else:
        report.add("no-meeting-inside-quad", "P3", SKIP, "no crossing pairs")

    # P4: the crossing edge nearest to an endpoint has both ends adjacent
    # to that endpoint in t2.
    checked = 0
    ok = True
    for e, sets in zip(t1.interior_edges(), crossers):
        if crossings.per_edge[e] == 0:
            continue
        for endpoint, far in ((e[0], e[1]), (e[1], e[0])):
            p, q = pts[endpoint], pts[far]

            def param(f: Edge) -> Fraction:
                g, h = t2.segment(f)
                dp = _signed_det(g, h, p)
                dq = _signed_det(g, h, q)
                return Fraction(dp, dp - dq)

            nearest = min(sets["ac"], key=param)
            checked += 1
            for v in nearest:
                if canonical_edge(endpoint, v) not in t2.edges:
                    ok = False
                    report.add(
                        "closest-crossing-adjacency",
                        "P4",
                        FAIL,
                        f"edge {e}: nearest crosser {nearest} to vertex "
                        f"{endpoint}, but {canonical_edge(endpoint, v)} not in t2",
                    )
    if checked:
        if ok:
            report.add(
                "closest-crossing-adjacency", "P4", PASS, f"{checked} endpoints"
            )
    else:
        report.add("closest-crossing-adjacency", "P4", SKIP, "no crossed edges")

    # P5: equality iff zero crossings.
    equal = t1.edges == t2.edges
    if equal == (crossings.total == 0):
        report.add("equality-iff-no-crossings", "P5", PASS)
    else:
        report.add(
            "equality-iff-no-crossings",
            "P5",
            FAIL,
            f"equal={equal} total={crossings.total}",
        )

    # P7: crossed edges of t1 are absent from t2.
    crossed = [e for e, c in crossings.per_edge.items() if c > 0]
    if crossed:
        bad = [e for e in crossed if e in t2.edges]
        if bad:
            report.add(
                "crossed-edges-absent", "P7", FAIL, f"edges {bad} in both"
            )
        else:
            report.add(
                "crossed-edges-absent", "P7", PASS, f"{len(crossed)} edges"
            )
    else:
        report.add("crossed-edges-absent", "P7", SKIP, "no crossed edges")

    # P8: border edges shared and uncrossed.
    border = t1.instance.border_edges
    missing = sorted((border - t1.edges) | (border - t2.edges))
    crossed_border = [e for e in border if crossings.per_edge.get(e, 0) > 0]
    if missing or crossed_border:
        report.add(
            "border-edges-shared",
            "P8",
            FAIL,
            f"missing={missing} crossed={crossed_border}",
        )
    else:
        report.add("border-edges-shared", "P8", PASS, f"{len(border)} edges")
    return report


def _max_edge_quads(
    t1: Triangulation, t2: Triangulation
) -> tuple[list[tuple[Edge, Quadrilateral | None]], "object"]:
    require_same_instance(t1, t2)
    if t1.edges == t2.edges:
        raise AlreadyEqual("triangulations are equal; no maximal edges")
    report = count_pair(t1, t2)
    return [(e, quadrilateral_of(t1, e)) for e in report.max_edges], report


def audit_lemma1(t1: Triangulation, t2: Triangulation) -> AuditReport:
    """Every maximally-crossing edge sits in a strictly convex quadrilateral."""
    quads, _ = _max_edge_quads(t1, t2)
    report = AuditReport()
    for e, quad in quads:
        if e in t1.instance.border_edges:
            report.add(
                "max-edge-not-border", "L1", FAIL, f"max edge {e} is a border edge"
            )
            continue
        if quad is None:
            report.add(
                "max-edge-quad-exists", "L1", FAIL, f"max edge {e} has one face"
            )
        elif not quad.strictly_convex:
            report.add(
                "max-edge-quad-convex",
                "L1",
                FAIL,
                f"quad {quad.vertices} of max edge {e} not strictly convex",
            )
        else:
            report.add("max-edge-quad-convex", "L1", PASS, f"edge {e}")
    return report


def _max_edge_crossers(t1: Triangulation, t2: Triangulation):
    """(edge, quadrilateral, quad_crossers sets) for each maximal edge with a
    quadrilateral, and the crossing report."""
    quads, report = _max_edge_quads(t1, t2)
    inner = [(e, quad) for e, quad in quads if quad is not None]
    crossers = quad_crossers(t1, [quad for _, quad in inner], t2)
    return [(e, quad, sets) for (e, quad), sets in zip(inner, crossers)], report


def _corner_hypothesis_edges(
    quad: Quadrilateral, sets: dict[str, frozenset[Edge]], t2: Triangulation
) -> list[str]:
    """Which of the flip-guarantee hypotheses hold for this quadrilateral.

    Cases: the replacement diagonal bd is in t2, or t2 has an edge from b
    crossing da or cd, or an edge from d crossing ab or bc.
    """
    _, b, _, d = quad.vertices
    cases = []
    if canonical_edge(b, d) in t2.edges:
        cases.append("bd-in-t2")
    for e in t2.edges:
        if b in e and (e in sets["da"] or e in sets["cd"]):
            cases.append(f"from-b:{e}")
        if d in e and (e in sets["ab"] or e in sets["bc"]):
            cases.append(f"from-d:{e}")
    return cases


def audit_lemma2(t1: Triangulation, t2: Triangulation) -> AuditReport:
    """Corner-incident crossers (or bd in t2) force a strictly reducing flip."""
    found, crossings = _max_edge_crossers(t1, t2)
    pts = t1.instance.points
    report = AuditReport()
    tested = 0
    for e, quad, sets in found:
        cases = _corner_hypothesis_edges(quad, sets, t2)
        if not cases:
            continue
        tested += 1
        bd = quad.opposite
        bd_count = count_segment((pts[bd[0]], pts[bd[1]]), t2)
        margin = crossings.per_edge[e] - bd_count
        if margin >= 1:
            report.add(
                "corner-crosser-forces-decrease",
                "L2",
                PASS,
                f"edge {e} cases={cases} decrease={margin}",
            )
        else:
            report.add(
                "corner-crosser-forces-decrease",
                "L2",
                FAIL,
                f"edge {e} cases={cases} decrease={margin}",
            )
    if not tested:
        report.add(
            "corner-crosser-forces-decrease", "L2", SKIP, "hypothesis vacuous"
        )
    return report


def audit_lemma2_2(t1: Triangulation, t2: Triangulation) -> AuditReport:
    """No t2 edge from a diagonal endpoint crosses the quadrilateral."""
    found, _ = _max_edge_crossers(t1, t2)
    report = AuditReport()
    for e, quad, sets in found:
        a, _, c, _ = quad.vertices
        offenders = []
        for f in t2.edges:
            if a in f and (f in sets["bc"] or f in sets["cd"]):
                offenders.append(("a", f))
            if c in f and (f in sets["ab"] or f in sets["da"]):
                offenders.append(("c", f))
        if canonical_edge(a, c) in t2.edges:
            offenders.append(("ac", canonical_edge(a, c)))
        if offenders:
            report.add(
                "no-diagonal-endpoint-crossers",
                "L2.2",
                FAIL,
                f"edge {e}: {offenders}",
            )
        else:
            report.add(
                "no-diagonal-endpoint-crossers", "L2.2", PASS, f"edge {e}"
            )
    return report
