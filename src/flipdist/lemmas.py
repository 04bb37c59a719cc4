"""Executable audits of the structural claims the morph relies on.

Each audit runs standalone over a pair of valid triangulations and returns
an AuditReport; a failing check always carries a concrete witness.  Checks
whose hypothesis never triggered are reported as skipped, never as passed.
An invalid input is refused by :func:`require_valid` before any check runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import geometry, kernels
from .crossings import CrossingReport, count_pair, quad_crossers
from .errors import AlreadyEqual
from .triangulation import (
    Edge,
    Quadrilateral,
    Triangulation,
    canonical_edge,
    quadrilateral_of,
    require_same_instance,
    require_valid,
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

    def verdict(
        self,
        name: str,
        rule: str,
        failures: list[str],
        checked: int,
        unit: str,
        vacuous: str = "",
    ) -> None:
        """One FAIL per witness in ``failures``; without any, a PASS over the
        ``checked`` cases, or a SKIP saying why when there were none."""
        for witness in failures:
            self.add(name, rule, FAIL, witness)
        if failures:
            return
        if checked:
            self.add(name, rule, PASS, f"{checked} {unit}")
        else:
            self.add(name, rule, SKIP, vacuous)

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def count(self, status: str) -> int:
        return sum(1 for c in self.checks if c.status == status)

    def format(self) -> str:
        return "\n".join(c.format() for c in self.checks)


def _signed_det(p, q, r) -> int:
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def audit_propositions(t1: Triangulation, t2: Triangulation) -> AuditReport:
    """Structural sanity of a pair of valid triangulations.

    Covers: planarity, no vertex inside a quadrilateral (and crossing-edge
    endpoint kinds), no t2 meeting inside a quadrilateral, closest-crossing
    adjacency, equality iff zero crossings, crossed edges absent from the
    other triangulation, and shared uncrossed border edges.
    """
    require_same_instance(t1, t2)
    require_valid(t1, "t1")
    require_valid(t2, "t2")
    report = AuditReport()
    pts = t1.instance.points
    crossings = count_pair(t1, t2)

    # P1: planarity of each triangulation, witnessed by the first crossing
    # pair of its sorted edges in row-major order.
    for label, t in (("t1", t1), ("t2", t2)):
        edges = sorted(t.edges)
        packed = t.instance.segments(edges)
        grid = kernels.crossing_matrix(packed, packed)
        if grid.any():
            i, j = divmod(int(grid.argmax()), len(edges))
            witness = f"{label} edges {edges[i]} and {edges[j]} cross"
            report.add("planarity", "P1", FAIL, witness)
    if not report.checks:
        report.add("planarity", "P1", PASS)

    quads = [quadrilateral_of(t1, e) for e in t1.interior_edges()]
    crossers = quad_crossers(t1, quads, t2)
    # P2: endpoint kinds of every t2 edge entering a t1 quadrilateral: those
    # crossing a side or the diagonal ac, and the other diagonal bd when t2
    # has it.  (An edge crossing bd need not enter: ac itself crosses it.)
    # P3: two entering edges never meet strictly inside the quadrilateral.
    p2_failures, p3_failures = [], []
    p2_checked = p3_checked = 0
    for quad, sets in zip(quads, crossers):
        hit = set().union(*(sets[s] for s in ("ab", "bc", "cd", "da", "ac")))
        if quad.opposite in t2.edges:
            hit.add(quad.opposite)
        entering = sorted(hit)
        # abc and acd are ccw faces, so abcd is a simple polygon whose open
        # interior is the two open triangles and the open diagonal ac.
        polygon = [[pts[v] for v in quad.vertices]]
        kind = {v: "corner" for v in quad.vertices}
        for v in {v for e in entering for v in e} - kind.keys():
            inside = geometry.point_in_region(pts[v], polygon) == geometry.INSIDE
            kind[v] = "inside" if inside else "outside"
        p2_checked += len(entering)
        for e in entering:
            kinds = [kind[v] for v in e]
            if e != quad.opposite and (
                "inside" in kinds or kinds == ["corner", "corner"]
            ):
                p2_failures.append(
                    f"edge {e} endpoint kinds {kinds} in quad {quad.vertices}"
                )
        p3_checked += len(entering) * (len(entering) - 1) // 2
        # Two entering edges can meet inside only at an inside endpoint.
        if "inside" in kind.values():
            for f, g in itertools.combinations(entering, 2):
                p3_failures += [
                    f"edges {f},{g} meet at {v} inside quad {quad.vertices}"
                    for v in set(f) & set(g)
                    if kind[v] == "inside"
                ]
    report.verdict(
        "no-vertex-inside-quad", "P2", p2_failures, p2_checked, "edges",
        "no crossing edges",
    )
    report.verdict(
        "no-meeting-inside-quad", "P3", p3_failures, p3_checked, "pairs",
        "no crossing pairs",
    )

    # P4: the crossing edge nearest to an endpoint has both ends adjacent
    # to that endpoint in t2.
    failures, checked = [], 0
    for e, sets in zip(t1.interior_edges(), crossers):
        if crossings.per_edge[e] == 0:
            continue
        for endpoint, far in ((e[0], e[1]), (e[1], e[0])):
            p, q = pts[endpoint], pts[far]
            # Crosser gh meets pq at |dp| / (|dp| + |dq|) of the way from p, dp
            # and dq being det(g, h, p) and det(g, h, q): each fraction is < 1.
            nearest, num, den = None, 1, 1
            for f in sets["ac"]:
                g, h = t2.segment(f)
                dp = abs(_signed_det(g, h, p))
                f_den = dp + abs(_signed_det(g, h, q))
                if dp * den < num * f_den:
                    nearest, num, den = f, dp, f_den
            checked += 1
            failures += [
                f"edge {e}: nearest crosser {nearest} to vertex "
                f"{endpoint}, but {canonical_edge(endpoint, v)} not in t2"
                for v in nearest
                if canonical_edge(endpoint, v) not in t2.edges
            ]
    report.verdict(
        "closest-crossing-adjacency", "P4", failures, checked, "endpoints",
        "no crossed edges",
    )

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
    bad = [e for e in crossed if e in t2.edges]
    report.verdict(
        "crossed-edges-absent", "P7", [f"edges {bad} in both"] if bad else [],
        len(crossed), "edges", "no crossed edges",
    )

    # P8: border edges shared and uncrossed.  count_pair counts interior
    # edges only, so the border's crossings are a grid of their own.
    border = t1.instance.border_edges
    missing = sorted((border - t1.edges) | (border - t2.edges))
    edges = sorted(border)
    hits = kernels.crossing_matrix(
        t1.instance.segments(edges), t2.interior_array()
    ).any(axis=1)
    crossed_border = [e for e, hit in zip(edges, hits) if hit]
    report.verdict(
        "border-edges-shared", "P8",
        [f"missing={missing} crossed={crossed_border}"]
        if missing or crossed_border else [],
        len(border), "edges",
    )
    return report


def _max_edge_quads(
    t1: Triangulation, t2: Triangulation
) -> tuple[CrossingReport, list[Quadrilateral]]:
    """The crossing report of t1 against t2 and the quadrilaterals of its
    maximal edges, in order, each with its edge as ``diagonal``.  A maximal
    edge is crossed, so it is interior and has a quadrilateral."""
    require_same_instance(t1, t2)
    require_valid(t1, "t1")
    require_valid(t2, "t2")
    if t1.edges == t2.edges:
        raise AlreadyEqual("triangulations are equal; no maximal edges")
    crossings = count_pair(t1, t2)
    return crossings, [quadrilateral_of(t1, e) for e in crossings.max_edges]


def audit_lemma1(t1: Triangulation, t2: Triangulation) -> AuditReport:
    """Every maximally-crossing edge sits in a strictly convex quadrilateral."""
    _, quads = _max_edge_quads(t1, t2)
    report = AuditReport()
    for quad in quads:
        e = quad.diagonal
        if not quad.strictly_convex:
            report.add(
                "max-edge-quad-convex",
                "L1",
                FAIL,
                f"quad {quad.vertices} of max edge {e} not strictly convex",
            )
        else:
            report.add("max-edge-quad-convex", "L1", PASS, f"edge {e}")
    return report


def _corner_hypothesis_edges(
    quad: Quadrilateral, sets: dict[str, frozenset[Edge]], t2: Triangulation
) -> list[str]:
    """Which of the flip-guarantee hypotheses hold for this quadrilateral.

    Cases: the replacement diagonal bd is in t2, or t2 has an edge from b
    crossing da or cd, or an edge from d crossing ab or bc.
    """
    _, b, _, d = quad.vertices
    cases = []
    if quad.opposite in t2.edges:
        cases.append("bd-in-t2")
    for e in t2.edges:
        if b in e and (e in sets["da"] or e in sets["cd"]):
            cases.append(f"from-b:{e}")
        if d in e and (e in sets["ab"] or e in sets["bc"]):
            cases.append(f"from-d:{e}")
    return cases


def audit_lemma2(t1: Triangulation, t2: Triangulation) -> AuditReport:
    """Corner-incident crossers (or bd in t2) force a strictly reducing flip.

    Flipping e to bd replaces e's crossings by bd's, its ``bd`` set.
    """
    crossings, quads = _max_edge_quads(t1, t2)
    report = AuditReport()
    for quad, sets in zip(quads, quad_crossers(t1, quads, t2)):
        e = quad.diagonal
        cases = _corner_hypothesis_edges(quad, sets, t2)
        if cases:
            margin = crossings.per_edge[e] - len(sets["bd"])
            report.add(
                "corner-crosser-forces-decrease",
                "L2",
                PASS if margin >= 1 else FAIL,
                f"edge {e} cases={cases} decrease={margin}",
            )
    if not report.checks:
        report.add(
            "corner-crosser-forces-decrease", "L2", SKIP, "hypothesis vacuous"
        )
    return report


def audit_lemma2_2(t1: Triangulation, t2: Triangulation) -> AuditReport:
    """No t2 edge from a diagonal endpoint crosses the quadrilateral."""
    _, quads = _max_edge_quads(t1, t2)
    report = AuditReport()
    for quad, sets in zip(quads, quad_crossers(t1, quads, t2)):
        e = quad.diagonal
        a, _, c, _ = quad.vertices
        offenders = []
        for f in t2.edges:
            if a in f and (f in sets["bc"] or f in sets["cd"]):
                offenders.append(("a", f))
            if c in f and (f in sets["ab"] or f in sets["da"]):
                offenders.append(("c", f))
        if quad.diagonal in t2.edges:
            offenders.append(("ac", quad.diagonal))
        report.add(
            "no-diagonal-endpoint-crossers",
            "L2.2",
            FAIL if offenders else PASS,
            f"edge {e}: {offenders}" if offenders else f"edge {e}",
        )
    return report
