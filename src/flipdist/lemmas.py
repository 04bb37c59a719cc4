"""Executable audits of the structural claims the morph relies on.

Each audit runs standalone over a pair of valid triangulations and returns
an AuditReport; a failing check always carries a concrete witness.  Checks
whose hypothesis never triggered are reported as skipped, never as passed.
An invalid input is refused by :func:`require_valid` before any check runs.

The four audits of one pair share a record of what they all read, each
part built on first read: the :func:`count_pair` report, t1's
quadrilaterals and one :func:`quad_crossers` grid over them.  A weak memo
keyed on t1 keeps each t1's last record, so the audits of one pair count
its crossings and build its quadrilateral grid once.  Every grid of an
audit, and P2's test of which vertices lie inside a quadrilateral
(:func:`inside_quads`), is gathered from one sign table per triangulation
(``triangulation.edge_signs``), whose rows are its own edges, sorted, as
its ``edges`` name them: signs of exact determinants, so the verdicts are
exact on both backends.
"""

from __future__ import annotations

import bisect
import itertools
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels
from .crossings import (
    QUAD_SEGMENTS,
    CrossingReport,
    count_pair,
    inside_quads,
    quad_crossers,
)
from .errors import AlreadyEqual
from .triangulation import (
    Edge,
    Quadrilateral,
    Triangulation,
    canonical_edge,
    edge_signs,
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


class _PairRecord:
    """What the four audits share about one pair (t1, t2), each part built
    on first read.  It holds both triangulations weakly, so the memo that
    keeps it keeps neither alive."""

    def __init__(self, t1: Triangulation, t2: Triangulation):
        self.t1 = weakref.ref(t1)
        self.t2 = weakref.ref(t2)

    @cached_property
    def crossings(self) -> CrossingReport:
        return count_pair(self.t1(), self.t2())

    @cached_property
    def quads(self) -> list[Quadrilateral]:
        """t1's quadrilaterals, one per interior edge, in sorted edge order."""
        t1 = self.t1()
        return [quadrilateral_of(t1, e) for e in t1.interior_edges()]

    @cached_property
    def grid(self) -> np.ndarray:
        """:func:`quad_crossers` of every quadrilateral of ``quads``."""
        return quad_crossers(self.t1(), self.quads, self.t2())

    @cached_property
    def max_rows(self) -> list[int]:
        """The positions in ``quads`` of t1's maximal edges, in order.  A
        maximal edge is crossed, so it is interior and has a row."""
        interior = self.t1().interior_edges()
        return [bisect.bisect_left(interior, e) for e in self.crossings.max_edges]

    @cached_property
    def max_sets(self) -> list[dict[str, frozenset[Edge]]]:
        """For each maximal edge, the t2 edges crossing each segment of its
        quadrilateral, by the names of ``QUAD_SEGMENTS``."""
        columns = edge_signs(self.t2()).edges
        decoded = (_row_edges(self.grid[k], columns) for k in self.max_rows)
        return [dict(zip(QUAD_SEGMENTS, map(frozenset, d))) for d in decoded]


def _row_edges(mask: np.ndarray, columns: tuple[Edge, ...]) -> list[list[Edge]]:
    """For each row of a boolean (rows, len(columns)) mask, the columns set
    in it, in order: one ``nonzero`` over the whole mask."""
    out: list[list[Edge]] = [[] for _ in range(len(mask))]
    for i, j in zip(*(ix.tolist() for ix in np.nonzero(mask))):
        out[i].append(columns[j])
    return out


# The record of each t1's last audited pair.  Like ``oracle._TABLES`` it
# holds its keys weakly, and the record holds t1 weakly too, so an entry
# goes with its key.
_RECORDS: "weakref.WeakKeyDictionary[Triangulation, _PairRecord]" = (
    weakref.WeakKeyDictionary()
)


def _record(t1: Triangulation, t2: Triangulation) -> _PairRecord:
    """The gate every audit runs, then the pair's shared record."""
    require_same_instance(t1, t2)
    require_valid(t1, "t1")
    require_valid(t2, "t2")
    record = _RECORDS.get(t1)
    # The memo finds an equal t1 too; the record must be of these objects.
    if record is None or record.t1() is not t1 or record.t2() is not t2:
        record = _RECORDS[t1] = _PairRecord(t1, t2)
    return record


def audit_propositions(t1: Triangulation, t2: Triangulation) -> AuditReport:
    """Structural sanity of a pair of valid triangulations.

    Covers: planarity, no vertex inside a quadrilateral (and crossing-edge
    endpoint kinds), no t2 meeting inside a quadrilateral, closest-crossing
    adjacency, equality iff zero crossings, crossed edges absent from the
    other triangulation, and shared uncrossed border edges.
    """
    record = _record(t1, t2)
    report = AuditReport()
    pts = t1.instance.points
    crossings = record.crossings

    # P1: planarity of each triangulation, witnessed by the first crossing
    # pair of its sorted edges in row-major order.
    grids = {}
    for label, t in (("t1", t1), ("t2", t2)):
        table = edge_signs(t)
        grid = grids[label] = kernels.segment_crossings(
            t.instance._packed, table.ends, table.ends, table.signs, table.signs
        )
        if grid.any():
            edges = table.edges
            i, j = divmod(int(grid.argmax()), len(edges))
            witness = f"{label} edges {edges[i]} and {edges[j]} cross"
            report.add("planarity", "P1", FAIL, witness)
    if not report.checks:
        report.add("planarity", "P1", PASS)

    # P2: endpoint kinds of every t2 edge entering a t1 quadrilateral: those
    # crossing a side or the diagonal ac (the grid's first five rows), and
    # the other diagonal bd when t2 has it.  (An edge crossing bd need not
    # enter: ac itself crosses it.)
    # P3: two entering edges never meet strictly inside the quadrilateral.
    quads, columns = record.quads, edge_signs(t2).edges
    enters = record.grid[:, : QUAD_SEGMENTS.index("bd")].any(axis=1)
    for k, quad in enumerate(quads):
        if quad.opposite in t2.edges:
            enters[k, bisect.bisect_left(columns, quad.opposite)] = True
    inside = inside_quads(t1, quads)
    p2_failures, p3_failures = [], []
    p2_checked = p3_checked = 0
    for k, (quad, edges) in enumerate(zip(quads, _row_edges(enters, columns))):
        kind = {v: "corner" for v in quad.vertices}
        for v in {v for e in edges for v in e} - kind.keys():
            kind[v] = "inside" if inside[k, v] else "outside"
        p2_checked += len(edges)
        for e in edges:
            kinds = [kind[v] for v in e]
            if e != quad.opposite and (
                "inside" in kinds or kinds == ["corner", "corner"]
            ):
                p2_failures.append(
                    f"edge {e} endpoint kinds {kinds} in quad {quad.vertices}"
                )
        p3_checked += len(edges) * (len(edges) - 1) // 2
        # Two entering edges can meet inside only at an inside endpoint.
        if "inside" in kind.values():
            for f, g in itertools.combinations(edges, 2):
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
    # to that endpoint in t2.  Its crossers are the grid's ``ac`` row.
    failures, checked = [], 0
    ac_rows = record.grid[:, QUAD_SEGMENTS.index("ac")]
    for e, crossers in zip(t1.interior_edges(), _row_edges(ac_rows, columns)):
        if crossings.per_edge[e] == 0:
            continue
        segments = [(f, pts[f[0]], pts[f[1]]) for f in crossers]
        for endpoint, far in ((e[0], e[1]), (e[1], e[0])):
            p, q = pts[endpoint], pts[far]
            # Crosser gh meets pq at |dp| / (|dp| + |dq|) of the way from p, dp
            # and dq being det(g, h, p) and det(g, h, q): each fraction is < 1.
            nearest, num, den = None, 1, 1
            for f, g, h in segments:
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
    # edges only.  The gate puts every border edge in t2, so the rows of
    # P1's t2 grid hold their crossings (no border edge crosses another).
    border = t1.instance.border_edges
    missing = sorted((border - t1.edges) | (border - t2.edges))
    crossed_border = [
        e for e, hit in zip(columns, grids["t2"].any(axis=1).tolist())
        if hit and e in border
    ]
    report.verdict(
        "border-edges-shared", "P8",
        [f"missing={missing} crossed={crossed_border}"]
        if missing or crossed_border else [],
        len(border), "edges",
    )
    return report


def _lemma_record(t1: Triangulation, t2: Triangulation) -> _PairRecord:
    """The pair's record, once the gate has passed; the lemma audits refuse
    an equal pair, which has no maximal edges."""
    record = _record(t1, t2)
    if t1.edges == t2.edges:
        raise AlreadyEqual("triangulations are equal; no maximal edges")
    return record


def audit_lemma1(t1: Triangulation, t2: Triangulation) -> AuditReport:
    """Every maximally-crossing edge sits in a strictly convex quadrilateral."""
    record = _lemma_record(t1, t2)
    report = AuditReport()
    for k in record.max_rows:
        quad = record.quads[k]
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
    record = _lemma_record(t1, t2)
    report = AuditReport()
    for k, sets in zip(record.max_rows, record.max_sets):
        quad = record.quads[k]
        e = quad.diagonal
        cases = _corner_hypothesis_edges(quad, sets, t2)
        if cases:
            margin = record.crossings.per_edge[e] - len(sets["bd"])
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
    record = _lemma_record(t1, t2)
    report = AuditReport()
    for k, sets in zip(record.max_rows, record.max_sets):
        quad = record.quads[k]
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
