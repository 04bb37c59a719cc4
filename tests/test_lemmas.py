import gc
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from flipdist import cli, crossings, formats, geometry, kernels, lemmas, triangulation
from flipdist.cli import run as cli_run
from flipdist.errors import AlreadyEqual, InvariantViolation
from flipdist.generate import GenSpec, generate_instance, random_priority
from flipdist.triangulation import Instance, Triangulation, greedy_triangulate
from helpers import apexes_in_order, generate_pair


def test_propositions_square_pair(square_pair):
    t1, t2 = square_pair
    report = lemmas.audit_propositions(t1, t2)
    assert report.passed
    assert report.count(lemmas.FAIL) == 0
    names = {c.name for c in report.checks}
    assert "planarity" in names
    assert "equality-iff-no-crossings" in names
    assert "border-edges-shared" in names


def test_propositions_equal_pair_skips(pentagon):
    t = greedy_triangulate(pentagon)
    report = lemmas.audit_propositions(t, t)
    assert report.passed
    # vacuous hypotheses are reported as skipped, never passed
    by_name = {c.name: c.status for c in report.checks}
    assert by_name["closest-crossing-adjacency"] == lemmas.SKIP
    assert by_name["crossed-edges-absent"] == lemmas.SKIP


def test_propositions_reject_invalid_input(square):
    broken = Triangulation(square, square.border_edges)  # not maximal
    ok = greedy_triangulate(square)
    with pytest.raises(InvariantViolation):
        lemmas.audit_propositions(broken, ok)


def test_border_edges_shared_fails_on_a_crossed_border_edge(monkeypatch):
    """P8 computes the border's crossings itself: count_pair reports 0 for
    every border edge.  The gate is patched out to forge a t2 with an edge
    that crosses the border edge (5, 8).  P1 checks each triangulation's
    planarity itself too, and names t2's first crossing pair."""
    inst = generate_instance(
        GenSpec(seed=3, n_points=10, shape="random_simple_border")
    )
    t1 = greedy_triangulate(inst)
    t2 = Triangulation(inst, t1.edges | {(0, 9)})
    monkeypatch.setattr(lemmas, "require_valid", lambda t, label: None)
    report = lemmas.audit_propositions(t1, t2)
    (p1,) = [c for c in report.checks if c.name == "planarity"]
    assert p1.status == lemmas.FAIL
    assert p1.witness == "t2 edges (0, 9) and (5, 8) cross"
    (p8,) = [c for c in report.checks if c.name == "border-edges-shared"]
    assert p8.status == lemmas.FAIL
    assert p8.witness == "missing=[] crossed=[(5, 8)]"


def test_lemma1_square_pair(square_pair):
    t1, t2 = square_pair
    report = lemmas.audit_lemma1(t1, t2)
    assert report.passed
    assert report.count(lemmas.PASS) == 1


def test_lemma_audits_equal_raise(pentagon):
    t = greedy_triangulate(pentagon)
    for audit in (lemmas.audit_lemma1, lemmas.audit_lemma2, lemmas.audit_lemma2_2):
        with pytest.raises(AlreadyEqual):
            audit(t, t)


def test_lemma2_square_pair(square_pair):
    t1, t2 = square_pair
    report = lemmas.audit_lemma2(t1, t2)
    # bd is in t2, so the hypothesis triggers and the decrease is strict
    assert report.passed
    assert report.count(lemmas.PASS) >= 1


def test_lemma2_2_square_pair(square_pair):
    t1, t2 = square_pair
    report = lemmas.audit_lemma2_2(t1, t2)
    assert report.passed


def test_audits_on_random_pairs():
    hits = 0
    for seed in range(30):
        t1, t2 = generate_pair(GenSpec(seed=seed, n_points=8), seed + 1000)
        assert lemmas.audit_propositions(t1, t2).passed
        if t1.edges == t2.edges:
            continue
        assert lemmas.audit_lemma1(t1, t2).passed
        rep2 = lemmas.audit_lemma2(t1, t2)
        assert rep2.passed
        hits += rep2.count(lemmas.PASS)
        assert lemmas.audit_lemma2_2(t1, t2).passed
    assert hits > 0


CASE_CORPUS = [
    dict(n_points=10, interior_points=2),
    dict(n_points=10, shape="random_simple_border"),
    dict(n_points=12, shape="with_holes", holes=1),
]


def test_case_analysis_coverage():
    """A seeded corpus reaches every audited case of the paper's argument.

    Each rule passes at least once, so none is only ever skipped, and the
    three hypotheses of Lemma 2 each appear in some witness.
    """
    passed, lemma2_witnesses = set(), []
    for kwargs in CASE_CORPUS:
        for seed in range(1, 7):
            t1, t2 = generate_pair(GenSpec(seed=seed, **kwargs), seed + 100)
            reports = [lemmas.audit_propositions(t1, t2)]
            if t1.edges != t2.edges:
                reports += [
                    lemmas.audit_lemma1(t1, t2),
                    lemmas.audit_lemma2(t1, t2),
                    lemmas.audit_lemma2_2(t1, t2),
                ]
            for report in reports:
                assert report.passed
                for c in report.checks:
                    if c.status == lemmas.PASS:
                        passed.add(c.rule)
                    if c.rule == "L2":
                        lemma2_witnesses.append(c.witness)
    assert passed == {
        "P1", "P2", "P3", "P4", "P5", "P7", "P8", "L1", "L2", "L2.2"
    }
    for case in ("bd-in-t2", "from-b", "from-d"):
        assert any(case in w for w in lemma2_witnesses), case


def test_report_formatting(square_pair):
    t1, t2 = square_pair
    report = lemmas.audit_propositions(t1, t2)
    text = report.format()
    assert "[PASS]" in text
    assert "planarity" in text


# Pairs made with `flipdist gen` and `flipdist triangulate --priority
# random:S` (t1) and `random:S+100` (t2), with S the gen seed:
#   convex_interior: --seed 6 --n-points 12 --interior-points 3
#   star:            --seed 13 --n-points 12 --shape random_simple_border
#   holed:           --seed 6 --n-points 13 --shape with_holes --holes 1
#                    --interior-points 1
# Each *.audit.txt is the `flipdist audit` output captured for the pair.
GOLDEN = Path(__file__).parent / "data" / "audit"


@pytest.mark.parametrize("case", ["convex_interior", "star", "holed"])
def test_audit_output_golden(case, capsys):
    """The audit text, witness order included, is exactly the captured one."""
    want = (GOLDEN / f"{case}.audit.txt").read_text()
    # The L2 witnesses list several corner cases in t2's edge order.
    assert want.count("from-") >= 2
    t1, t2 = (str(GOLDEN / f"{case}.{t}.json") for t in ("t1", "t2"))
    assert cli_run(["audit", t1, t2]) == 0
    assert capsys.readouterr().out == want


AUDITS = (
    lemmas.audit_propositions,
    lemmas.audit_lemma1,
    lemmas.audit_lemma2,
    lemmas.audit_lemma2_2,
)


def _fresh_report(audit, t1, t2):
    """The audit of fresh copies of t1 and t2 under an empty memo, so that
    no record made before can be read."""
    copies = [Triangulation(t.instance, t.edges) for t in (t1, t2)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lemmas, "_RECORDS", weakref.WeakKeyDictionary())
        return audit(*copies)


def test_pair_record_is_of_the_pair():
    """The audits of one t1 against two t2 in turn, in the CLI's order and
    in reverse, and after an equal copy of t1, each equal the audit of
    fresh copies.  The memo keeps no t1 alive."""
    inst = generate_instance(GenSpec(seed=1, n_points=12, interior_points=3))
    t1, t2a, t2b = (
        greedy_triangulate(inst, priority=random_priority(inst, s))
        for s in (1, 2, 3)
    )
    want = {
        (t2, audit): _fresh_report(audit, t1, t2)
        for t2 in (t2a, t2b)
        for audit in AUDITS
    }
    # Each audit differs between the two t2, so a record of the wrong pair
    # shows in every one.
    assert all(want[t2a, a].format() != want[t2b, a].format() for a in AUDITS)
    for order in (AUDITS, AUDITS[::-1]):
        for t2 in (t2a, t2b):
            for audit in order:
                assert audit(t1, t2) == want[t2, audit], (audit.__name__, order)
    # An equal copy of t1 finds t1's entry in the memo; once the copy is
    # gone, the record it left there is not read.
    lemmas.audit_propositions(t1, t2a)
    copy = Triangulation(inst, t1.edges)
    lemmas.audit_propositions(copy, t2b)
    del copy
    gc.collect()
    for audit in AUDITS:
        assert audit(t1, t2b) == want[t2b, audit], audit.__name__
    key = weakref.ref(t1)
    del t1
    gc.collect()
    assert key() is None


def test_audit_counts_the_pair_once(monkeypatch, capsys):
    """One `flipdist audit` of a non-equal pair makes one count_pair call
    and four crossing grids: count_pair's, P1's two and the quadrilateral
    grid.  P8 reads P1's, and loading the instance makes none."""
    grids, counts = [], []
    crossing_matrix = kernels.crossing_matrix

    def counting_grid(*args, **kwargs):
        grids.append(args)
        return crossing_matrix(*args, **kwargs)

    def counting_pair(*args, **kwargs):
        counts.append(args)
        return crossings.count_pair(*args, **kwargs)

    monkeypatch.setattr(kernels, "crossing_matrix", counting_grid)
    for module in (cli, formats, lemmas):
        monkeypatch.setattr(module, "count_pair", counting_pair)
    t1, t2 = (str(GOLDEN / f"convex_interior.{t}.json") for t in ("t1", "t2"))
    assert cli_run(["audit", t1, t2]) == 0
    assert "# lemma2.2" in capsys.readouterr().out
    assert len(counts) == 1
    assert len(grids) == 4


def test_vertex_and_meeting_inside_quad_fail(monkeypatch):
    """P2 and P3 on a forged t1 that leaves the interior point 6 isolated:
    t2's edges at 6 enter t1's quadrilaterals and meet at 6 inside them."""
    inst = Instance(
        [(0, 0), (6, 0), (9, 5), (6, 10), (0, 10), (-3, 5), (2, 4)],
        [[0, 1, 2, 3, 4, 5]],
    )
    t1 = Triangulation(inst, inst.border_edges | {(0, 2), (0, 3), (0, 4)})
    # Forged past the gate: t1's apex map read off its exact face trace.
    t1._apexes = apexes_in_order(
        triangulation._face_tuple(triangulation._faces_exact(t1)[0])
    )
    t2 = greedy_triangulate(inst, priority=lambda e: (-e[0], -e[1]))
    monkeypatch.setattr(lemmas, "require_valid", lambda t, label: None)
    report = lemmas.audit_propositions(t1, t2)
    failed = [(c.rule, c.witness) for c in report.checks if c.status == lemmas.FAIL]
    assert failed == [
        ("P2", "edge (1, 6) endpoint kinds ['outside', 'inside'] in quad (0, 2, 3, 4)"),
        ("P2", "edge (2, 6) endpoint kinds ['corner', 'inside'] in quad (0, 2, 3, 4)"),
        ("P2", "edge (5, 6) endpoint kinds ['outside', 'inside'] in quad (0, 2, 3, 4)"),
        ("P2", "edge (1, 6) endpoint kinds ['outside', 'inside'] in quad (0, 3, 4, 5)"),
        ("P2", "edge (2, 6) endpoint kinds ['outside', 'inside'] in quad (0, 3, 4, 5)"),
        ("P2", "edge (5, 6) endpoint kinds ['corner', 'inside'] in quad (0, 3, 4, 5)"),
        ("P3", "edges (1, 6),(2, 6) meet at 6 inside quad (0, 2, 3, 4)"),
        ("P3", "edges (1, 6),(5, 6) meet at 6 inside quad (0, 2, 3, 4)"),
        ("P3", "edges (2, 6),(5, 6) meet at 6 inside quad (0, 2, 3, 4)"),
        ("P3", "edges (1, 6),(2, 6) meet at 6 inside quad (0, 3, 4, 5)"),
        ("P3", "edges (1, 6),(5, 6) meet at 6 inside quad (0, 3, 4, 5)"),
        ("P3", "edges (2, 6),(5, 6) meet at 6 inside quad (0, 3, 4, 5)"),
    ]


# Corners are multiples of 4, so a point a quarter of the way along a side
# or the diagonal is a lattice point: small ones, and ones near ±2^30.
_CORNER = st.tuples(
    *[st.integers(-3, 3) | st.sampled_from([-(1 << 28), 1 << 28])] * 2
).map(lambda p: (4 * p[0], 4 * p[1]))


@settings(max_examples=300, deadline=None)
@given(quad=st.tuples(*[_CORNER] * 4), data=st.data())
@example(quad=((0, 0), (8, 0), (8, 8), (0, 8)), data=None)  # convex
@example(quad=((0, 0), (8, -8), (4, 0), (8, 8)), data=None)  # reflex at c
def test_inside_quad_matches_point_in_region(quad, data):
    """The two-triangle test agrees with point_in_region on the polygon
    abcd, at its corners, along its sides, along the diagonal ac and its
    extension, and elsewhere."""
    a, b, c, d = quad
    # abc and acd are ccw faces when b is right of ac and d left of it.
    if geometry.orient(a, c, b) > 0 > geometry.orient(a, c, d):
        b, d = d, b
    if not geometry.orient(a, c, b) < 0 < geometry.orient(a, c, d):
        return
    candidates = [
        (u[0] + t * (v[0] - u[0]) // 4, u[1] + t * (v[1] - u[1]) // 4)
        for u, v in ((a, b), (b, c), (c, d), (d, a), (a, c))
        for t in range(-4, 9)
    ]
    candidates += [(x, y) for x in range(-9, 10, 3) for y in range(-9, 10, 3)]
    if data is not None:
        candidates.append(data.draw(_CORNER, label="p"))
        small = st.integers(-14, 14)
        candidates.append(data.draw(st.tuples(small, small), label="small p"))
    for p in candidates:
        want = geometry.point_in_region(p, [list(quad)]) == geometry.INSIDE
        assert lemmas._inside_quad(p, a, b, c, d) == want, p
