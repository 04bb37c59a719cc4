from pathlib import Path

import pytest

from flipdist import lemmas
from flipdist.cli import run as cli_run
from flipdist.errors import AlreadyEqual, InvariantViolation
from flipdist.generate import GenSpec, generate_instance
from flipdist.triangulation import Triangulation, greedy_triangulate
from helpers import generate_pair


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
