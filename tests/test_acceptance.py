"""Acceptance suite: the eight end-to-end guarantees of the package.

Each test prints a single summary line so a plain ``pytest -v -s`` run
doubles as an acceptance report.
"""

import itertools
import json
import time

import pytest

from flipdist import formats, lemmas
from flipdist.cli import run as cli_run
from flipdist.crossings import count_pair
from flipdist.generate import GenSpec, generate_instance
from flipdist.morph import intersection_upper_bound, morph
from flipdist.oracle import (
    build_flip_graph,
    enumerate_triangulations_direct,
    exact_flip_distance,
)
from flipdist.triangulation import (
    Instance,
    Triangulation,
    faces,
    greedy_triangulate,
    interior_edge_count,
)
from helpers import distances_from, generate_pair

CATALAN = {4: 2, 5: 5, 6: 14, 7: 42, 8: 132}


def _pair_spec(i):
    """Deterministic mix of convex, non-convex-border and holed specs."""
    kind = i % 4
    if kind == 0:
        n = 4 + i % 9
        ip = (i // 4) % 3
        if n - ip < 4:
            ip = 0
        return GenSpec(seed=i, n_points=n, shape="convex_gon", interior_points=ip)
    if kind == 1:
        return GenSpec(seed=i, n_points=5 + i % 8, shape="random_simple_border")
    if kind == 2:
        return GenSpec(seed=i, n_points=7 + i % 6, shape="with_holes", holes=1)
    return GenSpec(seed=i, n_points=10 + i % 3, shape="with_holes", holes=2)


@pytest.fixture(scope="module")
def thousand_pairs():
    return [generate_pair(_pair_spec(i), i + 10**6) for i in range(1000)]


@pytest.fixture(scope="module")
def heptagon_nodes():
    inst = generate_instance(GenSpec(seed=7, n_points=7))
    graph = build_flip_graph(greedy_triangulate(inst))
    return [Triangulation(inst, inst.edges_of(key)) for key in sorted(graph.nodes)]


def test_acceptance_1_sandwich_all_octagon_pairs():
    """d_f <= morph steps <= #(T1,T2) <= (3n-2n_b-3)^2 over all 132x132 pairs."""
    started = time.time()
    inst = generate_instance(GenSpec(seed=8, n_points=8))
    graph = build_flip_graph(greedy_triangulate(inst))
    assert len(graph.nodes) == 132
    tris = [Triangulation(inst, inst.edges_of(key)) for key in graph.nodes]
    dist = [distances_from(graph, i) for i in range(len(graph.nodes))]
    bound = intersection_upper_bound(8, 8, 0)
    assert bound == 25
    checked = 0
    for i, j in itertools.product(range(132), repeat=2):
        crossings = count_pair(tris[i], tris[j]).total
        steps = len(morph(tris[i], tris[j]).steps)
        assert dist[i][j] <= steps <= crossings <= bound, (i, j)
        checked += 1
    elapsed = time.time() - started
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 1: PASS "
        f"({checked} ordered pairs, bound {bound}, {elapsed:.1f}s)"
    )


# (n_points, interior_points) for the sandwich beyond the octagon: flip
# graphs of 16 796 (12-gon) to 208 012 (14-gon) triangulations, which only
# the bidirectional distance search reaches in test time.
LARGE_SANDWICH = [(12, 0), (13, 0), (14, 0), (12, 2)]


def test_acceptance_1_sandwich_seeded_pairs_beyond_octagon():
    """d_f <= morph steps <= #(T1,T2) <= bound on five seeded pairs per size,
    in under 60 s (about 3 s on a 2-vCPU VM; the slowest 14-gon distance
    took under 1 s)."""
    started = time.time()
    totals = {"d_f": 0, "steps": 0, "crossings": 0}
    for n, interior in LARGE_SANDWICH:
        for seed in range(1, 6):
            spec = GenSpec(seed=seed, n_points=n, interior_points=interior)
            t1, t2 = generate_pair(spec, 1000 + seed)
            inst = t1.instance
            crossings = count_pair(t1, t2).total
            steps = len(morph(t1, t2).steps)
            distance = exact_flip_distance(t1, t2)
            bound = intersection_upper_bound(inst.n, inst.n_b, inst.h)
            assert distance <= steps <= crossings <= bound, (n, interior, seed)
            totals["d_f"] += distance
            totals["steps"] += steps
            totals["crossings"] += crossings
    elapsed = time.time() - started
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 1 (n=12-14): PASS ({5 * len(LARGE_SANDWICH)} pairs, "
        f"sum d_f / steps / # = {totals['d_f']} / {totals['steps']} / "
        f"{totals['crossings']}, {elapsed:.1f}s)"
    )


def test_acceptance_2_equality_cases(square_pair):
    t1, t2 = square_pair
    crossings = count_pair(t1, t2).total
    steps = len(morph(t1, t2).steps)
    distance = exact_flip_distance(t1, t2)
    assert crossings == steps == distance == 1

    tri = Instance([(0, 0), (7, 0), (3, 5)], [[0, 1, 2]])
    a = greedy_triangulate(tri)
    b = greedy_triangulate(tri, priority=lambda e: (-e[0], -e[1]))
    assert count_pair(a, b).total == 0
    assert len(morph(a, b).steps) == 0
    assert exact_flip_distance(a, b) == 0
    print("\nACCEPTANCE 2: PASS (square pair all 1, triangle pair all 0)")


def test_acceptance_3_strict_decrease(thousand_pairs):
    """1000 seeded pairs: every sequence strictly decreases to 0, no LemmaViolation."""
    nonzero = 0
    for t1, t2 in thousand_pairs:
        seq = morph(t1, t2)  # LemmaViolation would propagate and fail here
        totals = [s.before for s in seq.steps]
        if seq.steps:
            nonzero += 1
            totals.append(seq.steps[-1].after)
            assert totals[-1] == 0
            assert all(a > b for a, b in zip(totals, totals[1:]))
        assert seq.replay().edges == t2.edges
    print(
        f"\nACCEPTANCE 3: PASS "
        f"(1000 pairs, {nonzero} with crossings, 0 lemma violations)"
    )


def test_acceptance_4_lemma1(thousand_pairs, heptagon_nodes):
    checked = 0
    for t1, t2 in thousand_pairs:
        if t1.edges == t2.edges:
            continue
        report = lemmas.audit_lemma1(t1, t2)
        assert report.passed, report.format()
        checked += 1
    for t1, t2 in itertools.permutations(heptagon_nodes, 2):
        report = lemmas.audit_lemma1(t1, t2)
        assert report.passed, report.format()
        checked += 1
    print(f"\nACCEPTANCE 4: PASS ({checked} pairs, all maximal edges convex)")


def test_acceptance_5_lemma2_and_2_2(heptagon_nodes):
    nonvacuous = 0
    pairs = 0
    for t1, t2 in itertools.permutations(heptagon_nodes, 2):
        pairs += 1
        rep2 = lemmas.audit_lemma2(t1, t2)
        assert rep2.passed, rep2.format()
        nonvacuous += rep2.count(lemmas.PASS)
        rep22 = lemmas.audit_lemma2_2(t1, t2)
        assert rep22.passed, rep22.format()
    assert nonvacuous >= 100
    print(
        f"\nACCEPTANCE 5: PASS "
        f"({pairs} heptagon pairs, {nonvacuous} non-vacuous lemma-2 checks)"
    )


def test_acceptance_6_euler_formulas():
    specs = [GenSpec(seed=s, n_points=4 + s % 8) for s in range(20)]
    specs += [
        GenSpec(seed=s, n_points=7 + s % 5, shape="with_holes", holes=1)
        for s in range(10)
    ]
    specs += [
        GenSpec(seed=s, n_points=10 + s % 3, shape="with_holes", holes=2)
        for s in range(10)
    ]
    holed = 0
    for spec in specs:
        inst = generate_instance(spec)
        t = greedy_triangulate(inst)
        e_int = len(t.edges - inst.border_edges)
        assert e_int == interior_edge_count(inst.n, inst.n_b, inst.h)
        n, e, f = inst.n, len(t.edges), len(faces(t))
        assert n - e + f == 1 - inst.h
        if inst.h:
            holed += 1
    print(
        f"\nACCEPTANCE 6: PASS "
        f"({len(specs)} triangulations, {holed} with holes, formulas exact)"
    )


def test_acceptance_7_oracle_cross_check():
    for n, want in CATALAN.items():
        inst = generate_instance(GenSpec(seed=n, n_points=n))
        direct = enumerate_triangulations_direct(inst)
        graph = build_flip_graph(greedy_triangulate(inst))
        assert len(direct) == want
        assert sorted(graph.nodes) == direct

    holed_checked = 0
    for s in range(20):
        spec = GenSpec(
            seed=100 + s,
            n_points=7 + s % 5,
            shape="with_holes",
            holes=1 + (s % 5 == 4),
        )
        if spec.n_points < 3 + 3 * spec.holes + 3:
            spec = GenSpec(seed=100 + s, n_points=10, shape="with_holes", holes=1)
        inst = generate_instance(spec)
        direct = enumerate_triangulations_direct(inst)
        graph = build_flip_graph(greedy_triangulate(inst))
        assert sorted(graph.nodes) == direct, spec
        holed_checked += 1
    assert holed_checked >= 20

    for n in (5, 6):
        inst = generate_instance(GenSpec(seed=n, n_points=n))
        graph = build_flip_graph(greedy_triangulate(inst))
        dist = [distances_from(graph, i) for i in range(len(graph.nodes))]
        size = len(graph.nodes)
        for i, j, k in itertools.product(range(size), repeat=3):
            assert dist[i][j] == dist[j][i]
            assert (dist[i][j] == 0) == (i == j)
            assert dist[i][k] <= dist[i][j] + dist[j][k]
    print(
        f"\nACCEPTANCE 7: PASS "
        f"(Catalan counts {list(CATALAN.values())}, {holed_checked} holed "
        f"instances, metric axioms on pentagon and hexagon graphs)"
    )


def test_acceptance_8_determinism(tmp_path):
    inst_a = tmp_path / "inst_a.json"
    inst_b = tmp_path / "inst_b.json"
    gen_args = ["gen", "--seed", "21", "--n-points", "8"]
    assert cli_run(gen_args + ["-o", str(inst_a)]) == 0
    assert cli_run(gen_args + ["-o", str(inst_b)]) == 0
    assert inst_a.read_bytes() == inst_b.read_bytes()

    inst = formats.parse_instance(inst_a.read_bytes())
    t1 = greedy_triangulate(inst)
    t2 = greedy_triangulate(inst, priority=lambda e: (-e[0], -e[1]))
    f1 = tmp_path / "t1.json"
    f2 = tmp_path / "t2.json"
    f1.write_bytes(formats.serialize_triangulation(t1))
    f2.write_bytes(formats.serialize_triangulation(t2))

    seq_a = tmp_path / "seq_a.json"
    seq_b = tmp_path / "seq_b.json"
    assert cli_run(["morph", str(f1), str(f2), "-o", str(seq_a)]) == 0
    assert cli_run(["morph", str(f1), str(f2), "-o", str(seq_b)]) == 0
    assert seq_a.read_bytes() == seq_b.read_bytes()

    svg_a = tmp_path / "a.svg"
    svg_b = tmp_path / "b.svg"
    render_args = ["render", str(f1), "--overlay", str(f2), "--sequence", str(seq_a)]
    assert cli_run(render_args + ["-o", str(svg_a)]) == 0
    assert cli_run(render_args + ["-o", str(svg_b)]) == 0
    assert svg_a.read_bytes() == svg_b.read_bytes()

    assert json.loads(seq_a.read_bytes())["format"] == "flipdist.sequence"
    print("\nACCEPTANCE 8: PASS (gen, morph, render byte-identical across runs)")
