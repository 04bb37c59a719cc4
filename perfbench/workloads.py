"""The benchmark's workloads: seeded job pools and the checks on each job.

A workload builds, from the seed alone, a pool of jobs and the input files
they read.  A job is a short list of ``flipdist`` command lines, run
in-process through the public entry point ``flipdist.cli.run``.  After a job
has run, and outside its timed region, the workload's check verifies its
outputs and raises :class:`CheckFailed` when one is wrong or malformed.

Each pool has a fixed composition (shapes and sizes).  Where a job's work
swings widely with the draw (``morph_large``, the holed instance of
``oracle_sweep``), its instance is fixed and the seed places it by a
rotation, a translation and a relabelling (:func:`_placed`); elsewhere the
seed draws the geometry and the triangulations.  That keeps the work in a
pool, and hence the figures, comparable from one seed to the next.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from flipdist import cli, formats, kernels
from flipdist.errors import FlipdistError
from flipdist.generate import GenSpec, generate_instance
from flipdist.oracle import build_flip_graph
from flipdist.triangulation import Instance, Triangulation, greedy_triangulate


class CheckFailed(Exception):
    """A job's output is wrong."""


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    output: Optional[Path] = None


@dataclass
class Job:
    label: str
    commands: tuple[Command, ...]
    facts: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one job produced: per command its exit code, stdout, stderr and
    the bytes of the file it wrote (empty when it writes none)."""

    seconds: float
    results: list[tuple[int, str, str, bytes]]

    def digest(self) -> bytes:
        """SHA-256 of the canonical outputs: exit codes, stdout, files."""
        h = hashlib.sha256()
        for rc, out, _err, data in self.results:
            text = out.encode("utf-8")
            h.update(f"{rc} {len(text)} {len(data)}\n".encode("ascii"))
            h.update(text)
            h.update(data)
        return h.digest()


def _call(argv: tuple[str, ...]) -> int:
    try:
        return cli.run(list(argv))
    except SystemExit as exc:  # argparse rejects a command line this way
        return exc.code if isinstance(exc.code, int) else 2


def run_job(job: Job, tracer=None, index: int = 0) -> Outcome:
    """Run the job's commands in order; only the commands are timed."""
    streams = []
    if tracer is not None:
        tracer.install(index)
    start = time.perf_counter()
    try:
        for command in job.commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = _call(command.argv)
            streams.append((rc, out.getvalue(), err.getvalue()))
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    results = []
    for command, (rc, out, err) in zip(job.commands, streams):
        data = b""
        if command.output is not None and command.output.exists():
            data = command.output.read_bytes()
        results.append((rc, out, err, data))
    return Outcome(seconds, results)


# -- shared input generation and checks ----------------------------------------


def _draw(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _triangulate(inst: Instance, rng: random.Random) -> Triangulation:
    """Greedy triangulation under a seeded random priority."""
    ranks = {e: rng.random() for e in inst.admissible_pairs()}
    return greedy_triangulate(inst, priority=ranks.__getitem__)


def _write(path: Path, data: bytes) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return path


def _placed(inst: Instance, rng: random.Random) -> tuple[Instance, list[int]]:
    """``inst`` turned by a seeded number of quarter turns, translated and
    relabelled, and the new label of each old vertex.  None of these changes
    an orientation test, so the number of triangulations and every crossing
    count stay as they were."""
    turns = rng.randrange(4)
    dx, dy = rng.randint(-10**5, 10**5), rng.randint(-10**5, 10**5)
    label = list(range(inst.n))
    rng.shuffle(label)
    moved: list = [None] * inst.n
    for old, (x, y) in enumerate(inst.points):
        for _ in range(turns):
            x, y = -y, x
        moved[label[old]] = (x + dx, y + dy)
    border = [[label[v] for v in poly] for poly in inst.border]
    return Instance(moved, border), label


def _crossing_bound(inst: Instance) -> int:
    """(3n - 2n_b - 3 + 3h)^2, the worst case of #(T1, T2)."""
    return (3 * inst.n - 2 * inst.n_b - 3 + 3 * inst.h) ** 2


def _require_exit_zero(job: Job, outcome: Outcome) -> None:
    for command, (rc, _out, err, _data) in zip(job.commands, outcome.results):
        if rc != 0:
            raise CheckFailed(f"'{command.argv[0]}' exited {rc}: {err.strip()}")


_MORPH_LINE = re.compile(r"steps=(\d+) crossings=(\d+) bound=(\d+)")


def _morph_figures(stdout: str, inst: Instance) -> tuple[int, int]:
    """Steps and crossings from ``morph``'s report, checked against the bound."""
    match = _MORPH_LINE.fullmatch(stdout.strip())
    if match is None:
        raise CheckFailed(f"unexpected morph output {stdout!r}")
    steps, crossings, bound = (int(g) for g in match.groups())
    if bound != _crossing_bound(inst):
        raise CheckFailed(f"bound {bound} != {_crossing_bound(inst)}")
    if not steps <= crossings <= bound:
        raise CheckFailed(f"steps {steps} <= crossings {crossings} <= {bound} fails")
    return steps, crossings


def _check_sequence(
    data: bytes, t1: Triangulation, t2: Triangulation, steps: int, crossings: int
) -> None:
    """The written sequence parses, its totals fall strictly from the crossing
    count to 0, and replaying its flips from t1 reaches t2."""
    seq = formats.parse_sequence(data)
    if seq.start.edges != t1.edges or seq.target.edges != t2.edges:
        raise CheckFailed("sequence endpoints differ from the input pair")
    if len(seq.steps) != steps:
        raise CheckFailed(f"sequence has {len(seq.steps)} steps, morph said {steps}")
    totals = [crossings] + [s.after for s in seq.steps]
    for i, step in enumerate(seq.steps):
        if step.before != totals[i] or not step.after < step.before:
            raise CheckFailed(f"step {i} totals {step.before} -> {step.after}")
    if totals[-1] != 0:
        raise CheckFailed("sequence does not end at zero crossings")
    if seq.replay().edges != t2.edges:
        raise CheckFailed("sequence replay does not reach t2")


# -- pairs_mixed ------------------------------------------------------------------

# (shape, n_points, interior_points, holes); one round of the pool, in
# rising cost.  The 5th and 6th jobs of a round are alike, and so are the
# 9th and 10th, so that the median and the p90 fall inside a group of jobs
# of one size rather than on the edge between two.
_MIXED_SPECS = (
    ("random_simple_border", 10, 0, 0),
    ("convex_gon", 12, 3, 0),
    ("with_holes", 12, 0, 1),
    ("random_simple_border", 14, 2, 0),
    ("convex_gon", 16, 4, 0),
    ("convex_gon", 16, 4, 0),
    ("with_holes", 21, 1, 2),
    ("convex_gon", 22, 5, 0),
    ("with_holes", 24, 1, 3),
    ("with_holes", 24, 1, 3),
)
_MIXED_ROUNDS = 3
_MIXED_TINY = (
    ("convex_gon", 8, 2, 0),
    ("random_simple_border", 8, 0, 0),
    ("with_holes", 10, 0, 1),
)


def _pair_job(workdir: Path, spec, gen_seed: int, p1: int, p2: int) -> Job:
    shape, n, interior, holes = spec
    workdir.mkdir(parents=True, exist_ok=True)
    inst, t1, t2, seq = (
        str(workdir / name) for name in ("inst.json", "t1.json", "t2.json", "seq.json")
    )
    gen = ["gen", "--seed", str(gen_seed), "--n-points", str(n), "--shape", shape]
    gen += ["--interior-points", str(interior)]
    if holes:
        gen += ["--holes", str(holes)]
    commands = (
        Command((*gen, "-o", inst), Path(inst)),
        Command(("triangulate", inst, "--priority", f"random:{p1}", "-o", t1), Path(t1)),
        Command(("triangulate", inst, "--priority", f"random:{p2}", "-o", t2), Path(t2)),
        Command(("validate", inst, t1)),
        Command(("validate", inst, t2)),
        Command(("count", t1, t2)),
        Command(("morph", t1, t2, "-o", seq), Path(seq)),
        Command(("audit", t1, t2)),
    )
    return Job(f"{shape} n={n} h={holes}", commands)


def build_pairs_mixed(seed: int, workdir: Path, tiny: bool) -> list[Job]:
    rng = random.Random(f"pairs_mixed/{seed}")
    specs = _MIXED_TINY if tiny else _MIXED_SPECS * _MIXED_ROUNDS
    return [
        _pair_job(workdir / "pairs", spec, _draw(rng), _draw(rng), _draw(rng))
        for spec in specs
    ]


def warmup_pairs_mixed(workdir: Path) -> Job:
    return _pair_job(workdir / "warmup", ("convex_gon", 8, 1, 0), 1, 2, 3)


def check_pairs_mixed(job: Job, outcome: Outcome) -> None:
    _require_exit_zero(job, outcome)
    r = outcome.results
    for i in (3, 4):
        if r[i][1] != "ok\n":
            raise CheckFailed(f"validate printed {r[i][1]!r}")
    inst = formats.parse_instance(r[0][3])
    t1 = formats.parse_triangulation(r[1][3])
    t2 = formats.parse_triangulation(r[2][3])
    if t1.instance != inst or t2.instance != inst:
        raise CheckFailed("triangulations reference another instance")
    first = r[5][1].splitlines()[0]
    if not first.startswith("total="):
        raise CheckFailed(f"unexpected count output {first!r}")
    steps, crossings = _morph_figures(r[6][1], inst)
    if crossings != int(first[len("total="):]):
        raise CheckFailed(f"morph crossings {crossings} != count {first}")
    _check_sequence(r[6][3], t1, t2, steps, crossings)
    if r[7][1].splitlines()[-1] != "AUDIT PASS":
        raise CheckFailed("audit did not pass")


# -- morph_large ------------------------------------------------------------------

# Fixed pairs, two of each size, as (n, draw): the instance is the generated
# convex n-gon with n/4 interior points of seed ``draw``, and t1, t2 are
# greedy triangulations under priorities drawn from ``random.Random(draw)``.
# The crossing count of a drawn pair, and with it the morph's work, varies by
# a factor of two to four at one size; these draws are the two of twelve per
# size nearest the median count (in order: 232, 229, 324, 354, 409, 420, 584,
# 542, 554, 631).  The seed places each pair.  The median falls between the
# n=56 pairs, and the p90 inside the three costliest jobs (the n=64 pairs
# and the n=60 pair of 105 steps), which are within about 10% of each other.
_LARGE_PAIRS = (
    (40, 4006), (40, 4011), (48, 4806), (48, 4807), (56, 5608),
    (56, 5611), (60, 6006), (60, 6008), (64, 6403), (64, 6404),
)
_LARGE_TINY = ((14, 1406), (18, 1800))


def _exact_crossings(t1: Triangulation, t2: Triangulation) -> int:
    """#(t1, t2) by the exact python kernel, after checking that the numpy
    kernel gives the same per-edge counts on the same segment arrays."""
    a, b = t1.interior_array(), t2.interior_array()
    exact = kernels.crossing_counts(a, b, kernel="python")
    fast = kernels.crossing_counts(a, b, kernel="numpy")
    if not np.array_equal(exact, fast):
        raise CheckFailed("python and numpy crossing kernels disagree")
    return int(exact.sum())


def _large_job(workdir: Path, pair: tuple[int, int], rng: random.Random) -> Job:
    n, draw = pair
    base = generate_instance(GenSpec(seed=draw, n_points=n, interior_points=n // 4))
    ranks = random.Random(draw)
    pair_edges = [_triangulate(base, ranks).edges for _ in range(2)]
    inst, label = _placed(base, rng)
    t1, t2 = (
        Triangulation(inst, [(label[a], label[b]) for a, b in edges])
        for edges in pair_edges
    )
    p1 = _write(workdir / "t1.json", formats.serialize_triangulation(t1))
    p2 = _write(workdir / "t2.json", formats.serialize_triangulation(t2))
    seq = workdir / "seq.json"
    return Job(
        f"convex n={n} interior={n // 4} draw={draw}",
        (Command(("morph", str(p1), str(p2), "-o", str(seq)), seq),),
        {"t1": t1, "t2": t2, "crossings": _exact_crossings(t1, t2)},
    )


def build_morph_large(seed: int, workdir: Path, tiny: bool) -> list[Job]:
    rng = random.Random(f"morph_large/{seed}")
    pairs = _LARGE_TINY if tiny else _LARGE_PAIRS
    return [_large_job(workdir / f"large{i}", pair, rng) for i, pair in enumerate(pairs)]


def warmup_morph_large(workdir: Path) -> Job:
    return _large_job(workdir / "warmup", (12, 0), random.Random(0))


def check_morph_large(job: Job, outcome: Outcome) -> None:
    _require_exit_zero(job, outcome)
    t1, t2 = job.facts["t1"], job.facts["t2"]
    _rc, out, _err, data = outcome.results[0]
    steps, crossings = _morph_figures(out, t1.instance)
    if crossings != job.facts["crossings"]:
        raise CheckFailed(f"crossings {crossings} != exact {job.facts['crossings']}")
    _check_sequence(data, t1, t2, steps, crossings)


# -- oracle_sweep -----------------------------------------------------------------

# A holed instance with a fixed number of triangulations, so that the
# oracle's work does not swing with the seed: the count of a generated
# n=10, h=1 instance ranges from about 500 to 1500.  It was drawn once from
# the generator; the seed places it by a quarter-turn rotation, a
# translation and a relabelling of its vertices, none of which changes the
# count.
_HOLED_POINTS = (
    (431681, 902027), (-347282, 937761), (-441804, 897112), (-585040, 811004),
    (-599397, -800452), (553308, -832976), (978969, -204011), (314538, -277353),
    (307385, -280391), (329861, -240936),
)
_HOLED_BORDER = ((0, 1, 2, 3, 4, 5, 6), (7, 8, 9))
_HOLED_TRIANGULATIONS = 833

# (kind, n).  Sorted by cost the pool reads star, 9-gon, holed, holed,
# 10-gon: the median falls inside the two (equal-sized) holed jobs and the
# p90 inside the 10-gon, all of fixed count, and a pass is short enough for
# several passes per run.
_ORACLE_POOL = (
    ("convex", 10), ("star", 9), ("holed", 10), ("convex", 9), ("holed", 10),
)
_ORACLE_TINY = (("convex", 7), ("star", 8), ("holed", 10))


def _catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def _oracle_instance(kind: str, n: int, rng: random.Random):
    """The instance and its number of triangulations (None: not known ahead)."""
    if kind == "holed":
        inst = _placed(Instance(_HOLED_POINTS, _HOLED_BORDER), rng)[0]
        return inst, _HOLED_TRIANGULATIONS
    shape = "convex_gon" if kind == "convex" else "random_simple_border"
    inst = generate_instance(GenSpec(seed=_draw(rng), n_points=n, shape=shape))
    return inst, (_catalan(n - 2) if kind == "convex" else None)


def _oracle_job(workdir: Path, kind: str, n: int, rng: random.Random) -> Job:
    inst, count = _oracle_instance(kind, n, rng)
    t1, t2 = _triangulate(inst, rng), _triangulate(inst, rng)
    pi = _write(workdir / "inst.json", formats.serialize_instance(inst))
    p1 = _write(workdir / "t1.json", formats.serialize_triangulation(t1))
    p2 = _write(workdir / "t2.json", formats.serialize_triangulation(t2))
    seq = workdir / "seq.json"
    commands = (
        Command(("enumerate", str(pi))),
        Command(("distance", str(p1), str(p2))),
        Command(("morph", str(p1), str(p2), "-o", str(seq)), seq),
    )
    return Job(f"{kind} n={inst.n}", commands, {"t1": t1, "t2": t2, "count": count})


def build_oracle_sweep(seed: int, workdir: Path, tiny: bool) -> list[Job]:
    rng = random.Random(f"oracle_sweep/{seed}")
    pool = _ORACLE_TINY if tiny else _ORACLE_POOL
    return [
        _oracle_job(workdir / f"oracle{i}", kind, n, rng)
        for i, (kind, n) in enumerate(pool)
    ]


def warmup_oracle_sweep(workdir: Path) -> Job:
    return _oracle_job(workdir / "warmup", "convex", 7, random.Random(0))


def check_oracle_sweep(job: Job, outcome: Outcome) -> None:
    _require_exit_zero(job, outcome)
    t1, t2 = job.facts["t1"], job.facts["t2"]
    enum_out, dist_out, morph_out = (r[1] for r in outcome.results)
    match = re.fullmatch(r"(\d+) triangulations", enum_out.strip())
    if match is None:
        raise CheckFailed(f"unexpected enumerate output {enum_out!r}")
    expected = job.facts["count"]
    if expected is None:
        expected = len(build_flip_graph(t1).nodes)
    if int(match.group(1)) != expected:
        raise CheckFailed(f"enumerate found {match.group(1)}, BFS {expected}")
    distance = int(dist_out)
    steps, crossings = _morph_figures(morph_out, t1.instance)
    if not distance <= steps:
        raise CheckFailed(f"d_f {distance} > steps {steps}")
    if (distance == 0) != (t1.edges == t2.edges):
        raise CheckFailed(f"d_f {distance} disagrees with edge-set equality")
    _check_sequence(outcome.results[2][3], t1, t2, steps, crossings)


# -- registry -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    build: Callable[[int, Path, bool], list[Job]]
    warmup: Callable[[Path], Job]
    check: Callable[[Job, Outcome], None]

    def verify(self, job: Job, outcome: Outcome) -> None:
        """Run the check; output it cannot parse is wrong output too."""
        try:
            self.check(job, outcome)
        except (FlipdistError, ValueError, IndexError) as exc:
            raise CheckFailed(f"malformed output: {type(exc).__name__}: {exc}") from exc


WORKLOADS = {
    "pairs_mixed": Workload(build_pairs_mixed, warmup_pairs_mixed, check_pairs_mixed),
    "morph_large": Workload(build_morph_large, warmup_morph_large, check_morph_large),
    "oracle_sweep": Workload(
        build_oracle_sweep, warmup_oracle_sweep, check_oracle_sweep
    ),
}
