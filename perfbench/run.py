"""Closed-loop benchmark of the flipdist command line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload pairs_mixed --seed 1 --seconds 30 --trace 0

One process, one client, one job at a time, no extra threads.  The seed
makes the job pool (see ``workloads.py``); the program reads only the files
generated from it.  Jobs run in whole passes over the pool until
``--seconds`` of wall time have gone by.  Every job's output is checked
before it counts; a job's later runs must reproduce its first run's bytes.

Job times are reported in reference milliseconds (``ref_ms``): a job's wall
time divided by the wall time of a fixed pure-Python reference loop timed
around it, times ``REF_MS``.  On a shared machine whose speed drifts by tens
of percent within a minute, that ratio holds still where wall time does not.
The wall-clock figures are printed too, on a human-readable line before the
result.

``setup_s`` is wall seconds from process start to the end of set-up: imports,
input generation, the input checks and one warm-up job.  Every repetition is
a cold start: the run's own set-up and, one after the other, those of fresh
processes of this script (``--setup-only``), at least ``SETUP_MIN_REPEATS``
in all and more while they sum to under ``SETUP_SECONDS``, up to
``SETUP_MAX_REPEATS``; the median is reported.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untraced
and one traced pass and prints the per-layer metrics (``layers.py``), and
writes the kept spans to ``perfbench/.out/``.  Human-readable lines come
first; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 11
SETUP_SECONDS = 2.5

END_TO_END_UNITS = {
    "jobs_per_ref_s": "1/ref_s",
    "job_p50_ref_ms": "ref_ms",
    "job_p90_ref_ms": "ref_ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# One run of the reference loop is REF_MS reference milliseconds.  A job is
# scaled by the median of the reference timings nearest to it: the two
# before it and the two after.
REF_MS = 4.0
_REF_NEAR = 2
_REF_POINTS = tuple(
    (rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
    for rng in [random.Random(0)]
    for _ in range(40)
)

# The loop is one client running one job at a time; keep numpy's math
# libraries from starting worker threads of their own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


class ProgramMissing(Exception):
    """The checkout holds no flipdist sources to benchmark."""


def load_program() -> None:
    """Import flipdist from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "flipdist" / "cli.py").is_file():
        raise ProgramMissing(f"no flipdist sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import flipdist.cli

    if Path(flipdist.cli.__file__).resolve().parent != SRC / "flipdist":
        raise ProgramMissing(f"flipdist imported from {flipdist.cli.__file__}")


def reference_loop() -> float:
    """Seconds for one run of a fixed pure-Python loop: integer orientation
    determinants over point triples and dict writes, the same kind of work
    as flipdist's hot paths but none of its code."""
    pts = _REF_POINTS
    start = time.perf_counter()
    seen = {}
    count = 0
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            for r in pts[::4]:
                if (q[0] - p[0]) * (r[1] - p[1]) > (q[1] - p[1]) * (r[0] - p[0]):
                    count += 1
            seen[p, q] = count
    return time.perf_counter() - start


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=["pairs_mixed", "morph_large", "oracle_sweep"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny pools, for tests")
    parser.add_argument(
        "--setup-only", action="store_true", help="set up, print the seconds, exit"
    )
    return parser.parse_args(argv)


def _environment(seed: int) -> dict:
    import numpy
    from flipdist import kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel": kernels.active_kernel(),
        "FLIPDIST_KERNEL": os.environ.get(kernels.KERNEL_ENV, ""),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


class Loop:
    """Runs passes over a job pool, checks outputs and keeps the tallies.

    The reference loop is timed before the first job and after every job;
    ``refs[a]`` is the timing just before attempt ``a``.
    """

    def __init__(self, workload, jobs):
        self.workload = workload
        self.jobs = jobs
        self.samples: list[tuple[int, int, float]] = []  # (job, attempt, seconds)
        self.refs = [reference_loop()]
        self.attempted = 0
        self.failed = 0
        self.reference: dict[int, bytes] = {}
        self.wrong: set[int] = set()
        self.messages: list[str] = []

    def _fail(self, index: int, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(f"job {index} ({self.jobs[index].label}): {message}")

    def run_pass(self, tracer=None) -> tuple[str, float, int]:
        """One pass: (digest of all outputs, seconds in jobs, jobs verified)."""
        from workloads import CheckFailed, run_job

        digest = hashlib.sha256()
        seconds = 0.0
        verified = 0
        for index, job in enumerate(self.jobs):
            attempt = self.attempted
            self.attempted += 1
            try:
                outcome = run_job(job, tracer, index)
            except Exception as exc:  # the program crashed: a failed job
                digest.update(b"crash")
                self._fail(index, f"{type(exc).__name__}: {exc}")
                continue
            finally:
                self.refs.append(reference_loop())
            seconds += outcome.seconds
            job_digest = outcome.digest()
            digest.update(job_digest)
            if index not in self.reference:
                self.reference[index] = job_digest
                try:
                    self.workload.verify(job, outcome)
                except CheckFailed as exc:
                    self.wrong.add(index)
                    self._fail(index, str(exc))
                    continue
            elif job_digest != self.reference[index]:
                self._fail(index, "output differs from the job's first run")
                continue
            elif index in self.wrong:
                self._fail(index, "same wrong output as its first run")
                continue
            verified += 1
            self.samples.append((index, attempt, outcome.seconds))
        return digest.hexdigest(), seconds, verified

    def scaled(self) -> list[tuple[int, float]]:
        """(job, reference ms) for every verified run."""
        out = []
        for index, attempt, seconds in self.samples:
            near = self.refs[max(0, attempt + 1 - _REF_NEAR) : attempt + 1 + _REF_NEAR]
            out.append((index, seconds / statistics.median(near) * REF_MS))
        return out


def _setup(workload, seed: int, base: Path, tiny: bool):
    """Build the pool, check its inputs and run one warm-up job."""
    from workloads import run_job

    jobs = workload.build(seed, base, tiny)
    warm = workload.warmup(base)
    workload.verify(warm, run_job(warm))
    return jobs


def _setup_times(args, first: float) -> list[float]:
    """``first``, this run's set-up seconds, and those of fresh processes
    run one at a time after it.

    A short set-up is repeated more often: its cold-start time swings by a
    third within seconds on a shared machine.
    """
    from workloads import CheckFailed

    argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload]
    argv += ["--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    argv += ["--tiny"] if args.tiny else []
    times = [first]
    while len(times) < SETUP_MAX_REPEATS and (
        len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_SECONDS
    ):
        try:
            child = subprocess.run(argv, capture_output=True, text=True, timeout=150)
        except subprocess.TimeoutExpired as exc:
            raise CheckFailed(f"cold set-up took over {exc.timeout} s") from exc
        if child.returncode != 0:
            raise CheckFailed(f"cold set-up exited {child.returncode}: {child.stderr.strip()}")
        times.append(json.loads(child.stdout.splitlines()[-1])["setup_s"])
    return times


def _latency_figures(samples: list[tuple[int, float]]) -> tuple[float, float, float]:
    """Throughput, p50 and p90 from (job, latency) samples.

    Throughput is the pool size over the sum of each job's median latency
    across the passes, so a stretch of the run that went slow moves it as
    little as it moves the p50.
    """
    lat = sorted(value for _, value in samples)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    per_job: dict[int, list[float]] = {}
    for index, value in samples:
        per_job.setdefault(index, []).append(value)
    typical = sum(statistics.median(v) for v in per_job.values())
    return len(per_job) / typical, statistics.median(lat), p90


def _timed(loop: Loop, seconds: float, setup_s: float):
    """Whole passes until ``seconds`` of wall time have gone by."""
    start = time.perf_counter()
    digest = None
    while True:
        pass_digest, _, _ = loop.run_pass()
        digest = digest or pass_digest
        if time.perf_counter() - start >= seconds:
            break
    if not loop.samples:
        return {}, digest, False
    scaled = loop.scaled()
    per_ref_ms, p50, p90 = _latency_figures(scaled)
    wall_per_s, wall_p50, wall_p90 = _latency_figures(
        [(index, s * 1000.0) for index, _, s in loop.samples]
    )
    above = sum(1 for _, value in scaled if value > p90)
    print(f"jobs = {len(scaled)} verified, {above} above p90")
    print(f"reference loop = {statistics.median(loop.refs) * 1000.0:.4g} ms (median)")
    print(
        f"wall clock: jobs_per_s = {wall_per_s * 1000.0:.6g} 1/s, "
        f"job_p50_ms = {wall_p50:.6g} ms, job_p90_ms = {wall_p90:.6g} ms"
    )
    values = {
        "jobs_per_ref_s": per_ref_ms * 1000.0,
        "job_p50_ref_ms": p50,
        "job_p90_ref_ms": p90,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: (values[k], unit) for k, unit in END_TO_END_UNITS.items()}, digest, True


def _traced(loop: Loop, workload: str, seed: int):
    """One untraced pass, then the same pass traced; per-layer metrics."""
    import layers
    import tracing

    plain_digest, plain_s, plain_ok = loop.run_pass()
    tracer = tracing.Tracer()
    origin = time.perf_counter()
    digest, traced_s, traced_ok = loop.run_pass(tracer)
    same = digest == plain_digest
    if not same:
        print("error: tracing changed the outputs", file=sys.stderr)
    overhead = (traced_ok * plain_s) / (plain_ok * traced_s) if plain_ok and traced_s else 0.0
    values = layers.derive(tracer, len(loop.jobs), overhead)
    spans = BENCH / ".out" / f"trace-{workload}-seed{seed}.jsonl"
    tracer.write_spans(spans, origin)
    print(f"spans = {spans.relative_to(BENCH.parent)} ({len(tracer.spans)} kept)")
    return {m.name: (values[m.name], m.unit) for m in layers.PER_LAYER}, digest, same


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> int:
    """Print the result object as the last line; the exit code to return."""
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    """Run one workload and print its metrics."""
    args = _parse(argv)
    try:
        load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import workloads
    from flipdist.errors import FlipdistError

    workload = workloads.WORKLOADS[args.workload]
    base = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        try:
            jobs = _setup(workload, args.seed, base, args.tiny)
            setup_s = time.perf_counter() - _STARTED
            if args.setup_only:
                print(json.dumps({"setup_s": setup_s}), flush=True)
                return 0
            if not args.trace:
                setups = _setup_times(args, setup_s)
                setup_s = statistics.median(setups)
                print(f"set-up = median of {len(setups)} cold starts")
        except (workloads.CheckFailed, FlipdistError) as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return _result(False, 1, 1, {})
        loop = Loop(workload, jobs)
        if args.trace:
            metrics, digest, ok = _traced(loop, args.workload, args.seed)
        else:
            metrics, digest, ok = _timed(loop, args.seconds, setup_s)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    for message in loop.messages:
        print(f"failed: {message}", file=sys.stderr)
    if not metrics:
        print("error: no job passed its checks", file=sys.stderr)

    print(f"workload = {args.workload}")
    print("env = " + json.dumps(_environment(args.seed), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {loop.failed / loop.attempted:.6g} of {loop.attempted} jobs")
    print(f"digest = sha256:{digest}")
    return _result(ok and loop.failed == 0, loop.attempted, loop.failed, metrics)


if __name__ == "__main__":
    sys.exit(main())
