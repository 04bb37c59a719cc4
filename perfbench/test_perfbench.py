"""Checks of the benchmark itself, on tiny pools.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.load_program()
BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Hash seeds for the runs made in fresh processes: each differs from this
# process's, so that output depending on set or dict order over strings shows.
HASH_SEEDS = [s for s in ("1", "2", "3") if s != os.environ.get("PYTHONHASHSEED")][:2]


def _argv(workload: str, trace: int, seed: int = 5) -> list[str]:
    return ["--workload", workload, "--seed", str(seed), "--seconds", "0"] + [
        "--trace", str(trace), "--tiny"
    ]


def _parsed(stdout: str):
    """The result object and the digest line of one run's output."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next(line for line in lines if line.startswith("digest = "))
    assert result["correct"] and result["failed"] == 0, lines
    return result, digest


def _run(capsys, workload: str, trace: int):
    """Run one tiny benchmark in this process."""
    assert run.main(_argv(workload, trace)) == 0
    return _parsed(capsys.readouterr().out)


def _run_fresh(workload: str, trace: int, hash_seed: str):
    """Run one tiny benchmark in a fresh process under another hash seed."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    child = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *_argv(workload, trace)],
        cwd=BENCH.parent,
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert child.returncode == 0, child.stderr
    return _parsed(child.stdout)


def test_spec_lists_the_workloads_and_layers():
    import layers
    import workloads

    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)
    assert SPEC["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in layers.PER_LAYER
    ]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_printed_metrics_match_spec(capsys, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, _ = _run(capsys, workload, trace)
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in SPEC[key]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_and_tracing_changes_no_output(capsys, workload):
    import layers

    exact = [
        m.name
        for m in layers.PER_LAYER
        if m.unit not in ("ms", "us") and m.name != "trace.overhead_ratio"
    ]
    first, first_digest = _run(capsys, workload, 1)
    second, second_digest = _run_fresh(workload, 1, HASH_SEEDS[0])
    assert first_digest == second_digest
    assert {k: first["metrics"][k] for k in exact} == {
        k: second["metrics"][k] for k in exact
    }
    assert first["metrics"]["kernels.int64_fallbacks"]["value"] == 0
    _, plain_digest = _run_fresh(workload, 0, HASH_SEEDS[1])
    assert plain_digest == first_digest


def test_malformed_output_is_a_failed_check():
    import workloads

    commands = tuple(workloads.Command((name,)) for name in ("enumerate", "distance", "morph"))
    job = workloads.Job("oracle", commands, {"t1": None, "t2": None, "count": 5})
    outputs = ("5 triangulations\n", "not a number\n", "")
    outcome = workloads.Outcome(0.0, [(0, out, "", b"") for out in outputs])
    with pytest.raises(workloads.CheckFailed, match="malformed output"):
        workloads.WORKLOADS["oracle_sweep"].verify(job, outcome)


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    argv = ["--workload", "pairs_mixed", "--seed", "1", "--seconds", "1"]
    assert run.main(argv) == 2
    assert capsys.readouterr().out == ""
