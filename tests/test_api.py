"""The package's public names."""

import importlib
from pathlib import Path

import flipdist
from flipdist.triangulation import Instance


def test_all_names_resolve():
    assert len(set(flipdist.__all__)) == len(flipdist.__all__)
    for name in flipdist.__all__:
        assert getattr(flipdist, name) is not None, name


def test_star_import():
    namespace: dict = {}
    exec("from flipdist import *", namespace)
    assert set(flipdist.__all__) <= set(namespace)


def test_benchmark_trace_targets_resolve():
    """Every function the benchmark's tracer wraps by name still exists, so a
    rename fails here rather than only in the benchmark's own test."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tracing = {"__name__": "perfbench_tracing"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracing)
    for module, attr, *_ in tracing["SPANS"] + tracing["COUNTED"]:
        target = getattr(importlib.import_module(f"flipdist.{module}"), attr, None)
        assert callable(target), (module, attr)
    for attr, _ in tracing["METHOD_SPANS"]:
        assert callable(Instance.__dict__.get(attr)), attr
