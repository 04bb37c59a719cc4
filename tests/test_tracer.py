"""The benchmark's tracer resolves every name it wraps in the package.

``perfbench/tracing.py`` looks up each wrapped function by module and name
when a ``Tracer`` is constructed, so a renamed or deleted function fails
here, without a benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

import flipdist.cli  # noqa: F401  (imports every module the tracer wraps)
from flipdist import crossings

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_wrapped_name():
    tracing = _tracing()
    tracer = tracing.Tracer()
    patched = {attr for _, attr, _, _ in tracer._patches}
    wrapped = (
        {attr for _, attr, _, _ in tracing.SPANS}
        | {attr for _, attr, _ in tracing.COUNTED}
        | {attr for attr, _ in tracing.METHOD_SPANS}
    )
    assert wrapped <= patched


def test_tracer_fails_on_a_deleted_name(monkeypatch):
    monkeypatch.delattr(crossings, "count_segment")
    with pytest.raises(AttributeError):
        _tracing().Tracer()
