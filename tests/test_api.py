"""The package's public names."""

import ast
import importlib
from collections import Counter
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


# Public names that nothing in the package calls, kept because the
# benchmark's tracer or workloads read them.
BENCHMARK_HELD = {
    "count_segment",
    "crossing_counts",
    "FlipSequence.replay",
    "FlipGraph.adjacency",
    "Triangulation.interior_array",
}


def _public_definitions(tree: ast.Module):
    """(qualified name, name, node) of every public module-level function
    and class in ``tree``, and of every public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
            yield node.name, node.name, node
            methods = node.body if isinstance(node, ast.ClassDef) else []
            for sub in methods:
                if isinstance(sub, ast.FunctionDef) and sub.name[0] != "_":
                    yield f"{node.name}.{sub.name}", sub.name, sub


def _reads(tree: ast.AST) -> Counter:
    """How often ``tree`` reads each name: as a name, an attribute, an
    imported name or a whole string constant (``__all__``)."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def test_every_public_name_has_a_caller_in_the_package():
    """Every public function, class and method of the package is read
    somewhere in the package outside its own definition, apart from the
    entry points that only the benchmark holds."""
    src = Path(__file__).resolve().parents[1] / "src" / "flipdist"
    trees = [
        ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(src.glob("*.py"))
    ]
    reads = sum(map(_reads, trees), Counter())
    unread = {
        qualified
        for tree in trees
        for qualified, name, node in _public_definitions(tree)
        if reads[name] == _reads(node)[name]
    }
    assert unread == BENCHMARK_HELD


def test_benchmark_held_names_are_read_by_the_benchmark():
    """Every name ``BENCHMARK_HELD`` allows is read somewhere under
    perfbench/, so the allowlist fails the moment the benchmark stops
    holding one."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    reads = sum(
        (
            _reads(ast.parse(path.read_text(encoding="utf-8"), str(path)))
            for path in sorted(bench.glob("*.py"))
        ),
        Counter(),
    )
    assert {q for q in BENCHMARK_HELD if not reads[q.rpartition(".")[2]]} == set()
