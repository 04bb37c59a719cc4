"""Spans and counters around calls into flipdist's modules.

The traced run installs wrappers over public functions of each layer for the
duration of one job and removes them afterwards; the untraced run installs
nothing.  Every reference to a wrapped function inside the ``flipdist``
package is replaced (``from .triangulation import flip`` binds ``flip`` in
the importing module too), so calls between layers are seen as well as the
calls the CLI makes.

For each wrapped name the tracer keeps, in memory: the number of calls, the
inclusive time, and the self time (a span's duration minus the part of it
covered by child spans).  Spans of functions called thousands of times per
job (``faces``, ``flip``, ``quadrilateral_of``, ``count_segment``) are only
aggregated; every other span is also kept as ``(job, name, start, end,
parent)`` and written out by :meth:`Tracer.write_spans`.  The geometric
predicates are only counted.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from flipdist import lemmas
from flipdist.triangulation import Instance

# (module, attribute, span name, hot).  A hot span is aggregated only.
SPANS = (
    ("cli", "run", "cli.run", False),
    ("formats", "parse_instance", "formats.parse_instance", False),
    ("formats", "parse_triangulation", "formats.parse_triangulation", False),
    ("formats", "parse_sequence", "formats.parse_sequence", False),
    ("formats", "serialize_instance", "formats.serialize_instance", False),
    ("formats", "serialize_triangulation", "formats.serialize_triangulation", False),
    ("formats", "serialize_sequence", "formats.serialize_sequence", False),
    ("generate", "generate_instance", "generate.generate_instance", False),
    ("triangulation", "validate", "triangulation.validate", False),
    ("triangulation", "greedy_triangulate", "triangulation.greedy_triangulate", False),
    ("triangulation", "faces", "triangulation.faces", True),
    ("triangulation", "flip", "triangulation.flip", True),
    ("triangulation", "quadrilateral_of", "triangulation.quadrilateral_of", True),
    ("kernels", "crossing_counts", "kernels.crossing_counts", False),
    ("crossings", "count_pair", "crossings.count_pair", False),
    ("crossings", "count_segment", "crossings.count_segment", True),
    ("morph", "morph", "morph.morph", False),
    ("oracle", "build_flip_graph", "oracle.build_flip_graph", False),
    ("oracle", "exact_flip_distance", "oracle.exact_flip_distance", False),
    (
        "oracle",
        "enumerate_triangulations_direct",
        "oracle.enumerate_triangulations_direct",
        False,
    ),
    ("lemmas", "audit_propositions", "lemmas.audit_propositions", False),
    ("lemmas", "audit_lemma1", "lemmas.audit_lemma1", False),
    ("lemmas", "audit_lemma2", "lemmas.audit_lemma2", False),
    ("lemmas", "audit_lemma2_2", "lemmas.audit_lemma2_2", False),
)

# Methods of Instance, patched on the class.
METHOD_SPANS = (
    ("admissible_pairs", "triangulation.admissible_pairs"),
    ("validate", "triangulation.instance_validate"),
)

COUNTED = (
    ("geometry", "orient", "geometry.orient"),
    ("geometry", "properly_intersect", "geometry.properly_intersect"),
    ("geometry", "point_on_open_segment", "geometry.point_on_open_segment"),
    ("kernels", "int64_safe", "kernels.int64_safe"),
)

# Calls inside this span are also counted apart, for the per-step ratios.
_MORPH_SPAN = "morph.morph"


def _audit_checks(vals, args, report) -> None:
    vals["lemmas.checks_pass"] += report.count(lemmas.PASS)
    vals["lemmas.checks_skip"] += report.count(lemmas.SKIP)


def _morph_steps(vals, args, seq) -> None:
    vals["morph.steps"] += len(seq.steps)
    if seq.steps:
        vals["morph.crossings"] += seq.steps[0].before


def _graph_size(vals, args, graph) -> None:
    vals["oracle.nodes"] += len(graph.nodes)
    vals["oracle.arcs"] += sum(len(a) for a in graph.adjacency)


def _cells(vals, args, counts) -> None:
    vals["kernels.cells"] += len(args[0]) * len(args[1])


def _fallback(vals, args, safe) -> None:
    vals["kernels.int64_fallbacks"] += not safe


def _distance(vals, args, d) -> None:
    vals["oracle.distance"] += d


# Counters read from a call's arguments or result, by span name.
_OBSERVERS = {
    "kernels.crossing_counts": _cells,
    "kernels.int64_safe": _fallback,
    "morph.morph": _morph_steps,
    "oracle.build_flip_graph": _graph_size,
    "oracle.exact_flip_distance": _distance,
    "lemmas.audit_propositions": _audit_checks,
    "lemmas.audit_lemma1": _audit_checks,
    "lemmas.audit_lemma2": _audit_checks,
    "lemmas.audit_lemma2_2": _audit_checks,
}


class Tracer:
    """Wrappers, in-memory spans and aggregates for one traced pass."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.in_morph: dict[str, int] = defaultdict(int)
        self.values: dict[str, int] = defaultdict(int)
        self.spans: list[list] = []
        self.job = -1
        self._stack: list[list] = []
        self._morph_depth = 0
        self._patches: list[tuple[object, str, object, object]] = []
        self._plan()

    # -- installation -------------------------------------------------------

    def _plan(self) -> None:
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if (key == "flipdist" or key.startswith("flipdist.")) and m is not None
        ]
        for mod_name, attr, name, hot in SPANS:
            original = getattr(sys.modules[f"flipdist.{mod_name}"], attr)
            self._patch_everywhere(modules, original, self._span(name, original, hot))
        for mod_name, attr, name in COUNTED:
            original = getattr(sys.modules[f"flipdist.{mod_name}"], attr)
            self._patch_everywhere(modules, original, self._count(name, original))
        for attr, name in METHOD_SPANS:
            original = Instance.__dict__[attr]
            self._patches.append(
                (Instance, attr, original, self._span(name, original, False))
            )

    def _patch_everywhere(self, modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original, wrapper))

    def install(self, job: int) -> None:
        self.job = job
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- wrappers -----------------------------------------------------------

    def _count(self, name: str, fn):
        calls = self.calls
        observe = _OBSERVERS.get(name)

        def counted(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if observe:
                observe(self.values, args, result)
            return result

        return counted

    def _span(self, name: str, fn, hot: bool):
        perf = time.perf_counter
        stack = self._stack
        spans = self.spans
        observe = _OBSERVERS.get(name)
        is_morph = name == _MORPH_SPAN

        def traced(*args, **kwargs):
            if self._morph_depth:
                self.in_morph[name] += 1
            parent = stack[-1][2] if stack else -1
            if hot:
                index = parent
            else:
                index = len(spans)
                spans.append([self.job, name, 0.0, 0.0, parent])
            if is_morph:
                self._morph_depth += 1
            frame = [perf(), 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                if is_morph:
                    self._morph_depth -= 1
                duration = end - frame[0]
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if not hot:
                    spans[index][2] = frame[0]
                    spans[index][3] = end
            if observe:
                observe(self.values, args, result)
            return result

        return traced

    # -- output -------------------------------------------------------------

    def write_spans(self, path: Path, origin: float) -> None:
        """One JSON object per kept span, times in ms from ``origin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for job, name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "job": job,
                            "name": name,
                            "start_ms": round((start - origin) * 1000.0, 4),
                            "end_ms": round((end - origin) * 1000.0, 4),
                            "parent": parent,
                        }
                    )
                    + "\n"
                )
