"""Per-layer metrics: their definitions and how they are derived from a trace.

Each entry of ``PER_LAYER`` names the metric, its unit, which direction is
better, and the end-to-end metric it is expected to move on which workload
(written down before any optimisation, so a later change can be checked
against the prediction).

Counts are totals over one traced pass of the seed's job pool, so they
repeat exactly for a given seed.  Times are wall milliseconds per job,
averaged over the traced pass.  A ratio whose base is zero on a workload (say,
``oracle.us_per_node`` where no flip graph is built) reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str


_m = LayerMetric


_PARSE_HOT = "job_p50_ref_ms on pairs_mixed and morph_large"
_LOCAL = "job_p50_ref_ms on morph_large and oracle_sweep"
_MORPH = "job_p50_ref_ms on morph_large"
_ORACLE = "job_p50_ref_ms and peak_rss_mb on oracle_sweep"
_AUDIT = "job_p50_ref_ms on pairs_mixed"
_NONE = "nothing: should not move on any workload"

PER_LAYER: tuple[LayerMetric, ...] = (
    _m("cli.self_ms", "ms", "lower", _NONE),
    _m("formats.parse_triangulation_calls", "count", "lower", _NONE),
    _m("formats.parse_ms", "ms", "lower", _NONE),
    _m("formats.serialize_ms", "ms", "lower", _NONE),
    _m("generate.generate_instance_ms", "ms", "lower", "job_p50_ref_ms on pairs_mixed"),
    _m("triangulation.admissible_pairs_calls", "count", "lower", _PARSE_HOT),
    _m("triangulation.admissible_pairs_ms", "ms", "lower", _PARSE_HOT),
    _m("triangulation.validate_calls", "count", "lower", _PARSE_HOT),
    _m("triangulation.validate_ms", "ms", "lower", _PARSE_HOT),
    _m("triangulation.instance_validate_ms", "ms", "lower", _PARSE_HOT),
    _m("triangulation.greedy_triangulate_ms", "ms", "lower", _PARSE_HOT),
    _m("triangulation.faces_calls", "count", "lower", _LOCAL),
    _m("triangulation.faces_ms", "ms", "lower", _LOCAL),
    _m("triangulation.flip_calls", "count", "lower", _LOCAL),
    _m("triangulation.flip_ms", "ms", "lower", _LOCAL),
    _m("triangulation.quadrilateral_of_calls", "count", "lower", _LOCAL),
    _m("triangulation.self_ms", "ms", "lower", "job_p50_ref_ms on every workload"),
    _m("geometry.properly_intersect_calls", "count", "lower", _PARSE_HOT),
    _m("geometry.orient_calls", "count", "lower", _PARSE_HOT),
    _m("geometry.point_on_open_segment_calls", "count", "lower", _PARSE_HOT),
    _m("kernels.crossing_counts_calls", "count", "lower",
       "jobs_per_ref_s on morph_large; nothing on oracle_sweep"),
    _m("kernels.crossing_counts_ms", "ms", "lower",
       "jobs_per_ref_s on morph_large; nothing on oracle_sweep"),
    _m("kernels.cells", "count", "lower",
       "jobs_per_ref_s on morph_large; nothing on oracle_sweep"),
    _m("kernels.int64_fallbacks", "count", "lower", "nothing: 0 on every workload"),
    _m("crossings.count_pair_calls", "count", "lower", _MORPH),
    _m("crossings.count_pair_ms", "ms", "lower", _MORPH),
    _m("crossings.count_segment_calls", "count", "lower", _MORPH),
    _m("crossings.self_ms", "ms", "lower", _MORPH),
    _m("morph.morph_ms", "ms", "lower", _MORPH),
    _m("morph.self_ms", "ms", "lower", _MORPH),
    _m("morph.steps", "count", "lower", _MORPH),
    _m("morph.step_ms", "ms", "lower", _MORPH),
    _m("morph.count_pair_per_step", "count/step", "lower", _MORPH),
    _m("morph.faces_per_step", "count/step", "lower", _MORPH),
    _m("morph.steps_per_crossing", "ratio", "lower",
       "nothing: the useful-outcome ratio of the morph must not change"),
    _m("oracle.build_flip_graph_calls", "count", "lower", _ORACLE),
    _m("oracle.build_flip_graph_ms", "ms", "lower", _ORACLE),
    _m("oracle.nodes", "count", "lower", _ORACLE),
    _m("oracle.arcs", "count", "lower", _ORACLE),
    _m("oracle.us_per_node", "us", "lower", _ORACLE),
    _m("oracle.enumerate_ms", "ms", "lower", _ORACLE),
    _m("oracle.distance_over_steps", "ratio", "higher",
       "nothing: how tight the morph is against the exact distance"),
    _m("oracle.self_ms", "ms", "lower", _ORACLE),
    _m("lemmas.audit_propositions_ms", "ms", "lower", _AUDIT),
    _m("lemmas.audit_lemma1_ms", "ms", "lower", _AUDIT),
    _m("lemmas.audit_lemma2_ms", "ms", "lower", _AUDIT),
    _m("lemmas.audit_lemma2_2_ms", "ms", "lower", _AUDIT),
    _m("lemmas.checks_pass", "count", "higher", "nothing: exact count"),
    _m("lemmas.checks_skip", "count", "lower", "nothing: exact count"),
    _m("lemmas.self_ms", "ms", "lower", _AUDIT),
    _m("trace.overhead_ratio", "ratio", "higher",
       "nothing: traced over untraced wall-clock throughput on the same pass"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(tracer, jobs: int, overhead_ratio: float) -> dict[str, float]:
    """Every ``PER_LAYER`` value from one traced pass of ``jobs`` jobs."""
    calls, total, own, vals = (
        tracer.calls, tracer.total, tracer.self_time, tracer.values
    )

    def ms(seconds: float) -> float:
        return _ratio(seconds * 1000.0, jobs)

    def layer_self(layer: str) -> float:
        return ms(sum(v for k, v in own.items() if k.startswith(layer + ".")))

    parse = [k for k in own if k.startswith("formats.parse_")]
    serialize = [k for k in total if k.startswith("formats.serialize_")]
    steps = vals["morph.steps"]
    out = {
        "cli.self_ms": layer_self("cli"),
        "formats.parse_triangulation_calls": calls["formats.parse_triangulation"],
        "formats.parse_ms": ms(sum(own[k] for k in parse)),
        "formats.serialize_ms": ms(sum(total[k] for k in serialize)),
        "generate.generate_instance_ms": ms(total["generate.generate_instance"]),
        "triangulation.self_ms": layer_self("triangulation"),
        "triangulation.instance_validate_ms": ms(
            total["triangulation.instance_validate"]
        ),
        "geometry.properly_intersect_calls": calls["geometry.properly_intersect"],
        "geometry.orient_calls": calls["geometry.orient"],
        "geometry.point_on_open_segment_calls": calls[
            "geometry.point_on_open_segment"
        ],
        "kernels.cells": vals["kernels.cells"],
        "kernels.int64_fallbacks": vals["kernels.int64_fallbacks"],
        "crossings.count_segment_calls": calls["crossings.count_segment"],
        "crossings.self_ms": layer_self("crossings"),
        "morph.self_ms": layer_self("morph"),
        "morph.steps": steps,
        "morph.step_ms": _ratio(total["morph.morph"] * 1000.0, steps),
        "morph.count_pair_per_step": _ratio(
            tracer.in_morph["crossings.count_pair"], steps
        ),
        "morph.faces_per_step": _ratio(tracer.in_morph["triangulation.faces"], steps),
        "morph.steps_per_crossing": _ratio(steps, vals["morph.crossings"]),
        "oracle.nodes": vals["oracle.nodes"],
        "oracle.arcs": vals["oracle.arcs"],
        "oracle.us_per_node": _ratio(
            total["oracle.build_flip_graph"] * 1e6, vals["oracle.nodes"]
        ),
        "oracle.enumerate_ms": ms(total["oracle.enumerate_triangulations_direct"]),
        "oracle.distance_over_steps": _ratio(vals["oracle.distance"], steps),
        "oracle.self_ms": layer_self("oracle"),
        "lemmas.checks_pass": vals["lemmas.checks_pass"],
        "lemmas.checks_skip": vals["lemmas.checks_skip"],
        "lemmas.self_ms": layer_self("lemmas"),
        "trace.overhead_ratio": overhead_ratio,
    }
    for metric in PER_LAYER:
        if metric.name in out:
            continue
        span, _, kind = metric.name.rpartition("_")
        if kind == "calls":
            out[metric.name] = calls[span]
        elif kind == "ms":
            out[metric.name] = ms(total[span])
        else:
            raise KeyError(metric.name)
    return out
