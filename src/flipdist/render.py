"""Deterministic SVG rendering of triangulations, overlays and sequences.

Output uses an SVG 1.1 subset (line, circle, text) and a fixed viewport
mapping, so identical inputs always produce byte-identical documents.
"""

from __future__ import annotations

from typing import Optional

from .morph import FlipSequence
from .triangulation import (
    Instance,
    MutableTriangulation,
    Triangulation,
    require_same_instance,
)

FRAME = 1000.0
MARGIN = 0.05

BASE_STYLE = 'stroke="black" stroke-width="3"'
OVERLAY_STYLE = 'stroke="red" stroke-width="2" stroke-dasharray="8 4"'
BORDER_STYLE = 'stroke="black" stroke-width="5"'


def _mapper(inst: Instance):
    xs = [p[0] for p in inst.points]
    ys = [p[1] for p in inst.points]
    width = max(xs) - min(xs)
    height = max(ys) - min(ys)
    span = max(width, height, 1)
    scale = FRAME * (1 - 2 * MARGIN) / span
    pad = FRAME * MARGIN
    x0, y0 = min(xs), min(ys)

    def to_svg(p, dx=0.0):
        x = pad + (p[0] - x0) * scale + dx
        y = FRAME - pad - (p[1] - y0) * scale
        return f"{x:.2f}", f"{y:.2f}"

    return to_svg


def _frame_lines(
    t: Triangulation,
    overlay: Optional[Triangulation],
    to_svg,
    dx: float,
) -> list[str]:
    inst = t.instance
    out = []
    for e in sorted(t.edges):
        x1, y1 = to_svg(inst.points[e[0]], dx)
        x2, y2 = to_svg(inst.points[e[1]], dx)
        style = BORDER_STYLE if e in inst.border_edges else BASE_STYLE
        out.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {style} />'
        )
    if overlay is not None:
        for e in sorted(overlay.edges - t.edges):
            x1, y1 = to_svg(inst.points[e[0]], dx)
            x2, y2 = to_svg(inst.points[e[1]], dx)
            out.append(
                f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {OVERLAY_STYLE} />'
            )
    for i, p in enumerate(inst.points):
        cx, cy = to_svg(p, dx)
        out.append(f'<circle cx="{cx}" cy="{cy}" r="6" fill="black" />')
        out.append(
            f'<text x="{cx}" y="{cy}" dx="10" dy="-10" font-size="28">{i}</text>'
        )
    return out


def render_svg(
    t: Triangulation,
    overlay: Optional[Triangulation] = None,
    sequence: Optional[FlipSequence] = None,
) -> str:
    """One frame, or one frame per sequence state when a sequence is given."""
    if overlay is not None:
        require_same_instance(t, overlay)
    states = [t]
    if sequence is not None:
        require_same_instance(t, sequence.start)
        states = [sequence.start]
        current = MutableTriangulation(sequence.start)
        for step in sequence.steps:
            current.flip(step.removed)
            states.append(current.freeze())
    to_svg = _mapper(t.instance)
    width = FRAME * len(states)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{FRAME:.0f}" '
        f'viewBox="0 0 {width:.0f} {FRAME:.0f}">',
    ]
    for idx, state in enumerate(states):
        lines.extend(_frame_lines(state, overlay, to_svg, idx * FRAME))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
