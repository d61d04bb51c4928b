"""Standalone SVG rendering of result documents.

Draws each block's tour as a closed polyline in its own stroke color,
split diagonals dashed, and input points as dots.  Output is a single
self-contained SVG file with no external assets.
"""

from __future__ import annotations

import math
import sys

from .geometry import _unit_scale

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#e377c2",
)

_CANVAS = 640.0
_MARGIN_FRAC = 0.06
_QUOTED = 80  # characters of an offending value that an error quotes


def _quoted(value) -> str:
    """``repr(value)``, clipped to ``_QUOTED`` characters."""
    text = repr(value)
    return text if len(text) <= _QUOTED else text[:_QUOTED] + "..."


def _coerce_xy(value) -> tuple[float, float]:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(
            # JSON true and false are ints to isinstance, but not numbers
            isinstance(c, (int, float))
            and not isinstance(c, bool)
            # a bound, not math.isfinite, which overflows on an int past the float range
            and abs(c) <= sys.float_info.max
            for c in value
        )
    ):
        raise ValueError(f"expected an [x, y] pair of finite numbers, got {_quoted(value)}")
    return float(value[0]), float(value[1])


def _as_list(value, what: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a list of [x, y] pairs, got {_quoted(value)}")
    return value


def render_svg(document: dict) -> str:
    """Render a tsp/split result document as an SVG string.

    Raises ValueError when the document lacks the expected structure.
    """
    if not isinstance(document, dict):
        raise ValueError("result document must be a JSON object")
    blocks = document.get("blocks")
    if not isinstance(blocks, list) or not blocks:
        raise ValueError("result document has no blocks to draw")
    diagonals = document.get("diagonals", [])
    if not isinstance(diagonals, list):
        raise ValueError("diagonals must be a list of point pairs")

    tours: list[list[tuple[float, float]]] = []
    dots: list[tuple[float, float]] = []
    for block in blocks:
        if not isinstance(block, dict) or "tour" not in block:
            raise ValueError("each block needs a 'tour' vertex list")
        tour = [_coerce_xy(v) for v in _as_list(block["tour"], "a block's tour")]
        if not tour:
            raise ValueError("block tours must be nonempty")
        tours.append(tour)
        dots.extend(_coerce_xy(v) for v in _as_list(block.get("points", []), "a block's points"))
    cuts = [tuple(_coerce_xy(v) for v in _as_list(pair, "a diagonal")) for pair in diagonals]
    for cut in cuts:
        if len(cut) != 2:
            raise ValueError("each diagonal needs exactly two endpoints")

    xs = [p[0] for tour in tours for p in tour] + [p[0] for p in dots]
    ys = [p[1] for tour in tours for p in tour] + [p[1] for p in dots]
    for a, b in cuts:
        xs.extend((a[0], b[0]))
        ys.extend((a[1], b[1]))
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    span = max(xmax - xmin, ymax - ymin)
    if span == math.inf:
        raise ValueError("the coordinates span more than the float range")
    # Offsets from the corner are scaled by the power of two that brings the
    # span into [0.5, 1), exactly, so every scale draws the same pixels.
    s = _unit_scale(span) if span else 1.0
    span = span * s if span else 1e-9
    margin = span * _MARGIN_FRAC
    scale = _CANVAS / (span + 2.0 * margin)
    width = ((xmax - xmin) * s + 2.0 * margin) * scale
    height = ((ymax - ymin) * s + 2.0 * margin) * scale

    def to_px(p: tuple[float, float]) -> tuple[float, float]:
        # flip y so the drawing matches mathematical orientation
        return (
            ((p[0] - xmin) * s + margin) * scale,
            ((ymax - p[1]) * s + margin) * scale,
        )

    def fmt(points: list[tuple[float, float]]) -> str:
        return " ".join(f"{x:.3f},{y:.3f}" for x, y in (to_px(p) for p in points))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.3f} {height:.3f}">',
        f'<rect width="{width:.3f}" height="{height:.3f}" fill="#ffffff"/>',
    ]
    for i, tour in enumerate(tours):
        color = PALETTE[i % len(PALETTE)]
        parts.append(
            f'<polygon points="{fmt(tour)}" fill="none" stroke="{color}" '
            'stroke-width="2"/>'
        )
    for a, b in cuts:
        (x1, y1), (x2, y2) = to_px(a), to_px(b)
        parts.append(
            f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
            'stroke="#555555" stroke-width="1.5" stroke-dasharray="6 4"/>'
        )
    for p in dots:
        x, y = to_px(p)
        parts.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="3" fill="#111111"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
