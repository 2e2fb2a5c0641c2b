"""Byte-deterministic CSV / JSON / SVG emission and run manifests.

Every artifact written here is a pure function of the values that go in:
floats are rendered with their shortest round-trip representation, JSON keys
are sorted, CSV uses comma separators with "\\n" line endings, and the SVG
heatmap is assembled from fixed-format primitives with no library in the
loop.  A RunManifest ties the outputs of one command invocation to a content
hash of its resolved configuration, so identical configs are recognizable by
identical digests (and identical bytes).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from flrwave import __version__ as TOOL_VERSION
from flrwave.bounds import LABELS, RegionMap

__all__ = [
    "clean_for_json",
    "write_files",
    "write_manifest",
    "region_map_svg",
]

REGION_COLORS = {
    "A": "#4c72b0",
    "B": "#dd8452",
    "C": "#55a868",
    "critical_fujita": "#c44e52",
    "critical_pc": "#8172b3",
    "unclassified": "#e8e8e8",
}


def fmt(value) -> str:
    """Shortest round-trip text for a cell value; a numpy scalar is read as
    its Python value."""
    if isinstance(value, np.generic):
        value = value.item()
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def clean_for_json(obj):
    """Recursively map non-finite floats to None (strict JSON) and an Enum to its value."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, dict):
        return {k: clean_for_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [clean_for_json(v) for v in obj]
    return obj


def write_text(path: str, text: str | Iterable[str]) -> None:
    """Write ``text``: a str, or an iterable of str written one at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if isinstance(text, str):
            fh.write(text)
        else:
            fh.writelines(text)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Stream ``rows`` to ``path``, one line each; pre-formatted strings pass
    through ``fmt`` unchanged."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(fmt, row)) + "\n" for row in rows)


def write_json(path: str, payload) -> None:
    write_text(path, json.dumps(clean_for_json(payload), sort_keys=True, indent=2) + "\n")


def write_files(outdir: str, files: dict) -> None:
    """Create ``outdir`` and write ``files`` by content: a ``(header, rows)``
    tuple as CSV, a ``.json`` name's payload as JSON, anything else as text
    (a str, or an iterable of str streamed one at a time)."""
    os.makedirs(outdir, exist_ok=True)
    for name, content in files.items():
        path = os.path.join(outdir, name)
        if isinstance(content, tuple):
            write_csv(path, *content)
        elif name.endswith(".json"):
            write_json(path, content)
        else:
            write_text(path, content)


def config_digest(resolved_config: dict) -> str:
    canonical = json.dumps(
        clean_for_json(resolved_config), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_manifest(outdir: str, command: str, resolved_config: dict, outputs: Sequence[str]) -> str:
    """Write manifest.json next to the outputs; returns the digest."""
    digest = config_digest(resolved_config)
    payload = {
        "command": command,
        "config_digest": digest,
        "tool_version": TOOL_VERSION,
        "outputs": sorted(outputs),
        "config": resolved_config,
    }
    write_json(os.path.join(outdir, "manifest.json"), payload)
    return digest


def _coord(x: float) -> str:
    return f"{x:.2f}"


def _svg_rect(x: float, y: float, w: float, h: float, fill: str) -> str:
    return (
        f'<rect x="{_coord(x)}" y="{_coord(y)}" width="{_coord(w)}" '
        f'height="{_coord(h)}" fill="{fill}"/>'
    )


def _svg_text(x: float, y: float, text: str, size: int = 12, anchor: str = "start") -> str:
    return (
        f'<text x="{_coord(x)}" y="{_coord(y)}" font-family="sans-serif" '
        f'font-size="{size}" text-anchor="{anchor}">{text}</text>'
    )


def _svg_polyline(points: Sequence[tuple]) -> str:
    pts = " ".join(f"{_coord(x)},{_coord(y)}" for x, y in points)
    return (
        f'<polyline points="{pts}" fill="none" stroke="#222222" stroke-width="1" '
        'stroke-dasharray="4,3"/>'
    )


def region_map_svg(rm: RegionMap, title: str) -> str:
    """Self-contained SVG heatmap of a region map.

    Cells sharing a label are merged into vertical run-length rectangles.
    The map's critical curves, ``rm.fujita`` then ``rm.p_c``, are overlaid
    as dashed polylines, broken where a value is not finite (p_c is +inf
    without a root) or leaves the plot.
    """
    v1 = rm.axis1.values()
    v2 = rm.axis2.values()
    left, top, plot_w, plot_h = 70.0, 40.0, 560.0, 480.0
    legend_x = left + plot_w + 20.0
    width, height = legend_x + 150.0, top + plot_h + 50.0

    h1 = rm.axis1.step
    h2 = rm.axis2.step
    x_lo, x_hi = v1[0] - h1 / 2.0, v1[-1] + h1 / 2.0
    y_lo, y_hi = v2[0] - h2 / 2.0, v2[-1] + h2 / 2.0

    def sx(val: float) -> float:
        return left + (val - x_lo) / (x_hi - x_lo) * plot_w

    def sy(val: float) -> float:
        return top + (y_hi - val) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_coord(width)}" '
        f'height="{_coord(height)}" viewBox="0 0 {_coord(width)} {_coord(height)}">',
        _svg_rect(0.0, 0.0, width, height, "#ffffff"),
        _svg_text(left, top - 14.0, title, size=14),
    ]

    names = [label.value for label in LABELS]
    present: list[str] = []
    for a, col in zip(v1, rm.codes):
        # last index of each run of equal labels
        ends = np.flatnonzero(col[1:] != col[:-1]).tolist() + [len(col) - 1]
        j = 0
        for k in ends:
            label = names[col[j]]
            if label not in present:
                present.append(label)
            x0 = sx(a - h1 / 2.0)
            x1 = sx(a + h1 / 2.0)
            y_top = sy(v2[k] + h2 / 2.0)
            y_bot = sy(v2[j] - h2 / 2.0)
            parts.append(_svg_rect(x0, y_top, x1 - x0, y_bot - y_top, REGION_COLORS[label]))
            j = k + 1

    for series in (rm.fujita, rm.p_c):
        seg: list[tuple] = []
        for a, val in zip(v1, series):
            if not y_lo <= val <= y_hi:  # NaN and +-inf fail it too
                if len(seg) >= 2:
                    parts.append(_svg_polyline(seg))
                seg = []
                continue
            seg.append((sx(a), sy(val)))
        if len(seg) >= 2:
            parts.append(_svg_polyline(seg))

    # frame and tick labels at the axis extremes
    parts.append(
        f'<rect x="{_coord(left)}" y="{_coord(top)}" width="{_coord(plot_w)}" '
        f'height="{_coord(plot_h)}" fill="none" stroke="#000000" stroke-width="1"/>'
    )
    parts.append(_svg_text(left, top + plot_h + 16.0, fmt(v1[0]), anchor="middle"))
    parts.append(_svg_text(left + plot_w, top + plot_h + 16.0, fmt(v1[-1]), anchor="middle"))
    parts.append(_svg_text(left + plot_w / 2.0, top + plot_h + 32.0, rm.axis1.name, anchor="middle"))
    parts.append(_svg_text(left - 6.0, top + plot_h, fmt(v2[0]), anchor="end"))
    parts.append(_svg_text(left - 6.0, top + 10.0, fmt(v2[-1]), anchor="end"))
    parts.append(_svg_text(left - 40.0, top + plot_h / 2.0, rm.axis2.name, anchor="middle"))

    y = top
    for label in present:
        parts.append(_svg_rect(legend_x, y, 14.0, 14.0, REGION_COLORS[label]))
        parts.append(_svg_text(legend_x + 20.0, y + 11.0, label))
        y += 20.0

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
