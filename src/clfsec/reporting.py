"""Merging evaluation reports into plot-ready figure data.

Produces one CSV per figure (strength grid in the first column, one series
column per report), a small SVG rendering of each curve set, and an axis
hint file (ROC figures want a logarithmic FAR axis).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .evaluation import EvaluationReport

__all__ = ["merge_reports", "write_figure_bundle", "render_svg"]


def merge_reports(reports: Sequence[EvaluationReport]) -> dict:
    """Union the strength grids of several reports into one table.

    Reports must share a metric; grid points missing from a series are
    left empty.
    """
    metrics = sorted({r.metric for r in reports})
    if len(metrics) > 1:
        raise ValueError(f"reports measure different metrics: {', '.join(metrics)}")
    names = sorted({r.curve.strength_name for r in reports})
    if len(names) > 1:
        raise ValueError(f"reports sweep different strength parameters: {', '.join(names)}")
    grid = sorted({s for r in reports for s in r.curve.strengths})
    series = []
    for r in reports:
        lookup = dict(zip(r.curve.strengths, r.curve.means))
        series.append(
            {
                "name": f"{r.scenario}/{r.classifier}",
                "values": [lookup.get(s) for s in grid],
            }
        )
    return {"metric": metrics[0], "strength_name": names[0], "grid": grid, "series": series}


def _csv_cell(v: str) -> str:
    if any(c in v for c in ',"\r\n'):
        return '"' + v.replace('"', '""') + '"'
    return v


def _merged_csv(merged: dict) -> str:
    header = [_csv_cell(merged["strength_name"])] + [_csv_cell(s["name"]) for s in merged["series"]]
    lines = [",".join(header)]
    for i, g in enumerate(merged["grid"]):
        cells = [repr(g)]
        for s in merged["series"]:
            v = s["values"][i]
            cells.append("" if v is None else repr(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_figure_bundle(reports: Sequence[EvaluationReport], out_dir: str | Path) -> list[Path]:
    """Write merged curve CSV + SVG, and per-report ROC data when present."""
    merged = merge_reports(reports)  # before making out_dir: a rejected merge leaves nothing behind
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    csv_path = out_dir / "security_curves.csv"
    csv_path.write_text(_merged_csv(merged), encoding="utf-8")
    written.append(csv_path)

    curves = []
    for s in merged["series"]:
        pts = [(g, v) for g, v in zip(merged["grid"], s["values"]) if v is not None]
        curves.append((s["name"], [p[0] for p in pts], [p[1] for p in pts]))
    svg_path = out_dir / "security_curves.svg"
    svg_path.write_text(
        render_svg(curves, x_label=merged["strength_name"], y_label=merged["metric"]),
        encoding="utf-8",
    )
    written.append(svg_path)

    hints = {"security_curves": {"x_axis": "linear", "y_axis": "linear"}}
    roc_sets = [(r, name, c) for r in reports for name, c in r.roc_curves.items()]
    if roc_sets:
        roc_csv = out_dir / "roc_curves.csv"
        lines = ["series,far,gar"]
        roc_curves = []
        for r, name, curve in roc_sets:
            series = f"{r.scenario}/{name}"
            fp, tp = curve.fp.tolist(), curve.tp.tolist()  # plain floats: repr of a numpy scalar names its type
            lines.extend(f"{_csv_cell(series)},{f!r},{t!r}" for f, t in zip(fp, tp))
            roc_curves.append((series, fp, tp))
        roc_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(roc_csv)
        roc_svg = out_dir / "roc_curves.svg"
        roc_svg.write_text(
            render_svg(roc_curves, x_label="FAR", y_label="GAR", log_x=True), encoding="utf-8"
        )
        written.append(roc_svg)
        # low-FAR detail is what matters in verification, hence the log axis
        hints["roc_curves"] = {"x_axis": "log", "y_axis": "linear"}

    hints_path = out_dir / "figure_hints.json"
    hints_path.write_text(json.dumps(hints, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    written.append(hints_path)
    return written


# XML-escapes text, and replaces the control characters XML 1.0 cannot hold
# (not xml.sax.saxutils.escape: importing it pulls in urllib.request, about 7 MB)
_XML_TEXT = str.maketrans({
    "&": "&amp;", "<": "&lt;", ">": "&gt;", **{chr(c): "\ufffd" for c in range(32) if chr(c) not in "\t\n\r"}
})
_PALETTE = ("#1f6fb2", "#c23b22", "#2e8b57", "#8a2be2", "#e8a200", "#555555")
_W, _H = 640, 420
_MARGIN = 60


def render_svg(
    curves: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    x_label: str,
    y_label: str,
    log_x: bool = False,
) -> str:
    """Minimal standalone SVG line chart (no plotting dependency)."""
    xs_all = [x for _, xs, _ in curves for x in xs]
    ys_all = [y for _, _, ys in curves for y in ys]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]

    def x_transform(v: float) -> float:
        if log_x:
            floor = min((x for x in xs_all if x > 0), default=1e-6)
            v = np.log10(max(v, floor / 10))
        return v

    tx = [x_transform(v) for v in xs_all]
    x_lo, x_hi = min(tx), max(tx)
    y_lo, y_hi = min(ys_all + [0.0]), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(v: float) -> float:
        return _MARGIN + (x_transform(v) - x_lo) / (x_hi - x_lo) * (_W - 2 * _MARGIN)

    def py(v: float) -> float:
        return _H - _MARGIN - (v - y_lo) / (y_hi - y_lo) * (_H - 2 * _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_W - 2 * _MARGIN}" '
        f'height="{_H - 2 * _MARGIN}" fill="none" stroke="#888"/>',
        f'<text x="{_W / 2:.1f}" y="{_H - 12}" text-anchor="middle">{x_label.translate(_XML_TEXT)}'
        f"{' (log)' if log_x else ''}</text>",
        f'<text x="16" y="{_H / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_H / 2:.1f})">{y_label.translate(_XML_TEXT)}</text>',
    ]
    for idx, (name, xs, ys) in enumerate(curves):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        ly = _MARGIN + 16 + 16 * idx
        parts.append(f'<line x1="{_W - _MARGIN - 150}" y1="{ly - 4}" x2="{_W - _MARGIN - 130}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_W - _MARGIN - 124}" y="{ly}">{name.translate(_XML_TEXT)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
