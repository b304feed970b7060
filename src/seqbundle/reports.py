"""File emission for evaluation runs: JSON, CSV, and dependency-free SVG charts.

Every writer is byte-deterministic for a given input: keys are sorted, floats
go through repr (a CSV cell as ``repr(float(v))``, numpy scalars included), CSV
rows use "\n" endings, and nothing embeds a timestamp.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .domain import OUTCOME_ORDER
from .errors import ConstraintViolation
from .evalkit import (
    EvaluationReport,
    PlaylistSummary,
    confusion_normalized,
    hit_rate_cdf,
)

PALETTE = ("#1f6f8b", "#c05746", "#5a7d2a", "#7a4fa3", "#b8860b", "#3b3b3b")


def write_json(path: Path | str, payload: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, indent=2, sort_keys=True)
    path.write_text(text + "\n", encoding="utf-8")
    return path


def _cell(value):
    return repr(float(value)) if isinstance(value, (float, np.floating)) else value


def write_csv(path: Path | str, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Every float-like cell is written as ``repr(float(v))``; ints, strings
    and the rest as the csv module writes them (None as an empty cell)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(value) for value in row])
    return path


def write_hit_rates_csv(path: Path | str, report: EvaluationReport) -> Path:
    """Per-position hit rates plus an "all" row per playlist and one pooled row."""
    rows: list[list] = []
    for result in report.results:
        for pos, hits, total in result.position_hits:
            rows.append([result.playlist_id, pos, total, hits, hits / total])
        rows.append(
            [result.playlist_id, "all", result.n_scored, result.hits, result.hit_rate]
        )
    rows.append(["all", "all", report.n_scored, report.hits, report.hit_rate])
    return write_csv(
        path, ["playlist_id", "position", "observations", "hits", "hit_rate"], rows
    )


def write_confusion_csv(path: Path | str, report: EvaluationReport) -> Path:
    """Pooled confusion, one row per actual outcome, columns predicted."""
    counts = report.confusion_counts()
    rates = confusion_normalized(counts)
    rows = [
        [outcome.value, int(counts[i].sum()), *rates[i]]
        for i, outcome in enumerate(OUTCOME_ORDER)
    ]
    header = ["actual", "observations"] + [
        f"predicted_{o.value}" for o in OUTCOME_ORDER
    ]
    return write_csv(path, header, rows)


def write_demand_csv(path: Path | str, report: EvaluationReport) -> Path:
    rows = []
    for result in report.results:
        d = result.demand
        for i, pos in enumerate(d.track_positions):
            rows.append([result.playlist_id, pos, d.coverage[i], d.actual[i], d.predicted[i]])
    return write_csv(
        path,
        ["playlist_id", "track_position", "coverage", "actual_rate", "predicted_rate"],
        rows,
    )


def write_cdf_csv(path: Path | str, report: EvaluationReport) -> Path:
    xs, fractions = hit_rate_cdf(report.position_rate_values())
    return write_csv(path, ["hit_rate", "cumulative_fraction"], zip(xs, fractions))


def write_summary_csv(path: Path | str, summaries: Iterable[PlaylistSummary]) -> Path:
    """One row per playlist, one column per PlaylistSummary field."""
    header = [f.name for f in fields(PlaylistSummary)]
    return write_csv(path, header, [[getattr(s, name) for name in header] for s in summaries])


# ---------------------------------------------------------------------------
# SVG charts (hand-assembled so output bytes depend only on the data)

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 20, 24, 48


def _x(frac: float) -> str:
    return format(_ML + frac * (_W - _ML - _MR), ".2f")


def _y(frac: float) -> str:
    return format(_H - _MB - frac * (_H - _MT - _MB), ".2f")


def _svg_open(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<title>{title}</title>',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#888"/>',
    ]


def _axis_labels(x_label: str, y_label: str, x_max: float, y_max: float) -> list[str]:
    parts = []
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(
            f'<text x="{_x(frac)}" y="{_H - _MB + 16}" text-anchor="middle">'
            f"{format(frac * x_max, 'g')}</text>"
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{_y(frac)}" text-anchor="end" '
            f'dominant-baseline="middle">{format(frac * y_max, "g")}</text>'
        )
    parts.append(
        f'<text x="{_x(0.5)}" y="{_H - 10}" text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="14" y="{_y(0.5)}" text-anchor="middle" '
        f'transform="rotate(-90 14 {_y(0.5)})">{y_label}</text>'
    )
    return parts


def svg_cdf_chart(series: Mapping[str, Sequence[float]]) -> str:
    """Step-function CDFs of per-(playlist, position) hit rates, one per label.

    Hit rates live on [0, 1], so the axes are fixed and two charts differ only
    where the data differ.
    """
    if not series:
        raise ConstraintViolation("no series to chart")
    parts = _svg_open("hit rate CDF")
    parts += _axis_labels("hit rate", "fraction of groups", 1.0, 1.0)
    for k, (label, values) in enumerate(sorted(series.items())):
        xs, fractions = hit_rate_cdf(values)
        color = PALETTE[k % len(PALETTE)]
        points = [f"{_x(0.0)},{_y(0.0)}"]
        prev_f = 0.0
        for x, f in zip(xs, fractions):
            points.append(f"{_x(float(x))},{_y(prev_f)}")
            points.append(f"{_x(float(x))},{_y(float(f))}")
            prev_f = float(f)
        points.append(f"{_x(1.0)},{_y(prev_f)}")
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" '
            f'points="{" ".join(points)}"/>'
        )
        parts.append(
            f'<text x="{_ML + 10}" y="{_MT + 16 + 16 * k}" fill="{color}">'
            f"{label}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def svg_demand_chart(report: EvaluationReport, cap: int) -> str:
    """Actual vs predicted plays per listener, one point per (playlist, track).

    Both axes run from 0 to ``cap``, the most plays a track can get.
    """
    scale = float(cap)
    parts = _svg_open("demand rates")
    parts += _axis_labels("actual plays per listener", "predicted", scale, scale)
    parts.append(
        f'<line x1="{_x(0.0)}" y1="{_y(0.0)}" x2="{_x(1.0)}" y2="{_y(1.0)}" '
        f'stroke="#bbb" stroke-dasharray="4 3"/>'
    )
    for k, result in enumerate(report.results):
        color = PALETTE[k % len(PALETTE)]
        d = result.demand
        for i in range(len(d.track_positions)):
            if d.coverage[i] == 0:
                continue
            cx = _x(min(d.actual[i], scale) / scale)
            cy = _y(min(d.predicted[i], scale) / scale)
            parts.append(
                f'<circle cx="{cx}" cy="{cy}" r="3.5" fill="{color}" '
                f'fill-opacity="0.7"/>'
            )
        parts.append(
            f'<text x="{_ML + 10}" y="{_MT + 16 + 16 * k}" fill="{color}">'
            f"{result.playlist_id}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path: Path | str, svg_text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(svg_text, encoding="utf-8")
    return path
