"""Deterministic SVG line charts for index and domain series.

Hand-rolled on purpose: the chart is a reproducibility artifact, so
every coordinate is formatted at fixed precision and the output
contains nothing run-dependent (no timestamps, no random ids). The
y-axis is pinned to (0, pi), the codomain of the weekly intensity
weight, so charts from different runs are visually comparable.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from datetime import date
from pathlib import Path

from .core import WEEK
from .errors import MalformedCsv, MalformedInput, UnknownColumn
from .ingestion import csv_header, csv_rows

WIDTH = 960
HEIGHT = 540
MARGIN_LEFT = 64
MARGIN_RIGHT = 200
MARGIN_TOP = 32
MARGIN_BOTTOM = 48

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#393b79",
)

Y_TICKS = (
    (0.0, "0"),
    (math.pi / 4, "π/4"),
    (math.pi / 2, "π/2"),
    (3 * math.pi / 4, "3π/4"),
    (math.pi, "π"),
)

# Outside XML 1.0's Char production, lone surrogates included: no escape
# can put these in an SVG.
_NOT_XML_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


@dataclass(frozen=True)
class ChartData:
    weeks: tuple[date, ...]
    series: tuple[tuple[str, tuple[float, ...]], ...]
    value_label: str


def read_chart_csv(path: str | Path) -> ChartData:
    """Load plottable series from an index or domain export.

    Index exports plot the index column per category; domain exports
    plot the composite column per domain. Any other header is refused,
    as are non-finite values and weeks that are not 7 days apart.
    """
    header = csv_header(path)
    if header[:2] == ["window_start", "category"] and "index" in header:
        key_col, value_col = 1, header.index("index")
        value_label = "index"
    elif header[:2] == ["window_start", "domain"] and "composite" in header:
        key_col, value_col = 1, header.index("composite")
        value_label = "composite"
    else:
        raise UnknownColumn(
            f"{path}: need window_start,category,...,index or "
            f"window_start,domain,...,composite columns"
        )
    weeks: list[date] = []
    series: dict[str, dict[date, float]] = {}
    order: list[str] = []
    for lineno, row in csv_rows(path, header):
        try:
            week = date.fromisoformat(row[0])
            value = float(row[value_col])
        except ValueError as exc:
            raise MalformedCsv(f"{path}:{lineno}: {exc}") from exc
        if not math.isfinite(value):
            raise MalformedCsv(f"{path}:{lineno}: value must be finite")
        name = row[key_col]
        if name not in series:
            fault = _xml_fault(name)
            if fault:
                raise MalformedCsv(f"{path}:{lineno}: series name {name!r}: {fault}")
            series[name] = {}
            order.append(name)
        if week not in weeks:
            weeks.append(week)
        series[name][week] = value
    weeks.sort()
    for prev, week in zip(weeks, weeks[1:]):
        if week - prev != WEEK:
            raise MalformedCsv(f"{path}: week {week} is not 7 days after {prev}")
    packed = []
    for name in order:
        points = series[name]
        if set(points) != set(weeks):
            raise MalformedCsv(f"{path}: series {name} misses some weeks")
        packed.append((name, tuple(points[w] for w in weeks)))
    return ChartData(weeks=tuple(weeks), series=tuple(packed), value_label=value_label)


def _xml_fault(text: str) -> str | None:
    """Why `text` cannot go into an SVG, or None if it can."""
    match = _NOT_XML_CHAR.search(text)
    if match is None:
        return None
    return f"U+{ord(match.group()):04X} is not allowed in XML 1.0"


def _escape(text: str) -> str:
    """`text` as SVG character data, as xml.sax.saxutils.escape gives it.

    Written out because importing xml.sax.saxutils loads urllib.request.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(value: float) -> str:
    return "%.2f" % value


def render_chart(data: ChartData, title: str = "") -> tuple[str, list[str]]:
    """Render an SVG string; returns it with any degeneracy warnings."""
    fault = _xml_fault(title)
    if fault:
        raise MalformedInput(f"chart title {title!r}: {fault}")
    warnings: list[str] = []
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    bottom = MARGIN_TOP + plot_h

    def y_of(value: float) -> float:
        return bottom - (value / math.pi) * plot_h

    def x_of(i: int, count: int) -> float:
        if count <= 1:
            return MARGIN_LEFT + plot_w / 2
        return MARGIN_LEFT + (i / (count - 1)) * plot_w

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    parts.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    if title:
        parts.append(
            f'<text x="{MARGIN_LEFT}" y="20" font-family="sans-serif" '
            f'font-size="14" fill="#333">{_escape(title)}</text>'
        )
    # Axes and y grid.
    for value, label in Y_TICKS:
        y = _fmt(y_of(value))
        parts.append(
            f'<line x1="{MARGIN_LEFT}" y1="{y}" x2="{MARGIN_LEFT + plot_w}" '
            f'y2="{y}" stroke="#ddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{y}" font-family="sans-serif" '
            f'font-size="12" fill="#333" text-anchor="end" '
            f'dominant-baseline="middle">{label}</text>'
        )
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{bottom}" stroke="#333" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{bottom}" x2="{MARGIN_LEFT + plot_w}" '
        f'y2="{bottom}" stroke="#333" stroke-width="1"/>'
    )
    count = len(data.weeks)
    if count == 0 or not data.series:
        warnings.append("no data rows; rendering axes only")
    else:
        step = max(1, math.ceil(count / 8))
        for i in range(0, count, step):
            x = _fmt(x_of(i, count))
            parts.append(
                f'<text x="{x}" y="{bottom + 18}" font-family="sans-serif" '
                f'font-size="11" fill="#333" text-anchor="middle">'
                f"{data.weeks[i].isoformat()}</text>"
            )
        for index, (name, values) in enumerate(data.series):
            color = PALETTE[index % len(PALETTE)]
            if count == 1:
                parts.append(
                    f'<circle cx="{_fmt(x_of(0, 1))}" cy="{_fmt(y_of(values[0]))}" '
                    f'r="3" fill="{color}"/>'
                )
            else:
                points = " ".join(
                    f"{_fmt(x_of(i, count))},{_fmt(y_of(v))}"
                    for i, v in enumerate(values)
                )
                parts.append(
                    f'<polyline points="{points}" fill="none" stroke="{color}" '
                    f'stroke-width="1.5"/>'
                )
            legend_y = MARGIN_TOP + 14 + index * 18
            legend_x = MARGIN_LEFT + plot_w + 16
            parts.append(
                f'<line x1="{legend_x}" y1="{legend_y}" x2="{legend_x + 20}" '
                f'y2="{legend_y}" stroke="{color}" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{legend_x + 26}" y="{legend_y + 4}" '
                f'font-family="sans-serif" font-size="12" fill="#333">{_escape(name)}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n", warnings


def chart_csv_to_svg(csv_path: str | Path, title: str = "") -> tuple[str, list[str]]:
    data = read_chart_csv(csv_path)
    return render_chart(data, title=title)
