"""Deterministic SVG line charts for index and domain series.

Hand-rolled on purpose: the chart is a reproducibility artifact, so
every coordinate is formatted at fixed precision and the output
contains nothing run-dependent (no timestamps, no random ids). The
y-axis is pinned to (0, pi), the codomain of the weekly intensity
weight, so charts from different runs are visually comparable. The
series come in as a name -> core.WeeklySeries mapping, plotted in its
order.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Mapping

from .core import WeeklySeries
from .errors import MalformedInput, UnknownColumn
from .ingestion import DOMAIN_CSV, INDEX_CSV, csv_header, read_weeks

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


def read_chart_csv(path: str | Path) -> dict[str, WeeklySeries[float]]:
    """Load plottable series, by name in first-appearance order, from an index or domain export.

    Index exports (INDEX_CSV) plot the index column per category;
    domain exports (DOMAIN_CSV) plot the composite column per domain;
    both are the last column. Any other header is refused. The file is
    read by the weekly rule (read_weeks), since points are spaced one
    week apart. A file with no data rows gives no series.
    """
    header = csv_header(path)
    schema = next((s for s in (INDEX_CSV, DOMAIN_CSV) if header == s.names), None)
    if schema is None:
        raise UnknownColumn(
            f"{path}: need header {','.join(INDEX_CSV.names)} "
            f"or {','.join(DOMAIN_CSV.names)}"
        )
    weeks = read_weeks(path, schema)
    start, names = next(iter(weeks.items()), (None, ()))
    return {
        str(name): WeeklySeries(start, tuple(rows[name][1][-1] for rows in weeks.values()))
        for name in names
    }


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


def render_chart(
    series: Mapping[str, WeeklySeries[float]], title: str = ""
) -> tuple[str, list[str]]:
    """Render named series on the weeks of the first; returns the SVG and any warnings."""
    for what, value in (("chart title", title), *(("series name", name) for name in series)):
        fault = _xml_fault(value)
        if fault:
            raise MalformedInput(f"{what} {value!r}: {fault}")
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

    def line(x1, y1, x2, y2, stroke: str, width: float) -> str:
        ends = f'x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"'
        return f'<line {ends} stroke="{stroke}" stroke-width="{width}"/>'

    def text(x, y, size: int, body: str, extra_attrs: str = "") -> str:
        font = f'font-family="sans-serif" font-size="{size}" fill="#333"'
        return f'<text x="{x}" y="{y}" {font}{extra_attrs}>{body}</text>'

    right = MARGIN_LEFT + plot_w
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(text(MARGIN_LEFT, 20, 14, _escape(title)))
    # Axes and y grid.
    for value, label in Y_TICKS:
        y = _fmt(y_of(value))
        parts.append(line(MARGIN_LEFT, y, right, y, "#ddd", 1))
        parts.append(
            text(MARGIN_LEFT - 8, y, 12, label, ' text-anchor="end" dominant-baseline="middle"')
        )
    parts.append(line(MARGIN_LEFT, MARGIN_TOP, MARGIN_LEFT, bottom, "#333", 1))
    parts.append(line(MARGIN_LEFT, bottom, right, bottom, "#333", 1))
    if not series:
        warnings.append("no data rows; rendering axes only")
    else:
        weeks = next(iter(series.values())).weeks
        count = len(weeks)
        step = max(1, math.ceil(count / 8))
        for i in range(0, count, step):
            x = _fmt(x_of(i, count))
            parts.append(text(x, bottom + 18, 11, weeks[i].isoformat(), ' text-anchor="middle"'))
        for index, name in enumerate(series):
            values = series[name].windows
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
            legend_x = right + 16
            parts.append(line(legend_x, legend_y, legend_x + 20, legend_y, color, 2))
            parts.append(text(legend_x + 26, legend_y + 4, 12, _escape(name)))
    parts.append("</svg>")
    return "\n".join(parts) + "\n", warnings


def chart_csv_to_svg(csv_path: str | Path, title: str = "") -> tuple[str, list[str]]:
    return render_chart(read_chart_csv(csv_path), title=title)
