"""Weekly windows and per-week category counts."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import Sequence

from .core import (
    CATEGORIES,
    WEEK,
    ImpactCategory,
    IndexConfig,
    category_from_short_name,
)
from .errors import BeforeAnchor, MalformedCsv, MisalignedRange, OutOfRange
from .ingestion import csv_rows


def monday_on_or_before(day: date) -> date:
    return day - timedelta(days=day.weekday())


@dataclass(frozen=True)
class WindowCounts:
    """Category counts of the week starting at `start`; every category key is present."""

    start: date
    n: dict[ImpactCategory, int]
    total: int

    def __post_init__(self) -> None:
        if set(self.n) != set(CATEGORIES):
            raise ValueError("n must carry all categories (zero-filled)")
        if self.total != sum(self.n.values()):
            raise ValueError("total must equal the sum over categories")


@dataclass(frozen=True)
class CountSeries:
    windows: tuple[WindowCounts, ...]

    def __post_init__(self) -> None:
        for prev, cur in zip(self.windows, self.windows[1:]):
            if cur.start - prev.start != WEEK:
                raise ValueError("count series windows must be contiguous")

    @property
    def totals(self) -> tuple[int, ...]:
        return tuple(w.total for w in self.windows)


@dataclass(frozen=True)
class WindowingReport:
    outside_range: int


def build_count_series(
    days: Sequence[date],
    categories: Sequence[ImpactCategory],
    config: IndexConfig,
    range_start: date | None = None,
    range_end: date | None = None,
) -> tuple[CountSeries, WindowingReport]:
    """Count labelled posts per (week, category) over [range_start, range_end).

    Post k was made on days[k] (UTC) and labelled categories[k]. An open
    anchor becomes the Monday on or before the earliest post or
    range_start. A bound not given becomes the edge of the smallest
    aligned span covering every post; a bound given is always used and
    must be a whole number of weeks from the anchor. Empty windows appear
    zero-filled so the series is gap-free. Posts outside the range are
    excluded and counted in the report.
    """
    anchor = config.window_anchor
    if anchor is None:
        candidates = days if range_start is None else [*days, range_start]
        if not candidates:
            raise ValueError("no posts and no range to derive a window anchor from")
        anchor = monday_on_or_before(min(candidates))
    if range_start is None or range_end is None:
        if not days:
            raise ValueError("no posts to span")
        if range_start is None:
            if min(days) < anchor:
                raise BeforeAnchor(f"earliest post precedes anchor {anchor}")
            range_start = anchor + (min(days) - anchor) // WEEK * WEEK
        if range_end is None:
            range_end = anchor + ((max(days) - anchor) // WEEK + 1) * WEEK
    if range_end <= range_start:
        raise MisalignedRange("range_end must be after range_start")
    if range_start < anchor:
        raise MisalignedRange(f"range starts before the anchor {anchor}")
    if (range_start - anchor) % WEEK or (range_end - range_start) % WEEK:
        raise MisalignedRange(
            f"range [{range_start}, {range_end}) is off the 7-day grid of {anchor}"
        )
    n_windows = (range_end - range_start) // WEEK

    counts = [{c: 0 for c in CATEGORIES} for _ in range(n_windows)]
    outside = 0
    for day, category in zip(days, categories, strict=True):
        if not (range_start <= day < range_end):
            outside += 1
            continue
        counts[(day - range_start).days // WEEK.days][category] += 1

    windows = tuple(
        WindowCounts(start=range_start + i * WEEK, n=n, total=sum(n.values()))
        for i, n in enumerate(counts)
    )
    return CountSeries(windows=windows), WindowingReport(outside_range=outside)


def write_counts_csv(series: CountSeries, path: str | Path) -> None:
    """Export header window_start,category,count,total."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["window_start", "category", "count", "total"])
        for wc in series.windows:
            for cat in CATEGORIES:
                writer.writerow(
                    [wc.start.isoformat(), cat.short_name, wc.n[cat], wc.total]
                )


def read_counts_csv(path: str | Path, config: IndexConfig) -> CountSeries:
    """Load a counts export back into a contiguous series.

    Every window must carry all 11 categories with a consistent total,
    and window starts must be whole weeks from the configured anchor
    (the first start anchors the grid when the config leaves it open).
    Each new window must start one week after the last, so a missing
    week is reported at the first row after the gap.
    """
    per_window: dict[date, dict[ImpactCategory, int]] = {}
    stated_totals: dict[date, int] = {}
    order: list[date] = []
    anchor = config.window_anchor
    header = ("window_start", "category", "count", "total")
    for lineno, row in csv_rows(path, header):
        try:
            start = date.fromisoformat(row[0])
            category = category_from_short_name(row[1])
            count = int(row[2])
            total = int(row[3])
        except (ValueError, OutOfRange) as exc:
            raise MalformedCsv(f"{path}:{lineno}: {exc}") from exc
        if count < 0:
            raise MalformedCsv(f"{path}:{lineno}: negative count")
        if start not in per_window:
            if order and start < order[-1]:
                raise MalformedCsv(f"{path}:{lineno}: window starts out of order")
            anchor = start if anchor is None else anchor
            if start < anchor or (start - anchor) % WEEK:
                raise MalformedCsv(
                    f"{path}:{lineno}: window {start} off the 7-day grid of {anchor}"
                )
            if order and start != order[-1] + WEEK:
                raise MalformedCsv(
                    f"{path}:{lineno}: window {start} leaves a gap after {order[-1]}"
                )
            per_window[start] = {}
            stated_totals[start] = total
            order.append(start)
        if stated_totals[start] != total:
            raise MalformedCsv(f"{path}:{lineno}: total differs within window")
        if category in per_window[start]:
            raise MalformedCsv(f"{path}:{lineno}: duplicate category row")
        per_window[start][category] = count
    if not order:
        raise MalformedCsv(f"{path}: no data rows")
    windows = []
    for start in order:
        n = per_window[start]
        if set(n) != set(CATEGORIES):
            raise MalformedCsv(f"{path}: window {start} misses categories")
        if sum(n.values()) != stated_totals[start]:
            raise MalformedCsv(f"{path}: window {start} total mismatch")
        windows.append(WindowCounts(start=start, n=n, total=stated_totals[start]))
    return CountSeries(windows=tuple(windows))
