"""Fixed-length temporal windows and per-window category counts."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

from .core import (
    CATEGORIES,
    AnnotatedPost,
    ImpactCategory,
    IndexConfig,
    TimeWindow,
    category_from_short_name,
)
from .errors import BeforeAnchor, MalformedCsv, MisalignedRange, OutOfRange
from .ingestion import csv_rows


def monday_on_or_before(day: date) -> date:
    return day - timedelta(days=day.weekday())


@dataclass(frozen=True)
class WindowCounts:
    """Per-window category counts; every category key is present."""

    window: TimeWindow
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
            if cur.window.start != prev.window.end:
                raise ValueError("count series windows must be contiguous")

    @property
    def totals(self) -> tuple[int, ...]:
        return tuple(w.total for w in self.windows)

    @property
    def starts(self) -> tuple[date, ...]:
        return tuple(w.window.start for w in self.windows)


@dataclass(frozen=True)
class WindowingReport:
    outside_range: tuple[str, ...]


def build_count_series(
    posts: list[AnnotatedPost],
    config: IndexConfig,
    range_start: date | None = None,
    range_end: date | None = None,
) -> tuple[CountSeries, WindowingReport]:
    """Count posts per (window, category) over [range_start, range_end).

    An open anchor becomes the Monday on or before the earliest post or
    range_start. A bound not given becomes the edge of the smallest
    aligned span covering every post; a bound given is always used and
    must sit on the anchor's window grid. Empty windows appear
    zero-filled so the series is gap-free. Posts outside the range are
    excluded and reported by id.
    """
    for p in posts:
        if not p.relevant:
            raise ValueError(f"post {p.post.id!r} is not relevant; filter first")
    days = [p.post.created_date for p in posts]
    anchor = config.window_anchor
    if anchor is None:
        candidates = days if range_start is None else days + [range_start]
        if not candidates:
            raise ValueError("no posts and no range to derive a window anchor from")
        anchor = monday_on_or_before(min(candidates))
    step = config.window_days
    if range_start is None or range_end is None:
        if not days:
            raise ValueError("no posts to span")
        if range_start is None:
            lo = (min(days) - anchor).days
            if lo < 0:
                raise BeforeAnchor(f"earliest post precedes anchor {anchor}")
            range_start = anchor + timedelta(days=(lo // step) * step)
        if range_end is None:
            hi = (max(days) - anchor).days
            range_end = anchor + timedelta(days=(hi // step + 1) * step)
    if range_end <= range_start:
        raise MisalignedRange("range_end must be after range_start")
    if (range_start - anchor).days < 0:
        raise MisalignedRange(f"range starts before the anchor {anchor}")
    if (range_start - anchor).days % step or (range_end - range_start).days % step:
        raise MisalignedRange(
            f"range [{range_start}, {range_end}) is off the {step}-day grid of {anchor}"
        )
    first_index = (range_start - anchor).days // step
    n_windows = (range_end - range_start).days // step

    counts = [{c: 0 for c in CATEGORIES} for _ in range(n_windows)]
    outside: list[str] = []
    for p, day in zip(posts, days):
        if not (range_start <= day < range_end):
            outside.append(p.post.id)
            continue
        idx = (day - range_start).days // step
        counts[idx][p.category] += 1

    windows = tuple(
        WindowCounts(
            window=TimeWindow(
                index=first_index + i,
                start=range_start + timedelta(days=i * step),
                length_days=step,
            ),
            n=counts[i],
            total=sum(counts[i].values()),
        )
        for i in range(n_windows)
    )
    return CountSeries(windows=windows), WindowingReport(outside_range=tuple(outside))


def write_counts_csv(series: CountSeries, path: str | Path) -> None:
    """Export header window_start,category,count,total."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["window_start", "category", "count", "total"])
        for wc in series.windows:
            for cat in CATEGORIES:
                writer.writerow(
                    [wc.window.start.isoformat(), cat.short_name, wc.n[cat], wc.total]
                )


def read_counts_csv(path: str | Path, config: IndexConfig) -> CountSeries:
    """Load a counts export back into a contiguous series.

    Every window must carry all 11 categories with a consistent total,
    and window starts must sit on the configured grid (the first start
    anchors the grid when the config leaves the anchor open).
    """
    per_window: dict[date, dict[ImpactCategory, int]] = {}
    stated_totals: dict[date, int] = {}
    order: list[date] = []
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
    if order != sorted(order):
        raise MalformedCsv(f"{path}: window starts out of order")
    anchor = config.window_anchor if config.window_anchor is not None else order[0]
    step = config.window_days
    windows = []
    for start in order:
        offset = (start - anchor).days
        if offset < 0 or offset % step:
            raise MisalignedRange(
                f"{path}: window {start} off the {step}-day grid of {anchor}"
            )
        n = per_window[start]
        if set(n) != set(CATEGORIES):
            raise MalformedCsv(f"{path}: window {start} misses categories")
        if sum(n.values()) != stated_totals[start]:
            raise MalformedCsv(f"{path}: window {start} total mismatch")
        windows.append(
            WindowCounts(
                window=TimeWindow(
                    index=offset // step, start=start, length_days=step
                ),
                n=n,
                total=stated_totals[start],
            )
        )
    return CountSeries(windows=tuple(windows))
