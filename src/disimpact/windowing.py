"""Weekly windows and per-week category counts.

A count series is a WeeklySeries whose window t is the 11-tuple of
n_t(c) in CATEGORIES order; its total N_t is the tuple's sum.
"""

from __future__ import annotations

from collections import Counter
from datetime import date, timedelta
from pathlib import Path

from .core import CATEGORIES, WEEK, ImpactCategory, IndexConfig, WeeklySeries
from .errors import BeforeAnchor, MalformedCsv, MisalignedRange
from .ingestion import COUNTS_CSV, read_weeks, write_csv


def monday_on_or_before(day: date) -> date:
    return day - timedelta(days=day.weekday())


def build_count_series(
    tally: Counter[tuple[date, ImpactCategory]],
    config: IndexConfig,
    range_start: date | None = None,
    range_end: date | None = None,
) -> tuple[WeeklySeries[tuple[int, ...]], int]:
    """Count labelled posts per (week, category) over [range_start, range_end).

    tally[day, category] is the number of posts made on that day (UTC)
    and labelled that category. An open anchor becomes the Monday on or
    before the earliest post or range_start. A bound not given becomes
    the edge of the smallest aligned span covering every post; a bound
    given is always used and must be a whole number of weeks from the
    anchor. Empty windows appear zero-filled so the series is gap-free.
    Posts outside the range are excluded, and their number is returned
    with the series.
    """
    days = {day for day, _ in tally}
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

    counts = [[0] * len(CATEGORIES) for _ in range(n_windows)]
    outside = 0
    for (day, category), n in tally.items():
        if not (range_start <= day < range_end):
            outside += n
            continue
        # Codes 1-11 number CATEGORIES in order.
        counts[(day - range_start).days // WEEK.days][category.code - 1] += n
    return WeeklySeries(range_start, tuple(map(tuple, counts))), outside


def write_counts_csv(series: WeeklySeries[tuple[int, ...]], path: str | Path) -> None:
    """Export the series as a counts.csv (COUNTS_CSV)."""
    rows = (
        (week.isoformat(), c.short_name, n, total)
        for week, window in zip(series.weeks, series.windows)
        for total in [sum(window)]
        for c, n in zip(CATEGORIES, window)
    )
    write_csv(path, COUNTS_CSV.names, rows)


def read_counts_csv(path: str | Path, config: IndexConfig) -> WeeklySeries[tuple[int, ...]]:
    """Load a counts export back into a count series, by the weekly rule (read_weeks).

    Beyond the rule, every window must carry all 11 categories and one
    total that equals their sum, and the first window must start a whole
    number of weeks on or after the configured anchor (any start, when
    the config leaves it open).
    """
    weeks = read_weeks(path, COUNTS_CSV)
    if not weeks:
        raise MalformedCsv(f"{path}: no data rows")
    start = next(iter(weeks))
    anchor = start if config.window_anchor is None else config.window_anchor
    line = min(lineno for lineno, _ in weeks[start].values())
    if start < anchor or (start - anchor) % WEEK:
        raise MalformedCsv(f"{path}:{line}: window {start} off the 7-day grid of {anchor}")
    if len(weeks[start]) != len(CATEGORIES):
        raise MalformedCsv(f"{path}:{line}: window {start} misses categories")
    windows = []
    for rows in weeks.values():
        window = tuple(rows[c][1][2] for c in CATEGORIES)
        for lineno, (*_, total) in rows.values():
            if total != sum(window):
                raise MalformedCsv(f"{path}:{lineno}: total {total} is not its window's sum")
        windows.append(window)
    return WeeklySeries(start, tuple(windows))
