"""Lead-lag validation of index series against weekly ground truth.

The pairing convention is fixed by formula: rho[lag] correlates, over
every week t where both sides exist, the pair (index_t, truth_{t+lag}).
Narration of what a negative lag *means* is kept separate, because the
published labeling reads negative lags as the index leading the ground
truth while the literal pairing puts earlier truth against the index.
interpret_profile reports both readings instead of silently picking one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Mapping, Sequence

from .core import WEEK, Domain, WeeklySeries
from .errors import (
    AllLagsUndefined,
    ConstantInput,
    EmptyInput,
    LengthMismatch,
    MalformedCsv,
    MisalignedGrids,
    OutOfRange,
)
from .ingestion import csv_rows, write_csv

MEANINGFUL_LOW = 0.3
MEANINGFUL_HIGH = 0.5


def read_domain_csv(path: str | Path, domain: Domain) -> WeeklySeries:
    """Load one domain's composite series from a domain export."""
    weeks: list[date] = []
    values: list[float] = []
    header = ("window_start", "domain", "composite")
    for lineno, (week, name, composite) in csv_rows(path, header):
        if name != domain.value:
            continue
        try:
            week_start, value = date.fromisoformat(week), float(composite)
        except ValueError as exc:
            raise MalformedCsv(f"{path}:{lineno}: {exc}") from exc
        if not math.isfinite(value):
            raise MalformedCsv(f"{path}:{lineno}: composite must be finite")
        if weeks and week_start - weeks[-1] != WEEK:
            raise MalformedCsv(
                f"{path}:{lineno}: week {week_start} does not follow {weeks[-1]} by 7 days"
            )
        weeks.append(week_start)
        values.append(value)
    if not weeks:
        raise EmptyInput(f"{path}: no rows for domain {domain.value}")
    return WeeklySeries(weeks=tuple(weeks), values=tuple(values))


def _midranks(values: Sequence[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        # Tied block [i, j] shares the average of ranks i+1 .. j+1.
        shared = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = shared
        i = j + 1
    return ranks


def spearman_rho(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation of midranks, clamped to [-1, 1]."""
    if len(x) != len(y):
        raise LengthMismatch(f"{len(x)} vs {len(y)} points")
    n = len(x)
    if n < 3:
        raise EmptyInput("rank correlation needs at least 3 pairs")
    if min(x) == max(x) or min(y) == max(y):
        raise ConstantInput("rank correlation undefined for a constant vector")
    rx = _midranks(x)
    ry = _midranks(y)
    mean = (n + 1) / 2
    dx = [r - mean for r in rx]
    dy = [r - mean for r in ry]
    num = math.fsum(a * b for a, b in zip(dx, dy))
    den = math.sqrt(math.fsum(a * a for a in dx) * math.fsum(b * b for b in dy))
    return max(-1.0, min(1.0, num / den))


@dataclass(frozen=True)
class LagCorrelationProfile:
    """Spearman rho and overlap per lag; undefined rho stays None."""

    lags: tuple[int, ...]
    rho: Mapping[int, float | None]
    overlap: Mapping[int, int]

    def defined_lags(self) -> tuple[int, ...]:
        return tuple(lag for lag in self.lags if self.rho[lag] is not None)


def lead_lag_profile(
    index: WeeklySeries, truth: WeeklySeries, max_lag: int
) -> LagCorrelationProfile:
    """Correlate (index_t, truth_{t+lag}) for every lag in [-L, L].

    A lag with fewer than 3 overlapping weeks, or whose paired values
    are constant on either side, is recorded as undefined.
    """
    if max_lag < 0:
        raise OutOfRange(f"max_lag must be >= 0, got {max_lag}")
    if (truth.weeks[0] - index.weeks[0]) % WEEK:
        raise MisalignedGrids(
            f"week grids differ: {index.weeks[0]} vs {truth.weeks[0]}"
        )
    truth_by_week = dict(zip(truth.weeks, truth.values))
    lags = tuple(range(-max_lag, max_lag + 1))
    rho: dict[int, float | None] = {}
    overlap: dict[int, int] = {}
    for lag in lags:
        xs: list[float] = []
        ys: list[float] = []
        for week, value in zip(index.weeks, index.values):
            shifted = week + lag * WEEK
            if shifted in truth_by_week:
                xs.append(value)
                ys.append(truth_by_week[shifted])
        overlap[lag] = len(xs)
        if len(xs) < 3:
            rho[lag] = None
            continue
        try:
            rho[lag] = spearman_rho(xs, ys)
        except ConstantInput:
            rho[lag] = None
    profile = LagCorrelationProfile(lags=lags, rho=rho, overlap=overlap)
    if not profile.defined_lags():
        raise AllLagsUndefined("no lag has 3 overlapping weeks of varying data")
    return profile


def _strength(abs_rho: float) -> str:
    if abs_rho > MEANINGFUL_HIGH:
        return "strong"
    if abs_rho >= MEANINGFUL_LOW:
        return "meaningful"
    return "weak"


def interpret_profile(profile: LagCorrelationProfile) -> dict:
    """Pick the strongest lag and narrate it under both lag readings.

    Ties on |rho| break toward the smallest |lag|, then the negative
    sign, so reports are deterministic.
    """
    defined = profile.defined_lags()
    if not defined:
        raise AllLagsUndefined("profile has no defined lag")
    best = min(defined, key=lambda lag: (-abs(profile.rho[lag]), abs(lag), lag))
    best_rho = profile.rho[best]
    assert best_rho is not None
    span = f"{abs(best)} week" + ("s" if abs(best) != 1 else "")
    if best < 0:
        narrative = f"index leads the ground truth by {span}"
        formula_reading = (
            f"lag {best} pairs each index week with the ground-truth value "
            f"{span} earlier"
        )
    elif best > 0:
        narrative = f"ground truth leads the index by {span}"
        formula_reading = (
            f"lag {best} pairs each index week with the ground-truth value "
            f"{span} later"
        )
    else:
        narrative = "contemporaneous"
        formula_reading = "lag 0 pairs each week with itself"
    strength = _strength(abs(best_rho))
    return {
        "best_lag": best,
        "best_rho": best_rho,
        "abs_rho": abs(best_rho),
        "strength": strength,
        "meaningful": strength == "meaningful",
        "statement": (
            f"strongest association at {best:+d} weeks "
            f"(rho = {best_rho:.3f}, {strength} range): {narrative}"
        ),
        "narrative": narrative,
        "formula_reading": formula_reading,
        "defined_lags": list(defined),
    }


def write_leadlag_csv(profile: LagCorrelationProfile, path: str | Path) -> None:
    """Write lag_weeks,rho,overlap rows; undefined rho as empty field."""
    rows = ((lag, profile.rho[lag], profile.overlap[lag]) for lag in profile.lags)
    write_csv(path, ("lag_weeks", "rho", "overlap"), rows)
