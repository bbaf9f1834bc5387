"""Impact-index stage: smoothed proportions, intensity weights, indices.

For a window t and category c with count n_t(c) and window total N_t:

    P_t(c) = (n_t(c) + alpha) / (N_t + alpha * C)          smoothed share
    w_t    = arctan((N_t - N_mean) / IQR) + pi/2           activity weight
    I_t(c) = P_t(c) * w_t                                  impact index

P sums to 1 over the C categories, w lies in (0, pi), so every index
lies in (0, pi) and the per-window indices sum exactly to w_t. N_mean
and IQR are batch quantities over all window totals in the series,
empty windows included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Sequence

from .core import (
    CATEGORIES,
    PHYSICAL_CATEGORIES,
    QUANTILE_METHODS,
    SOCIAL_CATEGORIES,
    Domain,
    ImpactCategory,
    IndexConfig,
)
from .errors import EmptyInput, InvalidCounts, OutOfRange
from .ingestion import write_csv
from .windowing import CountSeries

# Fallback width when every window has the same total: wide enough that
# w collapses to pi/2 instead of dividing by zero.
IQR_EPSILON = 1e-6


def smoothed_proportion(n: int, total: int, config: IndexConfig) -> float:
    """Additively smoothed share of one category within a window."""
    if n < 0 or total < 0 or n > total:
        raise InvalidCounts(f"need 0 <= n <= total, got n={n}, total={total}")
    alpha = config.alpha
    return (n + alpha) / (total + alpha * len(CATEGORIES))


def _percentile(ordered: list[float], q: float, method: str) -> float:
    """The q-quantile of a sorted sample, as numpy.percentile computes it."""
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    if method == "lower":
        return ordered[lo]
    if method == "higher":
        return ordered[math.ceil(pos)]
    if method == "nearest":
        return ordered[round(pos)]  # half to even, as numpy.around rounds
    g = pos - lo if method == "linear" else (0.0 if pos == lo else 0.5)
    a, b = ordered[lo], ordered[min(lo + 1, len(ordered) - 1)]
    d = b - a
    # numpy's _lerp: from b when g >= 0.5; the two forms can differ in the last bit.
    return a + d * g if g < 0.5 else b - d * (1 - g)


def compute_iqr(values: Sequence[float], method: str = "linear") -> float:
    """Q3 - Q1 of a sample under one of QUANTILE_METHODS.

    Each method gives the same float as numpy.percentile(values, [25, 75],
    method=method); the tests keep numpy as the oracle.
    """
    if method not in QUANTILE_METHODS:
        raise OutOfRange(f"quantile_method must be one of {QUANTILE_METHODS}")
    if len(values) == 0:
        raise EmptyInput("IQR of an empty sample is undefined")
    ordered = sorted(map(float, values))
    return _percentile(ordered, 0.75, method) - _percentile(ordered, 0.25, method)


@dataclass(frozen=True)
class SeriesStats:
    """Batch statistics of the window totals {N_t}."""

    n_mean: float
    iqr: float
    t_count: int
    iqr_degenerate: bool = False

    @classmethod
    def from_totals(cls, totals: Sequence[int], method: str = "linear") -> "SeriesStats":
        if len(totals) == 0:
            raise EmptyInput("a series needs at least one window")
        mean = sum(totals) / len(totals)
        iqr = compute_iqr(totals, method=method)
        degenerate = iqr == 0.0
        if degenerate:
            iqr = max(1.0, mean * IQR_EPSILON)
        return cls(n_mean=mean, iqr=iqr, t_count=len(totals), iqr_degenerate=degenerate)


def intensity_weight(total: int, stats: SeriesStats) -> float:
    """Arctan-shaped weight in (0, pi); pi/2 at the mean posting volume."""
    return math.atan((total - stats.n_mean) / stats.iqr) + math.pi / 2


def impact_index(p: float, w: float) -> float:
    """Product P * w, the per-category index on the (0, pi) scale."""
    if not 0.0 < p < 1.0:
        raise OutOfRange(f"p must be in (0, 1), got {p}")
    if not 0.0 < w < math.pi:
        raise OutOfRange(f"w must be in (0, pi), got {w}")
    return p * w


@dataclass(frozen=True)
class IndexPoint:
    p: float
    w: float
    index: float


@dataclass(frozen=True)
class ImpactSeries:
    """Per-category (P, w, I) triples plus physical/social composites."""

    weeks: tuple[date, ...]
    per_category: dict[ImpactCategory, tuple[IndexPoint, ...]]
    domains: dict[Domain, tuple[float, ...]]
    stats: SeriesStats
    counts: CountSeries

    @property
    def weights(self) -> tuple[float, ...]:
        first = next(iter(self.per_category.values()))
        return tuple(pt.w for pt in first)


def compute_impact_series(counts: CountSeries, config: IndexConfig) -> ImpactSeries:
    """Run the full index stage over a gap-free count series.

    Composites combine the five member categories per domain (OTHER
    belongs to neither) under config.composite_operator; "sum" keeps
    sum-of-all-indices = w_t exact, "mean" divides by five.
    """
    if not counts.windows:
        raise EmptyInput("cannot index an empty count series")
    stats = SeriesStats.from_totals(counts.totals, method=config.quantile_method)

    per_category: dict[ImpactCategory, list[IndexPoint]] = {c: [] for c in CATEGORIES}
    composites: dict[Domain, list[float]] = {Domain.PHYSICAL: [], Domain.SOCIAL: []}
    scale = 1.0 if config.composite_operator == "sum" else 1.0 / len(PHYSICAL_CATEGORIES)
    for wc in counts.windows:
        w = intensity_weight(wc.total, stats)
        indices: dict[ImpactCategory, float] = {}
        for cat in CATEGORIES:
            p = smoothed_proportion(wc.n[cat], wc.total, config)
            idx = impact_index(p, w)
            indices[cat] = idx
            per_category[cat].append(IndexPoint(p=p, w=w, index=idx))
        composites[Domain.PHYSICAL].append(
            scale * sum(indices[c] for c in PHYSICAL_CATEGORIES)
        )
        composites[Domain.SOCIAL].append(
            scale * sum(indices[c] for c in SOCIAL_CATEGORIES)
        )

    return ImpactSeries(
        weeks=tuple(wc.start for wc in counts.windows),
        per_category={c: tuple(points) for c, points in per_category.items()},
        domains={d: tuple(vals) for d, vals in composites.items()},
        stats=stats,
        counts=counts,
    )


def write_index_csv(series: ImpactSeries, path: str | Path) -> None:
    """Export header window_start,category,n,total,p,w,index."""
    rows = (
        (wc.start.isoformat(), c.short_name, wc.n[c], wc.total, pt.p, pt.w, pt.index)
        for t, wc in enumerate(series.counts.windows)
        for c in CATEGORIES
        for pt in [series.per_category[c][t]]
    )
    write_csv(path, ("window_start", "category", "n", "total", "p", "w", "index"), rows)


def write_domain_csv(series: ImpactSeries, path: str | Path) -> None:
    """Export header window_start,domain,composite."""
    rows = (
        (week.isoformat(), d.value, series.domains[d][t])
        for t, week in enumerate(series.weeks)
        for d in (Domain.PHYSICAL, Domain.SOCIAL)
    )
    write_csv(path, ("window_start", "domain", "composite"), rows)
