"""Impact-index stage: smoothed proportions, intensity weights, indices.

For a window t and category c with count n_t(c) and window total N_t:

    P_t(c) = (n_t(c) + alpha) / (N_t + alpha * C)          smoothed share
    w_t    = arctan((N_t - N_mean) / IQR) + pi/2           activity weight
           = atan2(IQR, N_mean - N_t), computed without the cancellation near 0
    I_t(c) = P_t(c) * w_t                                  impact index

P sums to 1 over the C categories, w lies in (0, pi), so every index
lies in (0, pi) and the per-window indices sum exactly to w_t. N_mean
and IQR are batch quantities over all window totals in the series,
empty windows included.

Every weekly quantity is a core.WeeklySeries on the count series' weeks:
the weights w_t, and per category the shares P_t(c) and indices I_t(c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .core import (
    CATEGORIES,
    PHYSICAL_CATEGORIES,
    QUANTILE_METHODS,
    Domain,
    ImpactCategory,
    IndexConfig,
    WeeklySeries,
)
from .errors import EmptyInput, InvalidCounts, OutOfRange
from .ingestion import DOMAIN_CSV, INDEX_CSV, write_csv

# When the IQR of the window totals is 0, max(1.0, N_mean * IQR_EPSILON)
# stands in for it, so w never divides by zero. w is pi/2 only where
# every total is equal: with unequal totals a window one post off the
# mean usually moves w by pi/4, and a few posts take it close to 0 or pi.
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
    """Batch statistics of the window totals {N_t}.

    An IQR of 0 is replaced by max(1.0, n_mean * IQR_EPSILON), and
    iqr_degenerate is set. The weight is then pi/2 only if every total
    is equal; unequal totals still spread it across (0, pi).
    """

    n_mean: float
    iqr: float
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
        return cls(n_mean=mean, iqr=iqr, iqr_degenerate=degenerate)


def intensity_weight(total: int, stats: SeriesStats) -> float:
    """w_t in (0, pi), pi/2 at the mean; it rounds to pi only some 3e15 IQRs above the mean."""
    return math.atan2(stats.iqr, stats.n_mean - total)


def impact_index(p: float, w: float) -> float:
    """Product P * w, the per-category index on the (0, pi) scale."""
    if not 0.0 < p < 1.0:
        raise OutOfRange(f"p must be in (0, 1), got {p}")
    if not 0.0 < w < math.pi:
        raise OutOfRange(f"w must be in (0, pi), got {w}")
    return p * w


@dataclass(frozen=True)
class ImpactSeries:
    """The index stage over one count series; each weekly field starts at counts.start.

    shares and indices map each category to its P_t(c) and I_t(c);
    domains maps PHYSICAL and SOCIAL to their composites.
    """

    counts: WeeklySeries[tuple[int, ...]]
    stats: SeriesStats
    weights: WeeklySeries[float]
    shares: dict[ImpactCategory, WeeklySeries[float]]
    indices: dict[ImpactCategory, WeeklySeries[float]]
    domains: dict[Domain, WeeklySeries[float]]

    @property
    def weights_use_fallback_iqr(self) -> bool:
        """Whether the IQR stand-in shapes w_t: an IQR of 0 over totals that differ."""
        totals = [sum(window) for window in self.counts.windows]
        return self.stats.iqr_degenerate and min(totals) != max(totals)


def compute_impact_series(
    counts: WeeklySeries[tuple[int, ...]], config: IndexConfig
) -> ImpactSeries:
    """Run the full index stage over a count series.

    Composites combine the five member categories per domain (OTHER
    belongs to neither) under config.composite_operator; "sum" keeps
    sum-of-all-indices = w_t exact, "mean" divides by five. A window
    that is not 11 counts long raises ValueError.
    """
    for window in counts.windows:
        if len(window) != len(CATEGORIES):
            raise ValueError(f"a window needs {len(CATEGORIES)} counts, got {len(window)}")
    start = counts.start
    totals = [sum(window) for window in counts.windows]
    stats = SeriesStats.from_totals(totals, method=config.quantile_method)
    weights = [intensity_weight(total, stats) for total in totals]
    shares = [
        [smoothed_proportion(n, total, config) for n in window]
        for window, total in zip(counts.windows, totals)
    ]
    indices = [[impact_index(p, w) for p in row] for row, w in zip(shares, weights)]
    scale = 1.0 if config.composite_operator == "sum" else 1.0 / len(PHYSICAL_CATEGORIES)
    # CATEGORIES lists the five physical categories, then the five social ones.
    physical = tuple(scale * sum(row[:5]) for row in indices)
    social = tuple(scale * sum(row[5:10]) for row in indices)

    def by_category(rows: list[list[float]]) -> dict[ImpactCategory, WeeklySeries[float]]:
        return {c: WeeklySeries(start, column) for c, column in zip(CATEGORIES, zip(*rows))}

    return ImpactSeries(
        counts=counts,
        stats=stats,
        weights=WeeklySeries(start, tuple(weights)),
        shares=by_category(shares),
        indices=by_category(indices),
        domains={
            Domain.PHYSICAL: WeeklySeries(start, physical),
            Domain.SOCIAL: WeeklySeries(start, social),
        },
    )


def write_index_csv(series: ImpactSeries, path: str | Path) -> None:
    """Export the series as an index.csv (INDEX_CSV)."""

    def rows():
        counts = series.counts
        for t, (week, window) in enumerate(zip(counts.weeks, counts.windows)):
            total, w = sum(window), series.weights.windows[t]
            for c, n in zip(CATEGORIES, window):
                p, index = series.shares[c].windows[t], series.indices[c].windows[t]
                yield week.isoformat(), c.short_name, n, total, p, w, index

    write_csv(path, INDEX_CSV.names, rows())


def write_domain_csv(series: ImpactSeries, path: str | Path) -> None:
    """Export the domain composites as a domain.csv (DOMAIN_CSV)."""
    rows = (
        (week.isoformat(), d.value, series.domains[d].windows[t])
        for t, week in enumerate(series.counts.weeks)
        for d in (Domain.PHYSICAL, Domain.SOCIAL)
    )
    write_csv(path, DOMAIN_CSV.names, rows)
