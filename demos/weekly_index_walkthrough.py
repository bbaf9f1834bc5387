"""
Weekly impact indices from raw category counts
==============================================

"""

import math
from datetime import date

from disimpact import CountSeries, Domain, IndexConfig, WindowCounts, compute_impact_series
from disimpact.core import CATEGORIES, WEEK

# Four weeks of labeled-post counts, one row per week, one column per
# impact category. Week three is the posting-volume spike.
weekly_counts = [
    [3, 1, 4, 0, 2, 1, 2, 0, 1, 0, 5],
    [5, 2, 7, 1, 3, 2, 4, 1, 2, 1, 8],
    [14, 6, 22, 3, 9, 7, 11, 2, 8, 3, 25],
    [6, 2, 9, 1, 4, 3, 5, 1, 3, 1, 10],
]

# Pack the rows into the weekly count container the library expects,
# each keyed by the Monday its week starts on.
anchor = date(2024, 9, 2)
windows = []
for week, row in enumerate(weekly_counts):
    counts = {cat: row[i] for i, cat in enumerate(CATEGORIES)}
    windows.append(
        WindowCounts(start=anchor + week * WEEK, n=counts, total=sum(counts.values()))
    )
series = compute_impact_series(CountSeries(windows=tuple(windows)), IndexConfig())

# The intensity weight tracks each week's posting volume: pi/2 at the
# series mean, larger in the spike week, smaller in quiet weeks.
print("week  total  weight")
for t, wc in enumerate(series.counts.windows):
    print(f"{t:4d}  {wc.total:5d}  {series.weights[t]:.4f}")

# Per-category breakdown for the spike week: smoothed share times the
# weight gives the index, and the shares always sum to one.
print()
print("spike week, per category: share * weight = index")
for cat in CATEGORIES:
    point = series.per_category[cat][2]
    print(f"{cat.short_name:>5}  {point.p:.4f} * {point.w:.4f} = {point.index:.4f}")
share_sum = sum(series.per_category[cat][2].p for cat in CATEGORIES)
print(f"shares sum to {share_sum:.9f}")

# Domain composites collapse the categories to a physical and a social
# track, still on the (0, pi) scale.
print()
print("week  physical  social")
for t in range(len(series.weeks)):
    physical = series.domains[Domain.PHYSICAL][t]
    social = series.domains[Domain.SOCIAL][t]
    print(f"{t:4d}  {physical:8.4f}  {social:6.4f}")
print(f"scale ceiling is pi = {math.pi:.4f}")
