"""
Weekly impact indices from raw category counts
==============================================

"""

import math
from datetime import date

from disimpact import Domain, IndexConfig, WeeklySeries, compute_impact_series
from disimpact.core import CATEGORIES

# Four weeks of labeled-post counts, one row per week, one column per
# impact category. Week three is the posting-volume spike.
weekly_counts = [
    [3, 1, 4, 0, 2, 1, 2, 0, 1, 0, 5],
    [5, 2, 7, 1, 3, 2, 4, 1, 2, 1, 8],
    [14, 6, 22, 3, 9, 7, 11, 2, 8, 3, 25],
    [6, 2, 9, 1, 4, 3, 5, 1, 3, 1, 10],
]

# A weekly series holds its first Monday and one window per week; a
# count window is the tuple of the 11 category counts.
counts = WeeklySeries(date(2024, 9, 2), tuple(map(tuple, weekly_counts)))
series = compute_impact_series(counts, IndexConfig())

# The intensity weight tracks each week's posting volume: pi/2 at the
# series mean, larger in the spike week, smaller in quiet weeks.
print("week  total  weight")
for t, (window, weight) in enumerate(zip(counts.windows, series.weights.windows)):
    print(f"{t:4d}  {sum(window):5d}  {weight:.4f}")

# Per-category breakdown for the spike week: smoothed share times the
# weight gives the index, and the shares always sum to one.
print()
print("spike week, per category: share * weight = index")
w = series.weights.windows[2]
for cat in CATEGORIES:
    p, index = series.shares[cat].windows[2], series.indices[cat].windows[2]
    print(f"{cat.short_name:>5}  {p:.4f} * {w:.4f} = {index:.4f}")
share_sum = sum(series.shares[cat].windows[2] for cat in CATEGORIES)
print(f"shares sum to {share_sum:.9f}")

# Domain composites collapse the categories to a physical and a social
# track, still on the (0, pi) scale.
print()
print("week  physical  social")
physical, social = series.domains[Domain.PHYSICAL], series.domains[Domain.SOCIAL]
for t, (phys, soc) in enumerate(zip(physical.windows, social.windows)):
    print(f"{t:4d}  {phys:8.4f}  {soc:6.4f}")
print(f"scale ceiling is pi = {math.pi:.4f}")
