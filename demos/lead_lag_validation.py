"""
Checking whether an index moves before an external weekly signal
================================================================

"""

import random
from datetime import date

from disimpact import WeeklySeries, interpret_profile, lead_lag_profile

# Twelve weekly index readings with a clear mid-series surge.
rng = random.Random(11)
index_values = [0.4, 0.5, 0.9, 1.6, 2.3, 2.1, 1.7, 1.2, 0.9, 0.7, 0.6, 0.5]

# The external signal reacts one week later: each week repeats the
# index value of the previous week, plus a little measurement noise.
truth_values = [index_values[0] * 0.8] + [
    v + rng.uniform(-0.05, 0.05) for v in index_values[:-1]
]

# Both series start on the same Monday, one value per week.
start = date(2024, 9, 2)
index = WeeklySeries(start, tuple(index_values))
truth = WeeklySeries(start, tuple(truth_values))

# Rank-correlate the two series at every offset from -3 to +3 weeks.
# Positive lags pair this week's index with later ground truth.
profile = lead_lag_profile(index, truth, max_lag=3)
print("lag   rho      overlap")
for lag in profile.lags:
    rho = profile.rho[lag]
    shown = f"{rho:+.3f}" if rho is not None else "  n/a"
    print(f"{lag:+d}   {shown}   {profile.overlap[lag]:2d} weeks")

# The interpretation picks the strongest offset and narrates it twice:
# a headline under the conventional lag-sign labeling, then the literal
# pairing arithmetic so the direction cannot be misread.
reading = interpret_profile(profile)
print()
print(reading["statement"])
print(reading["formula_reading"])
