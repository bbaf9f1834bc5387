"""Tests for smoothed proportions, intensity weights, and impact indices."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ANCHOR

from disimpact import (
    Domain,
    EmptyInput,
    ImpactSeries,
    IndexConfig,
    InvalidCounts,
    OutOfRange,
    SeriesStats,
    WeeklySeries,
    compute_impact_series,
    compute_iqr,
    impact_index,
    intensity_weight,
    smoothed_proportion,
    write_domain_csv,
    write_index_csv,
)
from disimpact.core import CATEGORIES, PHYSICAL_CATEGORIES, SOCIAL_CATEGORIES
from disimpact.impact import QUANTILE_METHODS

CONFIG = IndexConfig(window_anchor=ANCHOR)

count_vectors = st.lists(st.integers(0, 500), min_size=11, max_size=11)


def series_from_vectors(vectors) -> WeeklySeries:
    return WeeklySeries(ANCHOR, tuple(tuple(int(n) for n in vec) for vec in vectors))


class TestSmoothedProportion:
    def test_empty_window_share(self):
        assert smoothed_proportion(0, 0, CONFIG) == pytest.approx(
            0.09090909090909091, abs=1e-15
        )

    def test_uniform_counts_give_uniform_share(self):
        assert smoothed_proportion(5, 55, CONFIG) == pytest.approx(1 / 11, abs=1e-15)

    def test_dense_window_share(self):
        p = smoothed_proportion(1720, 9666, CONFIG)
        assert p == pytest.approx(0.17789381171483223, abs=1e-15)
        # Half-integer operands are exact in binary, so the division is
        # the correctly rounded value of the underlying rational.
        assert p == float(Fraction(3441, 19343))

    def test_rejects_negative_and_inconsistent_counts(self):
        with pytest.raises(InvalidCounts):
            smoothed_proportion(-1, 5, CONFIG)
        with pytest.raises(InvalidCounts):
            smoothed_proportion(0, -1, CONFIG)
        with pytest.raises(InvalidCounts):
            smoothed_proportion(6, 5, CONFIG)

    def test_alpha_scales_the_floor(self):
        sharp = IndexConfig(alpha=0.1, window_anchor=ANCHOR)
        assert smoothed_proportion(0, 100, sharp) < smoothed_proportion(0, 100, CONFIG)

    @given(count_vectors)
    def test_shares_sum_to_one(self, vec):
        total = sum(vec)
        shares = [smoothed_proportion(n, total, CONFIG) for n in vec]
        assert abs(sum(shares) - 1.0) < 1e-9

    @given(count_vectors)
    def test_shares_stay_inside_the_open_interval(self, vec):
        total = sum(vec)
        for n in vec:
            assert 0.0 < smoothed_proportion(n, total, CONFIG) < 1.0

    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    def test_monotone_in_count(self, n, extra):
        total = n + extra + 1
        assert smoothed_proportion(n + 1, total, CONFIG) > smoothed_proportion(
            n, total, CONFIG
        )

    @given(count_vectors)
    def test_smoothing_floor(self, vec):
        total = sum(vec)
        floor = CONFIG.alpha / (total + CONFIG.alpha * len(CATEGORIES))
        for n in vec:
            p = smoothed_proportion(n, total, CONFIG)
            assert p >= floor
            if n == 0:
                assert p == pytest.approx(floor, abs=1e-18)

    def test_limits(self):
        big = 10**9
        assert smoothed_proportion(big, big, CONFIG) > 1 - 1e-8
        assert smoothed_proportion(0, big, CONFIG) < 1e-8


class TestIqr:
    def test_constant_sample(self):
        assert compute_iqr([5, 5, 5, 5]) == 0.0

    def test_evenly_spread_sample(self):
        assert compute_iqr([1, 2, 3, 4]) == 1.5

    def test_outlier_barely_moves_it(self):
        assert compute_iqr([1, 2, 3, 4, 100]) == 2.0

    def test_order_invariance(self):
        assert compute_iqr([4, 1, 3, 2]) == 1.5

    def test_quantile_methods(self):
        sample = [1, 2, 3, 4]
        assert compute_iqr(sample, method="lower") == 2.0
        assert compute_iqr(sample, method="higher") == 2.0
        assert compute_iqr(sample, method="nearest") == 1.0
        assert compute_iqr(sample, method="midpoint") == 2.0

    def test_empty_sample(self):
        with pytest.raises(EmptyInput):
            compute_iqr([])

    @pytest.mark.parametrize("method", ["hazen", "Linear", "", "weibull"])
    def test_unknown_method_is_refused(self, method):
        with pytest.raises(OutOfRange):
            compute_iqr([1, 2, 3, 4], method=method)


# Bounded so that no difference of two values overflows to inf.
samples = st.one_of(
    st.lists(st.integers(-(10**12), 10**12), min_size=1, max_size=60),
    st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=60),
    st.lists(st.sampled_from([0, 1, 2, 2.5, 7, 1e6]), min_size=1, max_size=60),
)


class TestNumpyOracle:
    @settings(max_examples=500, deadline=None)
    @given(samples, st.sampled_from(QUANTILE_METHODS))
    # Samples where a + (b - a) * g alone would miss numpy by one ulp.
    @example([0.1, 1.1], "linear")
    @example([0.1, 0.1, 0.7], "midpoint")
    def test_iqr_is_numpy_percentile(self, values, method):
        q1, q3 = np.percentile(np.asarray(values, dtype=float), [25.0, 75.0], method=method)
        assert compute_iqr(values, method=method) == float(q3 - q1)

    @given(st.lists(st.integers(0, 10**9), min_size=1, max_size=200))
    def test_mean_is_numpy_mean(self, totals):
        assert SeriesStats.from_totals(totals).n_mean == float(np.mean(totals))


class TestSeriesStats:
    def test_constant_totals_fall_back_to_unit_width(self):
        stats = SeriesStats.from_totals([5, 5, 5, 5])
        assert stats.iqr_degenerate
        assert stats.iqr == 1.0
        assert stats.n_mean == 5.0

    def test_fallback_scales_with_the_mean(self):
        stats = SeriesStats.from_totals([2_000_000] * 4)
        assert stats.iqr_degenerate
        assert stats.iqr == 2.0

    def test_healthy_sample_keeps_its_iqr(self):
        stats = SeriesStats.from_totals([0, 10])
        assert not stats.iqr_degenerate
        assert stats.iqr == 5.0
        assert stats.n_mean == 5.0

    def test_empty_totals(self):
        with pytest.raises(EmptyInput):
            SeriesStats.from_totals([])


class TestIntensityWeight:
    def test_mean_volume_sits_at_the_midpoint(self):
        stats = SeriesStats(n_mean=100.0, iqr=7.0)
        assert intensity_weight(100, stats) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_one_iqr_above_the_mean(self):
        stats = SeriesStats(n_mean=0.0, iqr=1.0)
        assert intensity_weight(1, stats) == pytest.approx(3 * math.pi / 4, abs=1e-12)

    def test_ten_iqr_below_the_mean(self):
        stats = SeriesStats(n_mean=10.0, iqr=1.0)
        assert intensity_weight(0, stats) == pytest.approx(
            0.09966865249116186, abs=1e-15
        )

    def test_saturation_at_extreme_volumes(self):
        stats = SeriesStats(n_mean=0.0, iqr=1.0)
        assert intensity_weight(1000, stats) == pytest.approx(math.pi, abs=1e-3)
        assert intensity_weight(-1000, stats) == pytest.approx(0.0, abs=1e-3)
        # arctan(x) + pi/2 cancels to exactly 0.0 here; atan2 keeps the 1e-17.
        assert 0.0 < intensity_weight(0, SeriesStats(n_mean=1e17, iqr=1.0)) < math.pi

    @given(st.integers(-10**6, 10**6), st.floats(0.5, 1e6), st.floats(-1e6, 1e6))
    def test_always_strictly_inside_zero_pi(self, total, iqr, mean):
        stats = SeriesStats(n_mean=mean, iqr=iqr)
        w = intensity_weight(total, stats)
        assert 0.0 < w < math.pi

    def test_monotone_in_volume(self):
        stats = SeriesStats(n_mean=50.0, iqr=10.0)
        weights = [intensity_weight(n, stats) for n in range(0, 101, 10)]
        assert weights == sorted(weights)
        assert all(a < b for a, b in zip(weights, weights[1:]))


class TestImpactIndex:
    def test_uniform_share_at_mean_volume(self):
        assert impact_index(1 / 11, math.pi / 2) == pytest.approx(
            0.14279966607226333, abs=1e-15
        )

    def test_dense_window_chain(self):
        p = smoothed_proportion(1720, 9666, CONFIG)
        idx = impact_index(p, math.pi / 2)
        assert idx == pytest.approx(0.2794349460012014, abs=1e-14)
        assert idx == pytest.approx(0.279424, abs=1e-4)

    def test_rejects_degenerate_share(self):
        with pytest.raises(OutOfRange):
            impact_index(0.0, math.pi / 2)
        with pytest.raises(OutOfRange):
            impact_index(1.0, math.pi / 2)

    def test_rejects_weight_outside_zero_pi(self):
        with pytest.raises(OutOfRange):
            impact_index(0.5, 0.0)
        with pytest.raises(OutOfRange):
            impact_index(0.5, math.pi)

    @given(st.floats(1e-6, 1 - 1e-6), st.floats(1e-6, math.pi - 1e-6))
    def test_bounded_by_the_weight(self, p, w):
        idx = impact_index(p, w)
        assert 0.0 < idx < w < math.pi


class TestComputeImpactSeries:
    def test_single_empty_window(self):
        series = compute_impact_series(series_from_vectors([[0] * 11]), CONFIG)
        assert series.stats.iqr_degenerate
        (w,) = series.weights.windows
        assert w == pytest.approx(math.pi / 2, abs=1e-12)
        for cat in CATEGORIES:
            (p,) = series.shares[cat].windows
            (index,) = series.indices[cat].windows
            assert p == pytest.approx(1 / 11, abs=1e-15)
            assert index == pytest.approx(math.pi / 22, abs=1e-12)
        for domain in (Domain.PHYSICAL, Domain.SOCIAL):
            (composite,) = series.domains[domain].windows
            assert composite == pytest.approx(0.7139983303613165, abs=1e-12)

    def test_busy_window_weighs_more_than_quiet_window(self):
        vectors = [[0] * 10 + [10], [0] * 11]
        series = compute_impact_series(series_from_vectors(vectors), CONFIG)
        w0, w1 = series.weights.windows
        assert w0 == pytest.approx(3 * math.pi / 4, abs=1e-12)
        assert w1 == pytest.approx(math.pi / 4, abs=1e-12)
        assert w0 > math.pi / 2 > w1

    def test_weights_shared_across_categories(self):
        vectors = [[1, 0, 4, 0, 0, 2, 0, 0, 0, 3, 1], [0] * 11]
        series = compute_impact_series(series_from_vectors(vectors), CONFIG)
        for cat in CATEGORIES:
            shares, indices = series.shares[cat].windows, series.indices[cat].windows
            assert list(indices) == [p * w for p, w in zip(shares, series.weights.windows)]

    def test_empty_series(self):
        with pytest.raises(EmptyInput):
            compute_impact_series(WeeklySeries(ANCHOR, ()), CONFIG)

    def test_unknown_composite_operator(self):
        with pytest.raises(OutOfRange, match="composite_operator must be one of"):
            compute_impact_series(
                series_from_vectors([[0] * 11]),
                IndexConfig(window_anchor=ANCHOR, composite_operator="median"),
            )

    def test_mean_composite_is_sum_over_five(self):
        vectors = [[3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5], [0] * 11]
        summed = compute_impact_series(series_from_vectors(vectors), CONFIG)
        averaged = compute_impact_series(
            series_from_vectors(vectors), IndexConfig(composite_operator="mean")
        )
        for domain in (Domain.PHYSICAL, Domain.SOCIAL):
            for s, m in zip(summed.domains[domain].windows, averaged.domains[domain].windows):
                assert m == pytest.approx(s / 5, abs=1e-12)

    def test_quantile_method_changes_the_weights(self):
        vectors = [[t] + [0] * 10 for t in (1, 2, 3, 4)]
        linear = compute_impact_series(series_from_vectors(vectors), CONFIG)
        nearest = compute_impact_series(
            series_from_vectors(vectors), IndexConfig(quantile_method="nearest")
        )
        assert linear.stats.iqr == 1.5
        assert nearest.stats.iqr == 1.0

    @given(st.lists(count_vectors, min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_indices_partition_the_weight(self, vectors):
        series = compute_impact_series(series_from_vectors(vectors), CONFIG)
        for t, w in enumerate(series.weights.windows):
            total = sum(series.indices[cat].windows[t] for cat in CATEGORIES)
            assert abs(total - w) < 1e-9
            physical = series.domains[Domain.PHYSICAL].windows[t]
            social = series.domains[Domain.SOCIAL].windows[t]
            other = series.indices[CATEGORIES[-1]].windows[t]
            assert abs(physical + social + other - w) < 1e-9

    @given(st.lists(count_vectors, min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_every_index_is_inside_zero_pi(self, vectors):
        series = compute_impact_series(series_from_vectors(vectors), CONFIG)
        for indices in series.indices.values():
            for index in indices.windows:
                assert 0.0 < index < math.pi


class TestCsvExports:
    def dense_series(self) -> ImpactSeries:
        vec = [332, 368, 1720, 738, 174, 155, 623, 504, 866, 1603, 2583]
        return compute_impact_series(series_from_vectors([vec]), CONFIG)

    def test_index_csv_format(self, tmp_path):
        path = tmp_path / "index.csv"
        write_index_csv(self.dense_series(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "window_start,category,n,total,p,w,index"
        assert len(lines) == 1 + 11
        infr = [line for line in lines if ",INFR," in line]
        assert infr == [
            "2024-09-02,INFR,1720,9666,0.177893812,1.570796327,0.279434946"
        ]

    def test_domain_csv_format(self, tmp_path):
        series = compute_impact_series(series_from_vectors([[0] * 11]), CONFIG)
        path = tmp_path / "domain.csv"
        write_domain_csv(series, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "window_start,domain,composite"
        assert lines[1] == "2024-09-02,physical,0.713998330"
        assert lines[2] == "2024-09-02,social,0.713998330"

    def test_exports_are_deterministic(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_index_csv(self.dense_series(), first)
        write_index_csv(self.dense_series(), second)
        assert first.read_bytes() == second.read_bytes()
