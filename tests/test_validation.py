"""Tests for rank correlation, lead-lag profiles, and their narration."""

import math
import random
import statistics
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ANCHOR

from disimpact import (
    AllLagsUndefined,
    ConstantInput,
    Domain,
    EmptyInput,
    IndexConfig,
    LagCorrelationProfile,
    LengthMismatch,
    MalformedCsv,
    MisalignedGrids,
    OutOfRange,
    WeeklySeries,
    compute_impact_series,
    domain_weekly_series,
    interpret_profile,
    lead_lag_profile,
    read_domain_csv,
    spearman_rho,
    write_domain_csv,
    write_leadlag_csv,
)
from disimpact.validation import _midranks

WEEK = timedelta(days=7)


def weekly(values, start=ANCHOR) -> WeeklySeries:
    weeks = tuple(start + i * WEEK for i in range(len(values)))
    return WeeklySeries(weeks=weeks, values=tuple(float(v) for v in values))


def brute_midranks(values):
    return [
        sum(1 for u in values if u < v) + (sum(1 for u in values if u == v) + 1) / 2
        for v in values
    ]


def brute_spearman(x, y):
    return statistics.correlation(brute_midranks(x), brute_midranks(y))


paired_samples = (
    st.integers(3, 25)
    .flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 12), min_size=n, max_size=n),
            st.lists(st.integers(0, 12), min_size=n, max_size=n),
        )
    )
    .filter(lambda xy: min(xy[0]) != max(xy[0]) and min(xy[1]) != max(xy[1]))
)


class TestMidranks:
    def test_ties_share_the_average_rank(self):
        assert _midranks([10, 20, 20, 40]) == [1.0, 2.5, 2.5, 4.0]

    def test_distinct_values_get_plain_ranks(self):
        assert _midranks([30, 10, 20]) == [3.0, 1.0, 2.0]

    @given(st.lists(st.integers(0, 8), min_size=1, max_size=40))
    def test_matches_the_counting_definition(self, values):
        assert _midranks(values) == brute_midranks(values)


class TestSpearman:
    def test_perfect_monotone_agreement(self):
        assert spearman_rho([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0

    def test_perfect_monotone_disagreement(self):
        assert spearman_rho([1, 2, 3, 4], [8, 6, 4, 2]) == -1.0

    def test_tied_pair(self):
        rho = spearman_rho([1, 2, 2, 4], [1, 3, 2, 4])
        assert rho == pytest.approx(0.9486832980505138, abs=1e-15)
        assert rho == pytest.approx(math.sqrt(0.9), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            spearman_rho([1, 2, 3], [1, 2])

    def test_needs_three_pairs(self):
        with pytest.raises(EmptyInput):
            spearman_rho([1, 2], [3, 4])

    def test_constant_vector_undefined(self):
        with pytest.raises(ConstantInput):
            spearman_rho([5, 5, 5], [1, 2, 3])
        with pytest.raises(ConstantInput):
            spearman_rho([1, 2, 3], [7, 7, 7])

    @given(paired_samples)
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force_oracle(self, xy):
        x, y = xy
        assert spearman_rho(x, y) == pytest.approx(brute_spearman(x, y), abs=1e-9)

    @given(paired_samples)
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, xy):
        x, y = xy
        assert spearman_rho(x, y) == pytest.approx(spearman_rho(y, x), abs=1e-12)

    @given(paired_samples)
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_increasing_transforms(self, xy):
        x, y = xy
        stretched = [v**3 + 2 * v for v in x]
        assert spearman_rho(stretched, y) == pytest.approx(
            spearman_rho(x, y), abs=1e-12
        )

    @given(paired_samples)
    @settings(max_examples=50, deadline=None)
    def test_clamped_to_unit_interval(self, xy):
        assert -1.0 <= spearman_rho(*xy) <= 1.0


class TestWeeklySeries:
    def test_requires_at_least_one_week(self):
        with pytest.raises(EmptyInput):
            WeeklySeries(weeks=(), values=())

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            WeeklySeries(weeks=(ANCHOR,), values=(1.0, 2.0))

    def test_weeks_must_step_by_seven_days(self):
        with pytest.raises(ValueError):
            WeeklySeries(
                weeks=(ANCHOR, ANCHOR + timedelta(days=8)), values=(1.0, 2.0)
            )

    def test_values_must_be_finite(self):
        with pytest.raises(ValueError):
            WeeklySeries(weeks=(ANCHOR,), values=(float("nan"),))


class TestDomainSeries:
    def build_series(self):
        from conftest import spread_posts

        from disimpact import build_count_series

        posts = spread_posts({0: {3: 4, 7: 1}, 1: {3: 1}, 2: {2: 2, 9: 3}})
        counts, _ = build_count_series(
            posts,
            IndexConfig(window_anchor=ANCHOR),
            ANCHOR,
            ANCHOR + timedelta(days=21),
        )
        return compute_impact_series(counts, IndexConfig(window_anchor=ANCHOR))

    def test_weekly_view_matches_the_composites(self):
        series = self.build_series()
        view = domain_weekly_series(series, Domain.PHYSICAL)
        assert view.weeks == series.weeks
        assert view.values == series.domains[Domain.PHYSICAL]

    def test_csv_round_trip_by_domain(self, tmp_path):
        series = self.build_series()
        path = tmp_path / "domain.csv"
        write_domain_csv(series, path)
        for domain in (Domain.PHYSICAL, Domain.SOCIAL):
            loaded = read_domain_csv(path, domain)
            assert loaded.weeks == series.weeks
            for got, want in zip(loaded.values, series.domains[domain]):
                assert got == pytest.approx(want, abs=1e-9)

    def test_read_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "domain.csv"
        path.write_text("week_start,value\n2024-09-02,1.0\n")
        with pytest.raises(MalformedCsv):
            read_domain_csv(path, Domain.PHYSICAL)

    def test_read_requires_rows_for_the_domain(self, tmp_path):
        path = tmp_path / "domain.csv"
        path.write_text(
            "window_start,domain,composite\n2024-09-02,physical,0.5\n"
        )
        with pytest.raises(EmptyInput):
            read_domain_csv(path, Domain.SOCIAL)


def shifted_pair(shift_weeks: int, n_weeks: int = 12, seed: int = 5):
    """Index series plus a truth series equal to the index shifted later."""
    rng = random.Random(seed)
    index_values = rng.sample(range(100), n_weeks)
    truth_values = [
        index_values[i - shift_weeks] if 0 <= i - shift_weeks < n_weeks else rng.random()
        for i in range(n_weeks)
    ]
    return weekly(index_values), weekly(truth_values)


class TestLeadLagProfile:
    def test_recovers_a_constructed_shift(self):
        index, truth = shifted_pair(3)
        profile = lead_lag_profile(index, truth, max_lag=3)
        assert profile.rho[3] == 1.0
        assert profile.overlap[3] == 9
        others = [abs(profile.rho[lag]) for lag in profile.lags if lag != 3]
        assert max(others) < 1.0

    def test_reversed_ranks_score_minus_one(self):
        index = weekly(range(10))
        truth = weekly(range(10, 0, -1))
        profile = lead_lag_profile(index, truth, max_lag=2)
        assert profile.rho[0] == -1.0

    def test_self_correlation_peaks_at_zero_lag(self):
        index = weekly(random.Random(11).sample(range(50), 10))
        profile = lead_lag_profile(index, index, max_lag=3)
        assert profile.rho[0] == 1.0

    def test_independent_series_stay_weak(self):
        rng = random.Random(31)
        index = weekly([rng.random() for _ in range(200)])
        truth = weekly([rng.random() for _ in range(200)])
        profile = lead_lag_profile(index, truth, max_lag=3)
        for lag in profile.lags:
            assert abs(profile.rho[lag]) < 0.2

    def test_overlap_shrinks_by_the_lag(self):
        index = weekly(random.Random(3).sample(range(60), 10))
        truth = weekly(random.Random(4).sample(range(60), 10))
        profile = lead_lag_profile(index, truth, max_lag=3)
        for lag in profile.lags:
            assert profile.overlap[lag] == 10 - abs(lag)

    def test_short_overlap_is_none_not_an_error(self):
        index = weekly(random.Random(6).sample(range(30), 5))
        truth = weekly(random.Random(8).sample(range(30), 5))
        profile = lead_lag_profile(index, truth, max_lag=3)
        assert profile.rho[3] is None
        assert profile.rho[-3] is None
        assert 3 not in profile.defined_lags()
        assert profile.overlap[3] == 2

    def test_partial_week_overlap(self):
        index = weekly(random.Random(9).sample(range(40), 8))
        truth = weekly(random.Random(10).sample(range(40), 8), start=ANCHOR + 4 * WEEK)
        profile = lead_lag_profile(index, truth, max_lag=1)
        # Index weeks 4..7 pair with truth weeks 0..3 at lag 0.
        assert profile.overlap[0] == 4

    def test_all_lags_undefined(self):
        index = weekly([1, 2])
        truth = weekly([3, 4])
        with pytest.raises(AllLagsUndefined):
            lead_lag_profile(index, truth, max_lag=1)

    def test_constant_series_has_no_defined_lag(self):
        index = weekly([5, 5, 5, 5])
        truth = weekly([1, 2, 3, 4])
        with pytest.raises(AllLagsUndefined):
            lead_lag_profile(index, truth, max_lag=0)

    def test_misaligned_grids(self):
        index = weekly([1, 2, 3, 4])
        truth = weekly([1, 2, 3, 4], start=ANCHOR + timedelta(days=3))
        with pytest.raises(MisalignedGrids):
            lead_lag_profile(index, truth, max_lag=1)

    def test_same_phase_different_start_is_fine(self):
        index = weekly(random.Random(2).sample(range(30), 6))
        truth = weekly(random.Random(5).sample(range(30), 6), start=ANCHOR + WEEK)
        profile = lead_lag_profile(index, truth, max_lag=1)
        assert profile.overlap[1] == 6  # truth runs one week later

    def test_negative_max_lag(self):
        with pytest.raises(OutOfRange):
            lead_lag_profile(weekly([1, 2, 3]), weekly([1, 2, 3]), max_lag=-1)

    def test_antisymmetry_under_swapping_series(self):
        index, truth = shifted_pair(2, seed=13)
        forward = lead_lag_profile(index, truth, max_lag=3)
        backward = lead_lag_profile(truth, index, max_lag=3)
        for lag in forward.lags:
            f, b = forward.rho[lag], backward.rho[-lag]
            if f is None or b is None:
                assert f is None and b is None
            else:
                assert f == pytest.approx(b, abs=1e-12)

    def test_monotone_transform_of_truth_changes_nothing(self):
        index, truth = shifted_pair(1, seed=17)
        stretched = WeeklySeries(
            weeks=truth.weeks, values=tuple(v**3 + v for v in truth.values)
        )
        original = lead_lag_profile(index, truth, max_lag=3)
        transformed = lead_lag_profile(index, stretched, max_lag=3)
        for lag in original.lags:
            assert transformed.rho[lag] == pytest.approx(
                original.rho[lag], abs=1e-12
            )


def profile_with(rho: dict[int, float | None], overlap=9) -> LagCorrelationProfile:
    lags = tuple(sorted(rho))
    return LagCorrelationProfile(
        lags=lags, rho=rho, overlap={lag: overlap for lag in lags}
    )


class TestInterpretProfile:
    def test_meaningful_negative_lag(self):
        rho = {lag: 0.1 for lag in range(-3, 4)}
        rho[-3] = 0.44
        result = interpret_profile(profile_with(rho))
        assert result["best_lag"] == -3
        assert result["strength"] == "meaningful"
        assert result["meaningful"] is True
        assert result["narrative"] == "index leads the ground truth by 3 weeks"
        assert result["statement"] == (
            "strongest association at -3 weeks (rho = 0.440, meaningful range): "
            "index leads the ground truth by 3 weeks"
        )
        assert result["formula_reading"] == (
            "lag -3 pairs each index week with the ground-truth value 3 weeks earlier"
        )

    def test_contemporaneous_zero_lag(self):
        rho = {lag: 0.2 for lag in range(-2, 3)}
        rho[0] = 0.8
        result = interpret_profile(profile_with(rho))
        assert result["best_lag"] == 0
        assert result["strength"] == "strong"
        assert result["narrative"] == "contemporaneous"
        assert result["formula_reading"] == "lag 0 pairs each week with itself"

    def test_singular_week_wording(self):
        rho = {lag: 0.1 for lag in range(-1, 2)}
        rho[1] = 0.6
        result = interpret_profile(profile_with(rho))
        assert result["narrative"] == "ground truth leads the index by 1 week"
        assert "+1 weeks" in result["statement"]

    def test_weak_association(self):
        rho = {0: 0.1, 1: 0.2}
        result = interpret_profile(profile_with(rho))
        assert result["strength"] == "weak"
        assert result["meaningful"] is False

    def test_negative_rho_ranked_by_magnitude(self):
        rho = {0: 0.3, 1: -0.7}
        result = interpret_profile(profile_with(rho))
        assert result["best_lag"] == 1
        assert result["best_rho"] == -0.7
        assert result["abs_rho"] == 0.7
        assert result["strength"] == "strong"

    def test_tie_breaks_toward_small_then_negative_lag(self):
        rho = {-2: 0.5, -1: 0.5, 1: 0.5, 2: 0.5}
        assert interpret_profile(profile_with(rho))["best_lag"] == -1
        rho = {0: -0.5, 2: 0.5}
        assert interpret_profile(profile_with(rho))["best_lag"] == 0

    def test_undefined_lags_are_skipped(self):
        rho = {-1: None, 0: 0.35, 1: None}
        result = interpret_profile(profile_with(rho))
        assert result["best_lag"] == 0
        assert result["defined_lags"] == [0]

    def test_strength_band_edges(self):
        assert interpret_profile(profile_with({0: 0.3}))["strength"] == "meaningful"
        assert interpret_profile(profile_with({0: 0.5}))["strength"] == "meaningful"
        assert interpret_profile(profile_with({0: 0.51}))["strength"] == "strong"
        assert interpret_profile(profile_with({0: 0.29}))["strength"] == "weak"

    def test_fully_undefined_profile(self):
        with pytest.raises(AllLagsUndefined):
            interpret_profile(profile_with({0: None, 1: None}))


class TestLeadLagCsv:
    def test_undefined_rho_writes_an_empty_field(self, tmp_path):
        profile = profile_with({-1: None, 0: 0.40606060599999, 1: 1.0})
        path = tmp_path / "leadlag.csv"
        write_leadlag_csv(profile, path)
        assert path.read_text().splitlines() == [
            "lag_weeks,rho,overlap",
            "-1,,9",
            "0,0.406060606,9",
            "1,1.000000000,9",
        ]

    def test_full_profile_from_data(self, tmp_path):
        index, truth = shifted_pair(3)
        profile = lead_lag_profile(index, truth, max_lag=3)
        path = tmp_path / "leadlag.csv"
        write_leadlag_csv(profile, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "lag_weeks,rho,overlap"
        assert len(lines) == 8
        assert lines[-1] == "3,1.000000000,9"
