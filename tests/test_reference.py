"""Tests for the bundled reference category distributions."""

import pytest

from conftest import category

from disimpact import (
    DisasterTag,
    MalformedCsv,
    Platform,
    counts_by_category,
    load_reference_distribution,
)
from disimpact.core import CATEGORIES

PLATFORM_TOTALS = {
    DisasterTag.HURRICANE: {
        Platform.REDDIT: 9666,
        Platform.TIKTOK: 47921,
        Platform.YOUTUBE: 1707,
    },
    DisasterTag.WILDFIRE: {
        Platform.REDDIT: 6204,
        Platform.TIKTOK: 17567,
        Platform.YOUTUBE: 1339,
    },
}


class TestLoading:
    @pytest.mark.parametrize("disaster", [DisasterTag.HURRICANE, DisasterTag.WILDFIRE])
    def test_three_platforms_times_eleven_categories(self, disaster):
        rows = load_reference_distribution(disaster)
        assert len(rows) == 33
        platforms = {row.platform for row in rows}
        assert platforms == set(PLATFORM_TOTALS[disaster])

    @pytest.mark.parametrize(
        "disaster,platform,total",
        [
            (d, p, t)
            for d, by_platform in PLATFORM_TOTALS.items()
            for p, t in by_platform.items()
        ],
    )
    def test_platform_totals(self, disaster, platform, total):
        rows = load_reference_distribution(disaster)
        counts = counts_by_category(rows, platform)
        assert sum(counts.values()) == total

    def test_known_cell_values(self):
        rows = load_reference_distribution(DisasterTag.HURRICANE)
        counts = counts_by_category(rows, Platform.REDDIT)
        assert counts[category(3)] == 1720
        assert counts[category(11)] == 2583

    def test_published_percentages_are_recorded(self):
        rows = load_reference_distribution(DisasterTag.HURRICANE)
        infr = [
            row
            for row in rows
            if row.platform is Platform.REDDIT and row.category is category(3)
        ]
        assert len(infr) == 1
        assert infr[0].published_pct == 18

    def test_percentages_sum_near_one_hundred(self):
        for disaster in (DisasterTag.HURRICANE, DisasterTag.WILDFIRE):
            rows = load_reference_distribution(disaster)
            for platform in PLATFORM_TOTALS[disaster]:
                pct = [
                    row.published_pct for row in rows if row.platform is platform
                ]
                assert sum(pct) == 100
                assert min(pct) >= 1


class TestCountsByCategory:
    def test_complete_mapping(self):
        rows = load_reference_distribution(DisasterTag.WILDFIRE)
        counts = counts_by_category(rows, Platform.TIKTOK)
        assert set(counts) == set(CATEGORIES)

    def test_missing_platform_is_an_error(self):
        rows = load_reference_distribution(DisasterTag.HURRICANE)
        filtered = [row for row in rows if row.platform is not Platform.YOUTUBE]
        with pytest.raises(MalformedCsv):
            counts_by_category(filtered, Platform.YOUTUBE)

    def test_missing_category_is_an_error(self):
        rows = load_reference_distribution(DisasterTag.HURRICANE)
        filtered = [row for row in rows if row.category is not category(5)]
        with pytest.raises(MalformedCsv):
            counts_by_category(filtered, Platform.REDDIT)
