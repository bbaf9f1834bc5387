"""Tests for window assignment and per-window category counting."""

from collections import Counter
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ANCHOR, category, spread_posts

from disimpact import (
    BeforeAnchor,
    IndexConfig,
    LoadReport,
    MalformedCsv,
    MisalignedRange,
    WeeklySeries,
    build_count_series,
    compute_impact_series,
    iter_posts,
    monday_on_or_before,
    read_counts_csv,
    write_counts_csv,
)
from disimpact.core import CATEGORIES, WEEK

CONFIG = IndexConfig(window_anchor=ANCHOR)

# Per-category counts for one densely populated window, summing to 9,666.
DENSE_WINDOW = {
    1: 332, 2: 368, 3: 1720, 4: 738, 5: 174, 6: 155,
    7: 623, 8: 504, 9: 866, 10: 1603, 11: 2583,
}


def tally(*days, code=3):
    """The (day, category) tally of one post labelled `code` on each day."""
    return Counter((day, category(code)) for day in days)


def week_of(tmp_path, stamp):
    """Start of the one week spanning a single posts.jsonl post made at stamp."""
    path = tmp_path / "posts.jsonl"
    path.write_text(
        '{"id": "p1", "platform": "reddit", "text": "x", "created_at": "%s"}\n' % stamp,
        encoding="utf-8",
    )
    (post,) = iter_posts(path, LoadReport())
    series, _ = build_count_series(tally(post.created_date), CONFIG)
    (window,) = series.windows
    assert sum(window) == 1
    return series.start


def span(series):
    return series.start, series.start + len(series.windows) * WEEK


def totals(series):
    return tuple(map(sum, series.windows))


def n(window, code):
    """The count of category `code` in one window."""
    return window[code - 1]


class TestMondayGrid:
    def test_midweek_rolls_back(self):
        assert monday_on_or_before(date(2024, 9, 4)) == date(2024, 9, 2)

    def test_monday_is_fixed_point(self):
        assert monday_on_or_before(date(2024, 9, 2)) == date(2024, 9, 2)

    def test_sunday_rolls_back_six_days(self):
        assert monday_on_or_before(date(2024, 9, 8)) == date(2024, 9, 2)

    def test_derive_anchor_uses_earliest_post(self):
        posts = tally(date(2024, 9, 12), date(2024, 9, 5))
        series, _ = build_count_series(posts, IndexConfig())
        assert series.start == date(2024, 9, 2)

    def test_derive_anchor_needs_posts(self):
        with pytest.raises(ValueError):
            build_count_series(Counter(), IndexConfig())


class TestAssignWindow:
    def test_anchor_midnight_is_window_zero(self, tmp_path):
        assert week_of(tmp_path, "2024-09-02T00:00:00Z") == ANCHOR

    def test_last_second_of_first_window(self, tmp_path):
        assert week_of(tmp_path, "2024-09-08T23:59:59Z") == ANCHOR

    def test_next_midnight_starts_window_one(self, tmp_path):
        assert week_of(tmp_path, "2024-09-09T00:00:00Z") == ANCHOR + WEEK

    def test_five_weeks_out(self, tmp_path):
        assert week_of(tmp_path, "2024-10-07T12:00:00Z") == ANCHOR + 5 * WEEK

    def test_before_anchor_is_rejected(self, tmp_path):
        with pytest.raises(BeforeAnchor):
            week_of(tmp_path, "2024-09-01T23:59:00Z")

    def test_offsets_convert_to_utc_first(self, tmp_path):
        # 01:00+02:00 is 23:00 UTC the previous day, still window 0.
        assert week_of(tmp_path, "2024-09-09T01:00:00+02:00") == ANCHOR


class TestResolveConfig:
    def test_explicit_anchor_passes_through(self):
        posts = tally(date(2024, 9, 20))
        series, _ = build_count_series(posts, CONFIG)
        assert series.start == ANCHOR + 2 * WEEK
        assert span(series) == (date(2024, 9, 16), date(2024, 9, 23))

    def test_derives_monday_from_posts(self):
        posts = tally(date(2024, 9, 5))
        series, _ = build_count_series(posts, IndexConfig())
        assert series.start == date(2024, 9, 2)

    def test_range_start_joins_the_candidates(self):
        posts = tally(date(2024, 9, 20))
        series, _ = build_count_series(posts, IndexConfig(), range_start=date(2024, 9, 9))
        assert span(series) == (date(2024, 9, 9), date(2024, 9, 23))
        assert totals(series) == (0, 1)

    def test_nothing_to_derive_from(self):
        # range_end alone gives no anchor.
        with pytest.raises(ValueError):
            build_count_series(Counter(), IndexConfig(), range_end=date(2024, 9, 9))


class TestBuildCountSeries:
    def test_zero_posts_give_zero_filled_windows(self):
        series, outside = build_count_series(
            Counter(), CONFIG, ANCHOR, ANCHOR + timedelta(days=28)
        )
        assert len(series.windows) == 4
        assert totals(series) == (0, 0, 0, 0)
        for window in series.windows:
            assert window == (0,) * len(CATEGORIES)
        assert outside == 0

    def test_counts_land_in_the_right_window(self):
        posts = spread_posts({0: {3: 3}, 2: {2: 1}})
        series, _ = build_count_series(posts, CONFIG, ANCHOR, ANCHOR + timedelta(days=21))
        assert totals(series) == (3, 0, 1)
        assert n(series.windows[0], 3) == 3
        assert n(series.windows[2], 2) == 1
        assert sum(series.windows[1]) == 0

    def test_dense_single_window(self):
        posts = spread_posts({0: DENSE_WINDOW})
        series, _ = build_count_series(posts, CONFIG, ANCHOR, ANCHOR + timedelta(days=7))
        (window,) = series.windows
        assert sum(window) == 9666
        assert n(window, 3) == 1720
        assert n(window, 11) == 2583

    def test_window_indices_respect_the_anchor(self):
        posts = spread_posts({2: {3: 1}})
        start = ANCHOR + timedelta(days=14)
        series, _ = build_count_series(posts, CONFIG, start, start + timedelta(days=7))
        assert series.start == ANCHOR + 2 * WEEK
        assert totals(series) == (1,)

    def test_posts_outside_range_are_reported(self):
        posts = tally(ANCHOR, ANCHOR + timedelta(days=7))
        series, outside = build_count_series(
            posts, CONFIG, ANCHOR, ANCHOR + timedelta(days=7)
        )
        assert totals(series) == (1,)
        assert outside == 1

    def test_misaligned_start(self):
        with pytest.raises(MisalignedRange):
            build_count_series(
                Counter(), CONFIG, ANCHOR + timedelta(days=3), ANCHOR + timedelta(days=10)
            )

    def test_misaligned_end(self):
        with pytest.raises(MisalignedRange):
            build_count_series(Counter(), CONFIG, ANCHOR, ANCHOR + timedelta(days=10))

    def test_empty_range(self):
        with pytest.raises(MisalignedRange):
            build_count_series(Counter(), CONFIG, ANCHOR, ANCHOR)

    def test_range_before_anchor(self):
        with pytest.raises(MisalignedRange):
            build_count_series(
                Counter(), CONFIG, ANCHOR - timedelta(days=7), ANCHOR + timedelta(days=7)
            )

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(1, 11)), min_size=0, max_size=60
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_conservation(self, placements):
        posts = Counter(
            (ANCHOR + timedelta(days=7 * week), category(code)) for week, code in placements
        )
        series, outside = build_count_series(
            posts, CONFIG, ANCHOR, ANCHOR + timedelta(days=42)
        )
        assert sum(totals(series)) == len(placements)
        assert outside == 0

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 11)), min_size=1, max_size=40
        ),
        st.integers(1, 8),
    )
    @settings(max_examples=50, deadline=None)
    def test_shift_covariance(self, placements, shift_weeks):
        shift = timedelta(days=7 * shift_weeks)
        posts = Counter(
            (ANCHOR + timedelta(days=7 * week), category(code)) for week, code in placements
        )
        shifted = Counter(
            (ANCHOR + shift + timedelta(days=7 * week), category(code))
            for week, code in placements
        )
        base, _ = build_count_series(posts, CONFIG, ANCHOR, ANCHOR + timedelta(days=28))
        moved, _ = build_count_series(
            shifted, CONFIG, ANCHOR + shift, ANCHOR + shift + timedelta(days=28)
        )
        assert totals(moved) == totals(base)
        assert moved.windows == base.windows


class TestFullRange:
    def test_spans_every_post(self):
        posts = tally(date(2024, 9, 3), date(2024, 9, 20))
        series, outside = build_count_series(posts, CONFIG)
        assert span(series) == (ANCHOR, ANCHOR + timedelta(days=21))
        assert outside == 0

    def test_single_post_single_window(self):
        posts = tally(ANCHOR + timedelta(days=6))
        series, _ = build_count_series(posts, CONFIG)
        assert span(series) == (ANCHOR, ANCHOR + timedelta(days=7))

    def test_derived_anchor(self):
        posts = tally(date(2024, 9, 5))
        series, _ = build_count_series(posts, IndexConfig())
        assert span(series) == (date(2024, 9, 2), date(2024, 9, 9))

    def test_post_before_explicit_anchor(self):
        posts = tally(ANCHOR - timedelta(days=1))
        with pytest.raises(BeforeAnchor):
            build_count_series(posts, CONFIG)

    def test_no_posts(self):
        with pytest.raises(ValueError):
            build_count_series(Counter(), CONFIG)
        with pytest.raises(ValueError):
            build_count_series(Counter(), CONFIG, range_start=ANCHOR)

    def test_given_start_is_kept_and_end_spans_the_posts(self):
        posts = spread_posts({0: {3: 1}, 2: {4: 1}, 3: {5: 1}})
        start = ANCHOR + timedelta(days=14)
        series, outside = build_count_series(posts, CONFIG, range_start=start)
        assert span(series) == (start, ANCHOR + timedelta(days=28))
        assert totals(series) == (1, 1)
        assert outside == 1

    def test_given_end_is_kept_and_start_spans_the_posts(self):
        posts = spread_posts({1: {3: 1}, 2: {4: 1}, 3: {5: 1}})
        end = ANCHOR + timedelta(days=21)
        series, outside = build_count_series(posts, IndexConfig(), range_end=end)
        assert span(series) == (ANCHOR + timedelta(days=7), end)
        assert totals(series) == (1, 1)
        assert outside == 1

    def test_given_bound_must_sit_on_the_grid(self):
        posts = spread_posts({0: {3: 1}})
        with pytest.raises(MisalignedRange):
            build_count_series(posts, CONFIG, range_end=ANCHOR + timedelta(days=10))
        with pytest.raises(MisalignedRange):
            build_count_series(posts, CONFIG, range_start=ANCHOR + timedelta(days=3))


class TestCountsValidation:
    def test_window_counts_must_cover_all_categories(self):
        short = WeeklySeries(ANCHOR, ((0,) * 11, (1,) * 10))
        with pytest.raises(ValueError, match="a window needs 11 counts, got 10"):
            compute_impact_series(short, CONFIG)

    def test_windows_count_the_weeks(self):
        # perfbench's windowing.windows metric reads len(series.windows).
        posts = tally(ANCHOR + timedelta(days=2), ANCHOR + timedelta(days=40))
        series, _ = build_count_series(posts, CONFIG)
        assert len(series.windows) == len(series.weeks) == 6
        assert series.weeks == tuple(ANCHOR + t * WEEK for t in range(6))


class TestCountsCsv:
    def build(self):
        posts = spread_posts({0: {3: 3, 1: 1}, 1: {2: 2}})
        series, _ = build_count_series(posts, CONFIG, ANCHOR, ANCHOR + timedelta(days=14))
        return series

    def test_round_trip(self, tmp_path):
        series = self.build()
        path = tmp_path / "counts.csv"
        write_counts_csv(series, path)
        assert read_counts_csv(path, CONFIG) == series
        assert series == WeeklySeries(ANCHOR, ((1, 0, 3) + (0,) * 8, (0, 2) + (0,) * 9))

    def test_header_and_row_shape(self, tmp_path):
        path = tmp_path / "counts.csv"
        write_counts_csv(self.build(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "window_start,category,count,total"
        assert lines[1] == "2024-09-02,CINJ,1,4"
        assert len(lines) == 1 + 2 * 11

    def test_read_derives_anchor_from_first_window(self, tmp_path):
        path = tmp_path / "counts.csv"
        write_counts_csv(self.build(), path)
        # Move both weeks to Tuesdays: off the Monday grid, on their own.
        text = path.read_text().replace("2024-09-09", "2024-09-17")
        path.write_text(text.replace("2024-09-02", "2024-09-10"))
        series = read_counts_csv(path, IndexConfig())
        assert series.weeks == (date(2024, 9, 10), date(2024, 9, 17))
        with pytest.raises(MalformedCsv, match=r"counts.csv:2: window 2024-09-10 off the"):
            read_counts_csv(path, CONFIG)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("week,category,count,total\n")
        with pytest.raises(MalformedCsv):
            read_counts_csv(path, CONFIG)

    def test_no_data_rows(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("window_start,category,count,total\n")
        with pytest.raises(MalformedCsv):
            read_counts_csv(path, CONFIG)

    def test_missing_category_row(self, tmp_path):
        path = tmp_path / "counts.csv"
        write_counts_csv(self.build(), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop one category
        with pytest.raises(MalformedCsv):
            read_counts_csv(path, CONFIG)

    def test_a_category_missing_from_every_window(self, tmp_path):
        path = tmp_path / "counts.csv"
        write_counts_csv(self.build(), path)
        lines = [line for line in path.read_text().splitlines() if ",SECO," not in line]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedCsv, match=f"counts.csv:2: window {ANCHOR} misses categories"):
            read_counts_csv(path, CONFIG)

    def test_duplicate_category_row(self, tmp_path):
        path = tmp_path / "counts.csv"
        write_counts_csv(self.build(), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[1]]) + "\n")
        with pytest.raises(MalformedCsv):
            read_counts_csv(path, CONFIG)

    def test_inconsistent_total_within_window(self, tmp_path):
        path = tmp_path / "counts.csv"
        write_counts_csv(self.build(), path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",99"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedCsv):
            read_counts_csv(path, CONFIG)

    def test_negative_count(self, tmp_path):
        path = tmp_path / "counts.csv"
        write_counts_csv(self.build(), path)
        text = path.read_text().replace("2024-09-02,CINJ,1,4", "2024-09-02,CINJ,-1,4")
        path.write_text(text)
        with pytest.raises(MalformedCsv):
            read_counts_csv(path, CONFIG)

    def test_off_grid_window_start(self, tmp_path):
        path = tmp_path / "counts.csv"
        write_counts_csv(self.build(), path)
        text = path.read_text().replace("2024-09-09", "2024-09-10")
        path.write_text(text)
        # Header plus 11 rows of the first week: the off-grid start is line 13.
        with pytest.raises(MalformedCsv) as excinfo:
            read_counts_csv(path, CONFIG)
        assert str(excinfo.value).startswith(
            f"{path}:13: week 2024-09-10 is off the 7-day grid of 2024-09-02"
        )

    def test_gap_between_windows(self, tmp_path):
        posts = spread_posts({0: {3: 1}})
        series, _ = build_count_series(posts, CONFIG, ANCHOR, ANCHOR + timedelta(days=7))
        path = tmp_path / "counts.csv"
        write_counts_csv(series, path)
        far = ANCHOR + timedelta(days=21)
        with path.open("a") as fh:
            for cat in CATEGORIES:
                fh.write(f"{far.isoformat()},{cat.short_name},0,0\n")
        # Header plus 11 rows of the first week: the first row after the gap is line 13.
        with pytest.raises(MalformedCsv) as excinfo:
            read_counts_csv(path, CONFIG)
        assert str(excinfo.value).startswith(f"{path}:13: week {far} leaves a gap after {ANCHOR}")
