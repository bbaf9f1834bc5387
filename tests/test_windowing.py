"""Tests for window assignment and per-window category counting."""

from dataclasses import replace
from datetime import date, datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ANCHOR, category, columns, make_annotated, spread_posts

from disimpact import (
    AnnotatedPost,
    BeforeAnchor,
    CountSeries,
    IndexConfig,
    MalformedCsv,
    MisalignedRange,
    WindowCounts,
    build_count_series,
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


def utc(y, m, d, hour=0, minute=0, second=0):
    return datetime(y, m, d, hour, minute, second, tzinfo=timezone.utc)


def week_of(stamp):
    """Start of the one week spanning a single post made at stamp."""
    template = make_annotated(3)
    post = AnnotatedPost(
        post=replace(template.post, created_at=stamp),
        category=template.category,
        relevant=True,
    )
    series, _ = build_count_series(*columns([post]), CONFIG)
    (wc,) = series.windows
    assert wc.total == 1
    return wc.start


def span(series):
    return series.windows[0].start, series.windows[-1].start + WEEK


class TestMondayGrid:
    def test_midweek_rolls_back(self):
        assert monday_on_or_before(date(2024, 9, 4)) == date(2024, 9, 2)

    def test_monday_is_fixed_point(self):
        assert monday_on_or_before(date(2024, 9, 2)) == date(2024, 9, 2)

    def test_sunday_rolls_back_six_days(self):
        assert monday_on_or_before(date(2024, 9, 8)) == date(2024, 9, 2)

    def test_derive_anchor_uses_earliest_post(self):
        posts = [
            make_annotated(3, post_id="a", day=date(2024, 9, 12)),
            make_annotated(3, post_id="b", day=date(2024, 9, 5)),
        ]
        series, _ = build_count_series(*columns(posts), IndexConfig())
        assert series.windows[0].start == date(2024, 9, 2)

    def test_derive_anchor_needs_posts(self):
        with pytest.raises(ValueError):
            build_count_series([], [], IndexConfig())


class TestAssignWindow:
    def test_anchor_midnight_is_window_zero(self):
        assert week_of(utc(2024, 9, 2)) == ANCHOR

    def test_last_second_of_first_window(self):
        assert week_of(utc(2024, 9, 8, 23, 59, 59)) == ANCHOR

    def test_next_midnight_starts_window_one(self):
        assert week_of(utc(2024, 9, 9)) == ANCHOR + WEEK

    def test_five_weeks_out(self):
        assert week_of(utc(2024, 10, 7, 12, 0)) == ANCHOR + 5 * WEEK

    def test_before_anchor_is_rejected(self):
        with pytest.raises(BeforeAnchor):
            week_of(utc(2024, 9, 1, 23, 59))

    def test_offsets_convert_to_utc_first(self):
        # 01:00+02:00 is 23:00 UTC the previous day, still window 0.
        stamp = datetime(2024, 9, 9, 1, 0, tzinfo=timezone(timedelta(hours=2)))
        assert week_of(stamp) == ANCHOR


class TestResolveConfig:
    def test_explicit_anchor_passes_through(self):
        posts = [make_annotated(3, day=date(2024, 9, 20))]
        series, _ = build_count_series(*columns(posts), CONFIG)
        assert series.windows[0].start == ANCHOR + 2 * WEEK
        assert span(series) == (date(2024, 9, 16), date(2024, 9, 23))

    def test_derives_monday_from_posts(self):
        posts = [make_annotated(3, day=date(2024, 9, 5))]
        series, _ = build_count_series(*columns(posts), IndexConfig())
        assert series.windows[0].start == date(2024, 9, 2)

    def test_range_start_joins_the_candidates(self):
        posts = [make_annotated(3, day=date(2024, 9, 20))]
        series, _ = build_count_series(*columns(posts), IndexConfig(), range_start=date(2024, 9, 9))
        assert span(series) == (date(2024, 9, 9), date(2024, 9, 23))
        assert series.totals == (0, 1)

    def test_nothing_to_derive_from(self):
        # range_end alone gives no anchor.
        with pytest.raises(ValueError):
            build_count_series([], [], IndexConfig(), range_end=date(2024, 9, 9))


class TestBuildCountSeries:
    def test_zero_posts_give_zero_filled_windows(self):
        series, report = build_count_series(
            [], [], CONFIG, ANCHOR, ANCHOR + timedelta(days=28)
        )
        assert len(series.windows) == 4
        assert series.totals == (0, 0, 0, 0)
        for wc in series.windows:
            assert set(wc.n) == set(CATEGORIES)
            assert all(v == 0 for v in wc.n.values())
        assert report.outside_range == 0

    def test_counts_land_in_the_right_window(self):
        posts = spread_posts({0: {3: 3}, 2: {2: 1}})
        series, _ = build_count_series(*columns(posts), CONFIG, ANCHOR, ANCHOR + timedelta(days=21))
        assert series.totals == (3, 0, 1)
        assert series.windows[0].n[category(3)] == 3
        assert series.windows[2].n[category(2)] == 1
        assert series.windows[1].total == 0

    def test_dense_single_window(self):
        posts = spread_posts({0: DENSE_WINDOW})
        series, _ = build_count_series(*columns(posts), CONFIG, ANCHOR, ANCHOR + timedelta(days=7))
        (wc,) = series.windows
        assert wc.total == 9666
        assert wc.n[category(3)] == 1720
        assert wc.n[category(11)] == 2583

    def test_window_indices_respect_the_anchor(self):
        posts = spread_posts({2: {3: 1}})
        start = ANCHOR + timedelta(days=14)
        series, _ = build_count_series(*columns(posts), CONFIG, start, start + timedelta(days=7))
        assert series.windows[0].start == ANCHOR + 2 * WEEK
        assert series.totals == (1,)

    def test_posts_outside_range_are_reported(self):
        posts = [
            make_annotated(3, post_id="in", day=ANCHOR),
            make_annotated(3, post_id="late", day=ANCHOR + timedelta(days=7)),
        ]
        series, report = build_count_series(
            *columns(posts), CONFIG, ANCHOR, ANCHOR + timedelta(days=7)
        )
        assert series.totals == (1,)
        assert report.outside_range == 1

    def test_misaligned_start(self):
        with pytest.raises(MisalignedRange):
            build_count_series(
                [], [], CONFIG, ANCHOR + timedelta(days=3), ANCHOR + timedelta(days=10)
            )

    def test_misaligned_end(self):
        with pytest.raises(MisalignedRange):
            build_count_series([], [], CONFIG, ANCHOR, ANCHOR + timedelta(days=10))

    def test_empty_range(self):
        with pytest.raises(MisalignedRange):
            build_count_series([], [], CONFIG, ANCHOR, ANCHOR)

    def test_range_before_anchor(self):
        with pytest.raises(MisalignedRange):
            build_count_series(
                [], [], CONFIG, ANCHOR - timedelta(days=7), ANCHOR + timedelta(days=7)
            )

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(1, 11)), min_size=0, max_size=60
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_conservation(self, placements):
        posts = [
            make_annotated(code, post_id=f"s{i}", day=ANCHOR + timedelta(days=7 * week))
            for i, (week, code) in enumerate(placements)
        ]
        series, report = build_count_series(
            *columns(posts), CONFIG, ANCHOR, ANCHOR + timedelta(days=42)
        )
        assert sum(series.totals) == len(posts)
        assert report.outside_range == 0

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 11)), min_size=1, max_size=40
        ),
        st.integers(1, 8),
    )
    @settings(max_examples=50, deadline=None)
    def test_shift_covariance(self, placements, shift_weeks):
        shift = timedelta(days=7 * shift_weeks)
        posts = [
            make_annotated(code, post_id=f"s{i}", day=ANCHOR + timedelta(days=7 * week))
            for i, (week, code) in enumerate(placements)
        ]
        shifted = [
            make_annotated(
                code,
                post_id=f"s{i}",
                day=ANCHOR + shift + timedelta(days=7 * week),
            )
            for i, (week, code) in enumerate(placements)
        ]
        base, _ = build_count_series(*columns(posts), CONFIG, ANCHOR, ANCHOR + timedelta(days=28))
        moved, _ = build_count_series(
            *columns(shifted), CONFIG, ANCHOR + shift, ANCHOR + shift + timedelta(days=28)
        )
        assert moved.totals == base.totals
        assert [w.n for w in moved.windows] == [w.n for w in base.windows]


class TestFullRange:
    def test_spans_every_post(self):
        posts = [
            make_annotated(3, post_id="a", day=date(2024, 9, 3)),
            make_annotated(3, post_id="b", day=date(2024, 9, 20)),
        ]
        series, report = build_count_series(*columns(posts), CONFIG)
        assert span(series) == (ANCHOR, ANCHOR + timedelta(days=21))
        assert report.outside_range == 0

    def test_single_post_single_window(self):
        posts = [make_annotated(3, day=ANCHOR + timedelta(days=6))]
        series, _ = build_count_series(*columns(posts), CONFIG)
        assert span(series) == (ANCHOR, ANCHOR + timedelta(days=7))

    def test_derived_anchor(self):
        posts = [make_annotated(3, day=date(2024, 9, 5))]
        series, _ = build_count_series(*columns(posts), IndexConfig())
        assert span(series) == (date(2024, 9, 2), date(2024, 9, 9))

    def test_post_before_explicit_anchor(self):
        posts = [make_annotated(3, day=ANCHOR - timedelta(days=1))]
        with pytest.raises(BeforeAnchor):
            build_count_series(*columns(posts), CONFIG)

    def test_no_posts(self):
        with pytest.raises(ValueError):
            build_count_series([], [], CONFIG)
        with pytest.raises(ValueError):
            build_count_series([], [], CONFIG, range_start=ANCHOR)

    def test_given_start_is_kept_and_end_spans_the_posts(self):
        posts = spread_posts({0: {3: 1}, 2: {4: 1}, 3: {5: 1}})
        start = ANCHOR + timedelta(days=14)
        series, report = build_count_series(*columns(posts), CONFIG, range_start=start)
        assert span(series) == (start, ANCHOR + timedelta(days=28))
        assert series.totals == (1, 1)
        assert report.outside_range == 1

    def test_given_end_is_kept_and_start_spans_the_posts(self):
        posts = spread_posts({1: {3: 1}, 2: {4: 1}, 3: {5: 1}})
        end = ANCHOR + timedelta(days=21)
        series, report = build_count_series(*columns(posts), IndexConfig(), range_end=end)
        assert span(series) == (ANCHOR + timedelta(days=7), end)
        assert series.totals == (1, 1)
        assert report.outside_range == 1

    def test_given_bound_must_sit_on_the_grid(self):
        posts = spread_posts({0: {3: 1}})
        with pytest.raises(MisalignedRange):
            build_count_series(*columns(posts), CONFIG, range_end=ANCHOR + timedelta(days=10))
        with pytest.raises(MisalignedRange):
            build_count_series(*columns(posts), CONFIG, range_start=ANCHOR + timedelta(days=3))


class TestCountsValidation:
    def test_window_counts_must_cover_all_categories(self):
        with pytest.raises(ValueError):
            WindowCounts(start=ANCHOR, n={category(3): 1}, total=1)

    def test_window_counts_total_must_match(self):
        n = {c: 0 for c in CATEGORIES}
        with pytest.raises(ValueError):
            WindowCounts(start=ANCHOR, n=n, total=5)

    def test_series_must_be_contiguous(self):
        def window_at(start):
            return WindowCounts(start=start, n={c: 0 for c in CATEGORIES}, total=0)

        CountSeries(windows=(window_at(ANCHOR), window_at(ANCHOR + WEEK)))
        for gap in (2 * WEEK, timedelta(days=3)):
            with pytest.raises(ValueError):
                CountSeries(windows=(window_at(ANCHOR), window_at(ANCHOR + gap)))


class TestCountsCsv:
    def build(self):
        posts = spread_posts({0: {3: 3, 1: 1}, 1: {2: 2}})
        series, _ = build_count_series(*columns(posts), CONFIG, ANCHOR, ANCHOR + timedelta(days=14))
        return series

    def test_round_trip(self, tmp_path):
        series = self.build()
        path = tmp_path / "counts.csv"
        write_counts_csv(series, path)
        assert read_counts_csv(path, CONFIG) == series

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
        assert [wc.start for wc in series.windows] == [date(2024, 9, 10), date(2024, 9, 17)]
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
            f"{path}:13: window 2024-09-10 off the 7-day grid of 2024-09-02"
        )

    def test_gap_between_windows(self, tmp_path):
        posts = spread_posts({0: {3: 1}})
        series, _ = build_count_series(*columns(posts), CONFIG, ANCHOR, ANCHOR + timedelta(days=7))
        path = tmp_path / "counts.csv"
        write_counts_csv(series, path)
        far = ANCHOR + timedelta(days=21)
        with path.open("a") as fh:
            for cat in CATEGORIES:
                fh.write(f"{far.isoformat()},{cat.short_name},0,0\n")
        # Header plus 11 rows of the first week: the first row after the gap is line 13.
        with pytest.raises(MalformedCsv) as excinfo:
            read_counts_csv(path, CONFIG)
        assert str(excinfo.value).startswith(f"{path}:13: window {far} leaves a gap")
