"""Post/label/ground-truth loading and the privacy scrub rule."""

import json
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import disimpact
from disimpact.core import Label, Platform
from disimpact.errors import (
    MalformedCsv,
    MalformedInput,
    NegativeValue,
    UnknownPostId,
)
from disimpact.ingestion import (
    LoadReport,
    csv_rows,
    join_labels,
    load_ground_truth,
    load_labels,
    load_posts,
    scrub_handles,
    write_labels_csv,
    write_posts_jsonl,
)

from conftest import category, make_post


def _line(post_id="p1", **overrides):
    record = {
        "id": post_id,
        "platform": "reddit",
        "text": "hello world",
        "created_at": "2024-09-02T10:00:00Z",
    }
    record.update(overrides)
    return json.dumps(record)


def write_jsonl(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadPosts:
    def test_three_valid_lines(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        write_jsonl(path, [_line("a"), _line("b"), _line("c")])
        result = load_posts(path)
        assert len(result.dataset) == 3
        assert [p.id for p in result.dataset.posts] == ["a", "b", "c"]
        assert result.report.kept == 3

    def test_duplicate_ids_keep_first(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        write_jsonl(path, [_line("abc", text="first"), _line("abc", text="second")])
        result = load_posts(path)
        assert len(result.dataset) == 1
        assert result.dataset.posts[0].text == "first"
        assert result.report.dropped_duplicate == 1

    def test_malformed_line_isolated(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        # The last two leave the datetime range once shifted to UTC.
        bad = [
            "{not json",
            _line("b", created_at="0001-01-01T00:30:00+01:00"),
            _line("c", created_at="9999-12-31T23:30:00-01:00"),
        ]
        for line in bad:
            write_jsonl(path, [_line("a"), line])
            result = load_posts(path)
            assert len(result.dataset) == 1
            assert result.report.dropped_malformed == 1

    def test_majority_malformed_aborts(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        write_jsonl(path, [_line("a"), "{bad", "{worse"])
        with pytest.raises(MalformedInput):
            load_posts(path)

    def test_text_scrubbed_on_load(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        write_jsonl(path, [_line("a", text="thanks @john_doe for help")])
        result = load_posts(path)
        assert result.dataset.posts[0].text == "thanks @user for help"

    def test_z_suffix_and_offset_timestamps(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        write_jsonl(
            path,
            [
                _line("a", created_at="2024-09-02T10:00:00Z"),
                _line("b", created_at="2024-09-02T10:00:00+00:00"),
            ],
        )
        result = load_posts(path)
        a, b = result.dataset.posts
        assert a.created_at == b.created_at

    def test_unknown_platform_becomes_other(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        write_jsonl(path, [_line("a", platform="mastodon")])
        result = load_posts(path)
        assert result.dataset.posts[0].platform is Platform.OTHER

    def test_round_trip_through_writer(self, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        write_jsonl(
            first,
            [
                _line("a", media_refs=["https://img.example/a.jpg"],
                      location_metadata="Tampa, FL"),
                _line("b"),
            ],
        )
        loaded = load_posts(first)
        write_posts_jsonl(loaded.dataset.posts, second)
        again = load_posts(second)
        assert again.dataset.posts == loaded.dataset.posts
        write_posts_jsonl(again.dataset.posts, first)
        assert first.read_bytes() == second.read_bytes()


class TestScrubHandles:
    def test_basic_handle(self):
        assert scrub_handles("thanks @john_doe for help") == "thanks @user for help"

    def test_email_local_part_over_scrubbed(self):
        assert scrub_handles("email me at a@b.com") == "email me at a@user"

    def test_identity(self):
        assert scrub_handles("no handles here") == "no handles here"

    def test_dotted_and_numeric_handles(self):
        assert scrub_handles("@maria.r and @x9_y") == "@user and @user"

    def test_bare_at_untouched(self):
        assert scrub_handles("meet @ noon") == "meet @ noon"

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, text):
        once = scrub_handles(text)
        assert scrub_handles(once) == once

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_no_residual_handles(self, text):
        import re

        scrubbed = scrub_handles(text)
        assert set(re.findall(r"@[A-Za-z0-9_.]+", scrubbed)) <= {"@user"}


class TestGroundTruth:
    def test_direct_parse(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("week_start,value\n2024-09-02,5.0\n2024-09-09,7.5\n")
        series, report = load_ground_truth(path)
        assert series.weeks == (date(2024, 9, 2), date(2024, 9, 9))
        assert series.values == (5.0, 7.5)
        assert report.filled_weeks == ()

    def test_gap_zero_filled(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("week_start,value\n2024-09-02,5.0\n2024-09-16,1.0\n")
        series, report = load_ground_truth(path)
        assert len(series.weeks) == len(series.values) == 3
        assert (series.weeks[1], series.values[1]) == (date(2024, 9, 9), 0.0)
        assert report.filled_weeks == (date(2024, 9, 9),)

    def test_negative_rejected(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("week_start,value\n2024-09-02,-1.0\n")
        with pytest.raises(NegativeValue):
            load_ground_truth(path)

    def test_off_grid_rejected(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("week_start,value\n2024-09-02,1.0\n2024-09-10,2.0\n")
        with pytest.raises(MalformedCsv):
            load_ground_truth(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("week,value\n2024-09-02,1.0\n")
        with pytest.raises(MalformedCsv):
            load_ground_truth(path)


class TestLoadLabels:
    def _dataset(self, tmp_path, ids=("p1", "p2")):
        path = tmp_path / "posts.jsonl"
        write_jsonl(path, [_line(i) for i in ids])
        return load_posts(path).dataset

    def _join(self, dataset, labels):
        report = LoadReport()
        joined = list(join_labels(dataset.posts, load_labels(labels), labels, report))
        return joined, report

    def test_join(self, tmp_path):
        dataset = self._dataset(tmp_path)
        labels = tmp_path / "labels.csv"
        labels.write_text("post_id,category_code\np1,3\n")
        assert load_labels(labels) == {"p1": (2, disimpact.INFR)}
        joined, report = self._join(dataset, labels)
        assert [(post.id, category.short_name) for post, category in joined] == [("p1", "INFR")]
        assert report.unlabeled == 1

    def test_join_consumes_the_labels_it_is_given(self, tmp_path):
        dataset = self._dataset(tmp_path)
        path = tmp_path / "labels.csv"
        path.write_text("post_id,category_code\np1,3\np9,3\n")
        labels = load_labels(path)
        joined = join_labels(dataset.posts, labels, path, LoadReport())
        with pytest.raises(UnknownPostId):
            list(joined)
        assert labels == {"p9": (3, disimpact.INFR)}  # popped, not copied

    def test_unknown_post_id(self, tmp_path):
        dataset = self._dataset(tmp_path)
        labels = tmp_path / "labels.csv"
        labels.write_text("post_id,category_code\np1,3\np9,3\np8,4\n")
        with pytest.raises(UnknownPostId, match=r"labels.csv:3: unknown post id 'p9'"):
            self._join(dataset, labels)

    def test_code_eleven_is_other(self, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text("post_id,category_code\np1,11\n")
        assert load_labels(labels)["p1"][1].short_name == "OTHER"

    def test_out_of_range_code(self, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text("post_id,category_code\np1,12\n")
        with pytest.raises(MalformedCsv):
            load_labels(labels)

    def test_writer_round_trip(self, tmp_path):
        dataset = self._dataset(tmp_path, ids=("p1", "p2", "p3"))
        labels = [
            Label("p1", category(3)),
            Label("p2", category(11)),
            Label("p3", category(5), relevant=False),
        ]
        path = tmp_path / "labels.csv"
        write_labels_csv(labels, path)
        loaded, report = self._join(dataset, path)
        # the irrelevant post is not written, so it comes back unlabeled
        assert [post.id for post, _ in loaded] == ["p1", "p2"]
        assert report.unlabeled == 1


def test_load_posts_deterministic(tmp_path):
    path = tmp_path / "posts.jsonl"
    write_jsonl(path, [_line("a"), _line("b")])
    first = load_posts(path)
    second = load_posts(path)
    assert first.dataset.posts == second.dataset.posts
    assert first.report == second.report


class TestCsvRows:
    def test_rows_are_stripped_and_numbered_by_their_first_line(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text(' a , b \n x , y \n\n"multi\nline",z\nlone\n', encoding="utf-8")
        rows = csv_rows(path, ("a", "b"))
        assert next(rows) == (2, ["x", "y"])
        assert next(rows) == (4, ["multi\nline", "z"])
        with pytest.raises(MalformedCsv, match=r"two.csv:6: expected 2 fields, got 1"):
            next(rows)

    def test_undecodable_byte_past_the_first_buffer_names_its_line(self, tmp_path):
        path = tmp_path / "counts.csv"
        header = ("window_start", "category", "count", "total")
        path.write_bytes(
            b"window_start,category,count,total\n"
            + b"2024-09-02,CINJ,1,1\n" * 2000
            + b"2024-09-09,\xffCINJ,1,1\n"
        )
        with pytest.raises(MalformedCsv, match=r"counts.csv:2002: "):
            list(csv_rows(path, header))


def test_only_ingestion_calls_csv_reader():
    """Every CSV input goes through csv_rows; no module forks its own reader."""
    package = Path(disimpact.__file__).parent
    callers = sorted(
        module.name
        for module in package.glob("*.py")
        if "csv.reader(" in module.read_text(encoding="utf-8")
    )
    assert callers == ["ingestion.py"]
