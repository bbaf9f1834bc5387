"""Post/label/ground-truth loading and the privacy scrub rule."""

import json
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import disimpact
from disimpact.core import Label
from disimpact.errors import (
    MalformedCsv,
    MalformedInput,
    NegativeValue,
    UnknownPostId,
)
from disimpact.ingestion import (
    LoadReport,
    csv_rows,
    iter_labels,
    join_labels,
    json_line,
    load_ground_truth,
    load_labels,
    load_posts,
    scrub_handles,
    write_csv,
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
        assert len(result.posts) == 3
        assert [p.id for p in result.posts] == ["a", "b", "c"]
        assert result.report.kept == 3

    def test_duplicate_ids_keep_first(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        write_jsonl(path, [_line("abc", text="first"), _line("abc", text="second")])
        result = load_posts(path)
        assert len(result.posts) == 1
        assert result.posts[0].text == "first"
        assert result.report.dropped_duplicate == 1

    def test_malformed_line_isolated(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        # The two timestamps leave the datetime range once shifted to UTC.
        bad = [
            "{not json",
            "[" * 100_000 + "]" * 100_000,
            _line(""),
            _line("b", created_at="2024-09-02T10:00:00"),
            _line("b", created_at="0001-01-01T00:30:00+01:00"),
            _line("c", created_at="9999-12-31T23:30:00-01:00"),
            _line("b", media_refs=False),
            _line("b", media_refs=0),
            _line("b", media_refs=""),
            _line("b", media_refs={}),
            _line("b", media_refs=["m", 1]),
        ]
        for line in bad:
            write_jsonl(path, [_line("a"), line])
            result = load_posts(path)
            assert len(result.posts) == 1
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
        assert result.posts[0].text == "thanks @user for help"

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
        a, b = result.posts
        assert a.created_at == b.created_at

    def test_unknown_platform_becomes_other(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        write_jsonl(path, [_line("a", platform="Mastodon"), _line("b", platform=" Reddit ")])
        result = load_posts(path)
        assert [p.platform for p in result.posts] == ["Mastodon", " Reddit "]
        written = tmp_path / "posts_clean.jsonl"
        write_posts_jsonl(result.posts, written)
        lines = written.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["platform"] for line in lines] == ["other", "reddit"]

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
        write_posts_jsonl(loaded.posts, second)
        again = load_posts(second)
        assert again.posts == loaded.posts
        write_posts_jsonl(again.posts, first)
        assert first.read_bytes() == second.read_bytes()


# Pieces of JSON texts, valid or not, and whitespace JSON does and does
# not allow around a value (form feed, no-break space, ideographic space
# and a byte order mark are not JSON whitespace).
JSON_PIECES = [
    "{", "}", "[", "]", ":", ",", '"', "\\", "-", ".", "e", "0", "1", "01", "-0", "1.5e3",
    "true", "false", "null", "tru", "NaN", "Infinity", "-Infinity", '"a"', '"\\u00e9"',
    '"\\ud800"', '"\\n"', '"\x01"', '"é漢"', '"Judgment"', "{}", "[]",
]
WHITESPACE = [" ", "\t", "\r", "\n", "\x0c", "\xa0", "\u3000", "\ufeff"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
json_texts = st.one_of(
    st.lists(st.sampled_from(JSON_PIECES + WHITESPACE), max_size=10).map("".join),
    st.tuples(
        st.lists(st.sampled_from(WHITESPACE), max_size=3).map("".join),
        json_values.map(json.dumps),
        st.lists(st.sampled_from(WHITESPACE), max_size=3).map("".join),
    ).map("".join),
    st.text(max_size=12),
)


class TestJsonLine:
    @settings(max_examples=500, deadline=None)
    @given(json_texts)
    def test_decodes_as_loads_does(self, text):
        try:
            expected = json.loads(text)
        except ValueError:
            with pytest.raises(ValueError):
                json_line(text)
        else:
            # repr tells 1 from 1.0 and 0.0 from -0.0, and equates nan with nan.
            assert repr(json_line(text)) == repr(expected)

    def test_deep_nesting_is_a_value_error(self):
        with pytest.raises(ValueError):
            json_line("[" * 100_000 + "]" * 100_000)


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
    def _posts(self, tmp_path, ids=("p1", "p2")):
        path = tmp_path / "posts.jsonl"
        write_jsonl(path, [_line(i) for i in ids])
        return load_posts(path).posts

    def _join(self, posts, labels):
        report = LoadReport()
        joined = list(join_labels(posts, load_labels(labels), labels, report))
        return joined, report

    def test_join(self, tmp_path):
        posts = self._posts(tmp_path)
        labels = tmp_path / "labels.csv"
        labels.write_text("post_id,category_code\np1,3\n")
        assert load_labels(labels) == {"p1": disimpact.INFR}
        joined, report = self._join(posts, labels)
        assert [(post.id, category.short_name) for post, category in joined] == [("p1", "INFR")]
        assert report.unlabeled == 1

    def test_join_consumes_the_labels_it_is_given(self, tmp_path):
        posts = self._posts(tmp_path)
        path = tmp_path / "labels.csv"
        path.write_text("post_id,category_code\np1,3\np9,3\n")
        labels = load_labels(path)
        joined = join_labels(posts, labels, path, LoadReport())
        with pytest.raises(UnknownPostId):
            list(joined)
        assert labels == {"p9": disimpact.INFR}  # popped, not copied

    def test_unknown_post_id(self, tmp_path):
        posts = self._posts(tmp_path)
        labels = tmp_path / "labels.csv"
        labels.write_text("post_id,category_code\np1,3\np9,3\np8,4\n")
        with pytest.raises(UnknownPostId, match=r"labels.csv:3: unknown post id 'p9'"):
            self._join(posts, labels)

    def test_leftover_label_missing_from_the_file_still_raises(self, tmp_path):
        posts = self._posts(tmp_path)
        path = tmp_path / "labels.csv"
        path.write_text("post_id,category_code\np1,3\n")
        joined = join_labels(posts, {"p9": disimpact.INFR}, path, LoadReport())
        with pytest.raises(UnknownPostId, match=r"labels.csv: unknown post id 'p9'"):
            list(joined)

    def test_code_eleven_is_other(self, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text("post_id,category_code\np1,11\n")
        assert load_labels(labels)["p1"].short_name == "OTHER"

    def test_out_of_range_code(self, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text("post_id,category_code\np1,12\n")
        with pytest.raises(MalformedCsv):
            load_labels(labels)

    def test_writer_round_trip(self, tmp_path):
        posts = self._posts(tmp_path, ids=("p1", "p2", "p3"))
        labels = [
            Label("p1", category(3)),
            Label("p2", category(11)),
            Label("p3", category(5), relevant=False),
        ]
        path = tmp_path / "labels.csv"
        write_labels_csv(labels, path)
        loaded, report = self._join(posts, path)
        # the irrelevant post is not written, so it comes back unlabeled
        assert [post.id for post, _ in loaded] == ["p1", "p2"]
        assert report.unlabeled == 1


def test_load_posts_deterministic(tmp_path):
    path = tmp_path / "posts.jsonl"
    write_jsonl(path, [_line("a"), _line("b")])
    first = load_posts(path)
    second = load_posts(path)
    assert first.posts == second.posts
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


class TestWriteCsv:
    def test_reals_are_written_at_nine_decimals(self, tmp_path):
        path = tmp_path / "reals.csv"
        write_csv(path, ("x",), [(1 / 3,), (1e6 + 0.5,), (2.0,), (-0.25,)])
        assert path.read_bytes() == (
            b"x\n0.333333333\n1000000.500000000\n2.000000000\n-0.250000000\n"
        )

    def test_ints_and_strings_are_written_as_given_and_none_is_empty(self, tmp_path):
        path = tmp_path / "cells.csv"
        write_csv(path, ("a", "b", "c"), [(7, "0.1", None), (10**20, "", -3)])
        assert path.read_bytes() == b"a,b,c\n7,0.1,\n100000000000000000000,,-3\n"

    def test_lines_end_in_lf_and_the_file_is_utf8(self, tmp_path):
        path = tmp_path / "text.csv"
        write_csv(path, ("name", "note"), [("Zürich ☂", "a,b"), ('say "hi"', "x")])
        assert path.read_bytes() == (
            'name,note\nZürich ☂,"a,b"\n"say ""hi""",x\n'.encode("utf-8")
        )

    # Any id the posts parser keeps: no CR and no surrounding whitespace.
    @pytest.mark.parametrize("post_id", ["a,b", 'say "hi"', "line\nfeed", "tab\there", ',"\n\t#'])
    def test_ids_round_trip_through_labels_csv(self, tmp_path, post_id):
        path = tmp_path / "labels.csv"
        labels = [Label(post_id, category(3)), Label("plain", category(11))]
        write_labels_csv(labels, path)
        assert [(i, c.code) for _, i, c in iter_labels(path)] == [(post_id, 3), ("plain", 11)]


def test_only_ingestion_calls_csv_writer():
    """Every CSV output goes through write_csv; no module forks its own writer."""
    package = Path(disimpact.__file__).parent
    callers = sorted(
        module.name
        for module in package.glob("*.py")
        if "csv.writer(" in module.read_text(encoding="utf-8")
    )
    assert callers == ["ingestion.py"]


def test_only_ingestion_calls_csv_reader():
    """Every CSV input goes through csv_rows; no module forks its own reader."""
    package = Path(disimpact.__file__).parent
    callers = sorted(
        module.name
        for module in package.glob("*.py")
        if "csv.reader(" in module.read_text(encoding="utf-8")
    )
    assert callers == ["ingestion.py"]
