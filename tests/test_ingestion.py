"""Post/label/ground-truth loading and the privacy scrub rule."""

import json
import re
from datetime import date, timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import disimpact
from disimpact import reference
from disimpact.agreement import load_annotations_csv
from disimpact.chart import read_chart_csv
from disimpact.core import CATEGORIES, WEEK, Domain, IndexConfig, Label, WeeklySeries
from disimpact.errors import (
    MalformedCsv,
    MalformedInput,
    NegativeValue,
    UnknownPostId,
)
from disimpact.impact import compute_impact_series, write_domain_csv, write_index_csv
from disimpact.ingestion import (
    ANNOTATIONS_CSV,
    COUNTS_CSV,
    DOMAIN_CSV,
    GAZETTEER_CSV,
    GROUND_TRUTH_CSV,
    INDEX_CSV,
    LABELS_CSV,
    REFERENCE_CSV,
    LoadReport,
    Schema,
    csv_header,
    csv_rows,
    iter_posts,
    join_labels,
    json_line,
    load_ground_truth,
    load_labels,
    post_line,
    scrub_handles,
    write_csv,
    write_labels_csv,
)
from disimpact.spatial import SourceFilter, load_gazetteer, write_spatial_csv
from disimpact.validation import LagCorrelationProfile, read_domain_csv, write_leadlag_csv
from disimpact.windowing import read_counts_csv, write_counts_csv

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


def read_posts(path):
    """Every post iter_posts yields from path, and its report."""
    report = LoadReport()
    return tuple(iter_posts(path, report)), report


class TestLoadPosts:
    def test_three_valid_lines(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        write_jsonl(path, [_line("a"), _line("b"), _line("c")])
        posts, report = read_posts(path)
        assert len(posts) == 3
        assert [p.id for p in posts] == ["a", "b", "c"]
        assert report.kept == 3

    def test_duplicate_ids_keep_first(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        write_jsonl(path, [_line("abc", text="first"), _line("abc", text="second")])
        posts, report = read_posts(path)
        assert len(posts) == 1
        assert posts[0].text == "first"
        assert report.dropped_duplicate == 1

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
            # Forms datetime.fromisoformat takes from Python 3.11 on, not on 3.10.
            _line("b", created_at="20240902T100000Z"),
            _line("b", created_at="2024-W36-1T10:00Z"),
            _line("b", created_at="2024-09-02T10:00:00.5Z"),
            _line("b", created_at="2024-09-02T10:00:00+0200"),
            _line("b", media_refs=False),
            _line("b", media_refs=0),
            _line("b", media_refs=""),
            _line("b", media_refs={}),
            _line("b", media_refs=["m", 1]),
        ]
        for line in bad:
            write_jsonl(path, [_line("a"), line])
            posts, report = read_posts(path)
            assert len(posts) == 1
            assert report.dropped_malformed == 1

    def test_majority_malformed_aborts(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        write_jsonl(path, [_line("a"), "{bad", "{worse"])
        with pytest.raises(MalformedInput):
            read_posts(path)

    def test_text_scrubbed_on_load(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        write_jsonl(path, [_line("a", text="thanks @john_doe for help")])
        posts, _ = read_posts(path)
        assert posts[0].text == "thanks @user for help"

    def test_z_suffix_and_offset_timestamps(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        write_jsonl(
            path,
            [
                _line("a", created_at="2024-09-02T10:00:00Z"),
                _line("b", created_at="2024-09-02T10:00:00+00:00"),
                _line("c", created_at="2024-09-02 12:00:00+02:00"),
            ],
        )
        (a, b, c), _ = read_posts(path)
        assert a.created_at == b.created_at == c.created_at

    def test_unknown_platform_becomes_other(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        write_jsonl(path, [_line("a", platform="Mastodon"), _line("b", platform=" Reddit ")])
        posts, _ = read_posts(path)
        assert [p.platform for p in posts] == ["Mastodon", " Reddit "]
        lines = [post_line(post) for post in posts]
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
        loaded, _ = read_posts(first)
        second.write_text("".join(map(post_line, loaded)), encoding="utf-8")
        again, _ = read_posts(second)
        assert again == loaded
        first.write_text("".join(map(post_line, again)), encoding="utf-8")
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
        series, filled = load_ground_truth(path)
        assert series.weeks == (date(2024, 9, 2), date(2024, 9, 9))
        assert series.windows == (5.0, 7.5)
        assert filled == ()

    def test_gap_zero_filled(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("week_start,value\n2024-09-02,5.0\n2024-09-16,1.0\n")
        series, filled = load_ground_truth(path)
        assert len(series.weeks) == len(series.windows) == 3
        assert (series.weeks[1], series.windows[1]) == (date(2024, 9, 9), 0.0)
        assert filled == (date(2024, 9, 9),)

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
        return read_posts(path)[0]

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


def test_iter_posts_deterministic(tmp_path):
    path = tmp_path / "posts.jsonl"
    write_jsonl(path, [_line("a"), _line("b")])
    assert read_posts(path) == read_posts(path)


class TestCsvRows:
    def test_rows_are_stripped_and_numbered_by_their_first_line(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text(' a , b \n x , y \n\n"multi\nline",z\nlone\n', encoding="utf-8")
        rows = csv_rows(path, Schema(("a", str), ("b", str)))
        assert next(rows) == (2, ["x", "y"])
        assert next(rows) == (4, ["multi\nline", "z"])
        with pytest.raises(MalformedCsv, match=r"two.csv:6: expected 2 fields, got 1"):
            next(rows)

    def test_undecodable_byte_past_the_first_buffer_names_its_line(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_bytes(
            b"window_start,category,count,total\n"
            + b"2024-09-02,CINJ,1,1\n" * 2000
            + b"2024-09-09,\xffCINJ,1,1\n"
        )
        with pytest.raises(MalformedCsv, match=r"counts.csv:2002: "):
            list(csv_rows(path, COUNTS_CSV))


# Per input format: its schema, its reader as its command calls it, a good
# row and a bad cell for each typed column.
FORMATS = {
    "labels": (LABELS_CSV, load_labels, "p1,3", {"category_code": "12"}),
    "counts": (
        COUNTS_CSV,
        lambda path: read_counts_csv(path, IndexConfig()),
        "2024-09-02,CINJ,1,1",
        {"window_start": "2024-09-31", "category": "DTH", "count": "-1", "total": "1.5"},
    ),
    "index": (
        INDEX_CSV,
        read_chart_csv,
        "2024-09-02,CINJ,1,1,0.5,1.5,0.75",
        {
            "window_start": "week one", "category": "DTH", "n": "x", "total": "-2",
            "p": "nan", "w": "inf", "index": "high",
        },
    ),
    "domain": (
        DOMAIN_CSV,
        lambda path: read_domain_csv(path, Domain.PHYSICAL),
        "2024-09-02,physical,1.0",
        {"window_start": "2024/09/09", "domain": "sociall", "composite": "-inf"},
    ),
    "domain chart": (
        DOMAIN_CSV,
        read_chart_csv,
        "2024-09-02,physical,1.0",
        {"window_start": "", "domain": "Physical", "composite": "zzz"},
    ),
    "ground truth": (
        GROUND_TRUTH_CSV, load_ground_truth, "2024-09-02,1.0", {"week_start": "x", "value": "nan"}
    ),
    "annotations": (ANNOTATIONS_CSV, load_annotations_csv, "i1,a1,1", {"category_code": "one"}),
    "gazetteer": (
        GAZETTEER_CSV, load_gazetteer, "Tampa,FL,city", {"state_code": "XX", "kind": "village"}
    ),
    "reference": (
        REFERENCE_CSV,
        reference._parse,
        "reddit,CINJ,332,3",
        {"platform": "myspace", "category": "DTH", "count": "many", "published_pct": "-3"},
    ),
}
BAD_CELLS = [(name, column) for name, (*_, bad) in FORMATS.items() for column in bad]


class TestSchemas:
    @pytest.mark.parametrize("name, column", BAD_CELLS, ids=[" ".join(c) for c in BAD_CELLS])
    def test_a_bad_cell_names_its_path_and_line(self, tmp_path, name, column):
        schema, reader, good, bad = FORMATS[name]
        cells = good.split(",")
        cells[schema.names.index(column)] = bad[column]
        path = tmp_path / "input.csv"
        path.write_text(
            f"{','.join(schema.names)}\n{good}\n{','.join(cells)}\n", encoding="utf-8"
        )
        for read in (lambda path: list(csv_rows(path, schema)), reader):
            with pytest.raises(MalformedCsv, match=re.escape(f"{path}:3: ")):
                read(path)

    @pytest.mark.parametrize("text", ["2024-W36-1", "2024W361", "20240902"])
    def test_a_date_cell_is_only_yyyy_mm_dd(self, tmp_path, text):
        # Other ISO forms that date.fromisoformat takes from Python 3.11 on.
        path = tmp_path / "counts.csv"
        path.write_text(f"{','.join(COUNTS_CSV.names)}\n{text},CINJ,1,1\n", encoding="utf-8")
        with pytest.raises(MalformedCsv, match=re.escape(f"{path}:2: ")):
            list(csv_rows(path, COUNTS_CSV))

    @pytest.mark.parametrize("text", ["1_1", "+3", "\u0663", "\uff13", "-0", "-1"])
    def test_an_integer_cell_is_only_ascii_digits(self, tmp_path, text):
        # Forms int() takes: underscores, a sign, non-ASCII digits. A
        # negative number is refused by the same rule.
        for schema, row in ((COUNTS_CSV, f"2024-09-02,CINJ,{text},1"), (LABELS_CSV, f"p1,{text}")):
            path = tmp_path / "input.csv"
            path.write_text(f"{','.join(schema.names)}\n{row}\n", encoding="utf-8")
            with pytest.raises(MalformedCsv, match=re.escape(f"{path}:2: not a whole number")):
                list(csv_rows(path, schema))

    def test_an_integer_cell_may_lead_with_zeros(self, tmp_path):
        path = tmp_path / "input.csv"
        path.write_text("post_id,category_code\np1,03\n", encoding="utf-8")
        assert list(csv_rows(path, LABELS_CSV)) == [(2, ["p1", category(3)])]
        path.write_text("window_start,category,count,total\n2024-09-02,CINJ,007,1\n")
        assert list(csv_rows(path, COUNTS_CSV))[0][1][2:] == [7, 1]

    def test_every_typed_column_has_a_bad_cell(self):
        for schema, _, _, bad in FORMATS.values():
            typed = [n for n, parse in zip(schema.names, schema.parses) if parse is not str]
            assert sorted(bad) == sorted(typed)

    def test_good_rows_parse(self, tmp_path):
        for schema, _, good, _ in FORMATS.values():
            path = tmp_path / "input.csv"
            path.write_text(f"{','.join(schema.names)}\n{good}\n", encoding="utf-8")
            assert len(list(csv_rows(path, schema))) == 1

    def test_a_real_cell_names_its_column_when_not_finite(self, tmp_path):
        path = tmp_path / "index.csv"
        path.write_text(
            f"{','.join(INDEX_CSV.names)}\n2024-09-02,CINJ,1,1,0.5,inf,0.75\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedCsv, match=re.escape(f"{path}:2: w must be finite")):
            read_chart_csv(path)

    def test_writers_write_the_readers_header(self, tmp_path):
        series = compute_impact_series(
            WeeklySeries(date(2024, 9, 2), (tuple(range(1, 12)),)), IndexConfig()
        )
        writers = [
            (LABELS_CSV, lambda path: write_labels_csv([Label("p1", category(3))], path)),
            (COUNTS_CSV, lambda path: write_counts_csv(series.counts, path)),
            (INDEX_CSV, lambda path: write_index_csv(series, path)),
            (DOMAIN_CSV, lambda path: write_domain_csv(series, path)),
        ]
        for schema, write in writers:
            path = tmp_path / "out.csv"
            write(path)
            assert csv_header(path) == schema.names
            assert list(csv_rows(path, schema))  # and every written cell parses

    def test_readme_file_formats_match_the_schemas(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
        documented = dict(re.findall(r"^- \*\*(\w+)\.csv\*\*: `([^`]*)`", section, re.M))
        written = {}
        for name, write in [
            ("leadlag", lambda path: write_leadlag_csv(LagCorrelationProfile((), {}, {}), path)),
            ("spatial", lambda path: write_spatial_csv([], SourceFilter.BOTH, path)),
        ]:
            write(tmp_path / name)
            written[name] = ",".join(csv_header(tmp_path / name))
        schemas = {
            "labels": LABELS_CSV, "counts": COUNTS_CSV, "index": INDEX_CSV,
            "domain": DOMAIN_CSV, "groundtruth": GROUND_TRUTH_CSV,
            "annotations": ANNOTATIONS_CSV, "gazetteer": GAZETTEER_CSV,
        }
        written.update((name, ",".join(schema.names)) for name, schema in schemas.items())
        assert documented == written


WEEKS = [date(2024, 9, 2) + t * WEEK for t in range(4)]
SHORT_NAMES = [c.short_name for c in CATEGORIES]
DOMAINS = ["physical", "social"]

# Per week-keyed file and reader: its schema, its series, the cells that
# follow the week in the row of week t and series s, and the reader as its
# command calls it.
WEEKLY = {
    "counts.csv read_counts_csv": (
        COUNTS_CSV, SHORT_NAMES, lambda t, s: f"{s},{t},{11 * t}",
        lambda path: read_counts_csv(path, IndexConfig()),
    ),
    "domain.csv read_domain_csv": (
        DOMAIN_CSV, DOMAINS, lambda t, s: f"{s},{t}.5",
        lambda path: read_domain_csv(path, Domain.PHYSICAL),
    ),
    "domain.csv read_chart_csv": (DOMAIN_CSV, DOMAINS, lambda t, s: f"{s},{t}.5", read_chart_csv),
    "index.csv read_chart_csv": (
        INDEX_CSV, SHORT_NAMES, lambda t, s: f"{s},{t},{11 * t},0.1,1.0,{t}.5", read_chart_csv
    ),
    "groundtruth.csv load_ground_truth": (
        GROUND_TRUTH_CSV, [None], lambda t, s: f"{t + 1}.0", load_ground_truth
    ),
}


def first_line(rows, week):
    """The line of the first row of week, after the header."""
    return 2 + [row_week for row_week, _, _ in rows].index(week)


def out_of_order(rows, series):
    return rows[::-1], None, None


def repeated_row(rows, series):
    return rows + [rows[len(series)]], len(rows) + 2, f"repeated row for week {WEEKS[1]}"


def off_grid_week(rows, series):
    late = WEEKS[3] + timedelta(days=1)
    rows = [(late if week == WEEKS[3] else week, t, s) for week, t, s in rows]
    return rows, first_line(rows, late), f"week {late} is off the 7-day grid of {WEEKS[0]}"


def missing_week(rows, series):
    rows = [row for row in rows if row[0] != WEEKS[1]]
    return rows, first_line(rows, WEEKS[2]), f"week {WEEKS[2]} leaves a gap after {WEEKS[0]}"


def week_lacking_a_series(rows, series):
    rows = [row for row in rows if row[0] != WEEKS[2] or row[2] != series[-1]]
    message = f"week {WEEKS[2]} has no row for series {series[-1]}"
    return rows, first_line(rows, WEEKS[2]), message


WEEKLY_FAULTS = [out_of_order, repeated_row, off_grid_week, missing_week, week_lacking_a_series]
WEEKLY_CASES = [
    (reader, fault)
    for reader in WEEKLY
    for fault in WEEKLY_FAULTS
    # A ground truth is one series: a week without it is a missing week.
    if not (reader.startswith("groundtruth") and fault is week_lacking_a_series)
]


class TestOneWeeklyRule:
    """The same weekly faults get the same verdict and message from every reader."""

    @staticmethod
    def write(path, reader, rows):
        schema, _, cells, _ = WEEKLY[reader]
        lines = [",".join(schema.names)] + [f"{week},{cells(t, s)}" for week, t, s in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @pytest.mark.parametrize(
        "reader, fault", WEEKLY_CASES, ids=[f"{r} {f.__name__}" for r, f in WEEKLY_CASES]
    )
    def test_a_weekly_fault(self, tmp_path, reader, fault):
        _, series, _, read = WEEKLY[reader]
        rows = [(week, t, s) for t, week in enumerate(WEEKS) for s in series]
        self.write(tmp_path / "in_order.csv", reader, rows)
        path = tmp_path / "input.csv"
        faulty, line, message = fault(rows, series)
        self.write(path, reader, faulty)
        if fault is out_of_order:
            assert read(path) == read(tmp_path / "in_order.csv")
        elif reader.startswith("groundtruth") and fault is missing_week:
            truth, filled = read(path)
            assert truth == WeeklySeries(WEEKS[0], (1.0, 0.0, 3.0, 4.0))
            assert filled == (WEEKS[1],)
        else:
            with pytest.raises(MalformedCsv, match=re.escape(f"{path}:{line}: {message}")):
                read(path)


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
        assert [(i, c.code) for i, c in load_labels(path).items()] == [(post_id, 3), ("plain", 11)]


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
