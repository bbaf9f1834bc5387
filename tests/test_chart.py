"""Tests for chart CSV loading and deterministic SVG rendering."""

import math
import re
import xml.etree.ElementTree as ET
from datetime import date, timedelta

import pytest

from conftest import ANCHOR

from disimpact import (
    ChartData,
    CountSeries,
    IndexConfig,
    MalformedCsv,
    MalformedInput,
    UnknownColumn,
    WindowCounts,
    chart_csv_to_svg,
    compute_impact_series,
    read_chart_csv,
    render_chart,
    write_domain_csv,
    write_index_csv,
)
from disimpact.core import CATEGORIES

CONFIG = IndexConfig(window_anchor=ANCHOR)


def make_series(n_weeks: int):
    windows = []
    for i in range(n_weeks):
        n = {cat: (i * 7 + j * 3) % 13 for j, cat in enumerate(CATEGORIES)}
        windows.append(
            WindowCounts(
                start=ANCHOR + timedelta(days=7 * i),
                n=n,
                total=sum(n.values()),
            )
        )
    return compute_impact_series(CountSeries(windows=tuple(windows)), CONFIG)


@pytest.fixture()
def index_csv(tmp_path):
    path = tmp_path / "index.csv"
    write_index_csv(make_series(10), path)
    return path


@pytest.fixture()
def domain_csv(tmp_path):
    path = tmp_path / "domains.csv"
    write_domain_csv(make_series(10), path)
    return path


class TestReadChartCsv:
    def test_index_export_detected(self, index_csv):
        data = read_chart_csv(index_csv)
        assert data.value_label == "index"
        assert [name for name, _ in data.series] == [
            cat.short_name for cat in CATEGORIES
        ]
        assert data.weeks == tuple(
            ANCHOR + timedelta(days=7 * i) for i in range(10)
        )

    def test_domain_export_detected(self, domain_csv):
        data = read_chart_csv(domain_csv)
        assert data.value_label == "composite"
        assert [name for name, _ in data.series] == ["physical", "social"]
        assert all(len(values) == 10 for _, values in data.series)

    def test_values_round_trip(self, index_csv):
        series = make_series(10)
        data = read_chart_csv(index_csv)
        by_name = dict(data.series)
        for cat in CATEGORIES:
            points = by_name[cat.short_name]
            for t in range(10):
                expected = series.per_category[cat][t].index
                assert points[t] == pytest.approx(expected, abs=1e-9)

    def test_foreign_header_refused(self, tmp_path):
        path = tmp_path / "alien.csv"
        path.write_text("week_start,value\n2024-09-02,0.5\n", encoding="utf-8")
        with pytest.raises(UnknownColumn):
            read_chart_csv(path)

    def test_index_header_without_index_column_refused(self, tmp_path):
        path = tmp_path / "partial.csv"
        path.write_text(
            "window_start,category,count\n2024-09-02,DTH,3\n", encoding="utf-8"
        )
        with pytest.raises(UnknownColumn):
            read_chart_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(MalformedCsv):
            read_chart_csv(path)

    def test_blank_lines_are_skipped(self, domain_csv):
        lines = domain_csv.read_text(encoding="utf-8").splitlines()
        lines.insert(3, "")
        domain_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        data = read_chart_csv(domain_csv)
        assert len(data.weeks) == 10

    def test_ragged_row(self, domain_csv):
        with domain_csv.open("a", encoding="utf-8") as fh:
            fh.write("2024-11-11,physical\n")
        with pytest.raises(MalformedCsv):
            read_chart_csv(domain_csv)

    def test_unparsable_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "window_start,domain,composite\n2024-09-02,physical,high\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedCsv):
            read_chart_csv(path)

    def test_unparsable_date(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "window_start,domain,composite\nweek one,physical,0.5\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedCsv):
            read_chart_csv(path)

    def test_series_missing_a_week(self, domain_csv):
        lines = domain_csv.read_text(encoding="utf-8").splitlines()
        del lines[2]  # drop one social row, leaving physical with more weeks
        domain_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(MalformedCsv):
            read_chart_csv(domain_csv)

    def test_rows_may_arrive_out_of_order(self, tmp_path):
        path = tmp_path / "shuffled.csv"
        path.write_text(
            "window_start,domain,composite\n"
            "2024-09-09,physical,0.8\n"
            "2024-09-02,physical,0.2\n"
            "2024-09-02,social,0.1\n"
            "2024-09-09,social,0.4\n",
            encoding="utf-8",
        )
        data = read_chart_csv(path)
        assert data.weeks == (date(2024, 9, 2), date(2024, 9, 9))
        assert dict(data.series)["physical"] == (0.2, 0.8)
        assert dict(data.series)["social"] == (0.1, 0.4)


class TestRenderChart:
    def test_domain_chart_draws_one_polyline_per_domain(self, domain_csv):
        svg, warnings = chart_csv_to_svg(domain_csv)
        assert warnings == []
        polylines = re.findall(r'<polyline points="([^"]+)"', svg)
        assert len(polylines) == 2
        for points in polylines:
            assert len(points.split()) == 10
        assert ">physical</text>" in svg
        assert ">social</text>" in svg

    def test_index_chart_draws_eleven_polylines(self, index_csv):
        svg, warnings = chart_csv_to_svg(index_csv)
        assert warnings == []
        assert svg.count("<polyline") == 11
        for cat in CATEGORIES:
            assert f">{cat.short_name}</text>" in svg

    def test_single_window_uses_markers(self, tmp_path):
        path = tmp_path / "one.csv"
        write_domain_csv(make_series(1), path)
        svg, warnings = chart_csv_to_svg(path)
        assert warnings == []
        assert svg.count("<circle") == 2
        assert "<polyline" not in svg

    def test_empty_data_renders_axes_with_warning(self):
        svg, warnings = render_chart(ChartData(weeks=(), series=(), value_label="index"))
        assert warnings == ["no data rows; rendering axes only"]
        assert "<polyline" not in svg
        assert "<circle" not in svg
        assert ">π</text>" in svg

    def test_y_axis_is_labelled_in_radians(self, domain_csv):
        svg, _ = chart_csv_to_svg(domain_csv)
        for label in ("0", "π/4", "π/2", "3π/4", "π"):
            assert f">{label}</text>" in svg

    def test_title_is_rendered_when_given(self, domain_csv):
        titled, _ = chart_csv_to_svg(domain_csv, title="Weekly domain composites")
        bare, _ = chart_csv_to_svg(domain_csv)
        assert "Weekly domain composites" in titled
        assert "Weekly domain composites" not in bare

    def test_markup_in_title_and_series_names_is_escaped(self, tmp_path):
        path = tmp_path / "domain.csv"
        path.write_text(
            "window_start,domain,composite\n"
            "2024-09-02,R&D <north>,1.0\n"
            "2024-09-09,R&D <north>,2.0\n",
            encoding="utf-8",
        )
        svg, _ = chart_csv_to_svg(path, title="Helene & Milton <weekly>")
        root = ET.fromstring(svg)
        texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "Helene & Milton <weekly>" in texts
        assert "R&D <north>" in texts

    @pytest.mark.parametrize(
        "char, code", [("\x01", "U+0001"), ("\ufffe", "U+FFFE"), ("\udcff", "U+DCFF")]
    )
    def test_title_xml_cannot_hold_is_refused(self, domain_csv, char, code):
        with pytest.raises(MalformedInput, match=re.escape(code)):
            chart_csv_to_svg(domain_csv, title=f"storm{char}surge")

    @pytest.mark.parametrize("char, code", [("\x01", "U+0001"), ("\ufffe", "U+FFFE")])
    def test_series_name_xml_cannot_hold_is_refused(self, tmp_path, char, code):
        path = tmp_path / "domain.csv"
        path.write_text(
            f"window_start,domain,composite\n2024-09-02,physical,1.0\n"
            f"2024-09-02,storm{char}surge,1.0\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedCsv, match=re.escape(f"{path}:3: ") + ".*" + re.escape(code)):
            read_chart_csv(path)

    def test_every_xml_char_is_kept(self, tmp_path):
        title = "tab\there \ue000 \U0001f300 \ud7ff"
        path = tmp_path / "domain.csv"
        path.write_text(
            f"window_start,domain,composite\n2024-09-02,{title},1.0\n", encoding="utf-8"
        )
        svg, _ = chart_csv_to_svg(path, title=title)
        texts = [el.text for el in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
        assert texts.count(title) == 2

    def test_week_labels_are_subsampled(self, index_csv):
        svg, _ = chart_csv_to_svg(index_csv)
        weeks = [ANCHOR + timedelta(days=7 * i) for i in range(10)]
        # ceil(10 / 8) = 2, so every other week is labelled.
        for i, week in enumerate(weeks):
            shown = f"{week.isoformat()}</text>" in svg
            assert shown == (i % 2 == 0)

    def test_points_stay_inside_plot_area(self, domain_csv):
        svg, _ = chart_csv_to_svg(domain_csv)
        top, bottom = 32.0, 540.0 - 48.0
        for points in re.findall(r'<polyline points="([^"]+)"', svg):
            for pair in points.split():
                y = float(pair.split(",")[1])
                assert top < y < bottom

    def test_output_shape(self, domain_csv):
        svg, _ = chart_csv_to_svg(domain_csv)
        assert svg.startswith("<svg ")
        assert svg.endswith("</svg>\n")

    def test_render_is_deterministic(self, index_csv):
        data = read_chart_csv(index_csv)
        first, _ = render_chart(data, title="run")
        second, _ = render_chart(data, title="run")
        assert first == second

    def test_csv_to_svg_is_deterministic(self, tmp_path):
        first_csv = tmp_path / "a.csv"
        second_csv = tmp_path / "b.csv"
        write_domain_csv(make_series(6), first_csv)
        write_domain_csv(make_series(6), second_csv)
        assert first_csv.read_bytes() == second_csv.read_bytes()
        assert chart_csv_to_svg(first_csv) == chart_csv_to_svg(second_csv)

    def test_scaling_is_exact_at_known_values(self):
        # pi/2 maps to the vertical midpoint of the plot band.
        data = ChartData(
            weeks=(date(2024, 9, 2),),
            series=(("physical", (math.pi / 2,)),),
            value_label="composite",
        )
        svg, _ = render_chart(data)
        match = re.search(r'<circle cx="([0-9.]+)" cy="([0-9.]+)"', svg)
        assert match is not None
        assert float(match.group(2)) == pytest.approx((32 + 492) / 2, abs=0.01)
