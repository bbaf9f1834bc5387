"""Acceptance gate: one printed pass/fail line per shipped guarantee.

Run with `pytest -s tests/test_acceptance.py` to see every line.
Criterion 04a checks the bundled hurricane/reddit table under the
rounding its printed column actually uses: whole percents summing to
exactly 100, each printed value the floor or the ceiling of its
computed share, and no more rows off nearest rounding than the total
of 100 forces. It prints each such row; today that is EVAC, whose
368/9,666 = 3.81% is printed as 3%.
"""

import contextlib
import json
import math
import random
import re
import shutil
import statistics
import sys
import time
from io import StringIO
from pathlib import Path

import pytest

from conftest import (
    ANCHOR,
    FIXTURES,
    RESOLUTION_CASES,
    RecordingMock,
    category,
    make_post,
)

from disimpact import (
    AgreementTable,
    ClientPolicy,
    CountSeries,
    DisasterTag,
    IndexConfig,
    Platform,
    SeriesStats,
    WeeklySeries,
    WindowCounts,
    annotate_dataset,
    cohen_kappa,
    compute_impact_series,
    consistency,
    counts_by_category,
    fleiss_kappa,
    intensity_weight,
    lead_lag_profile,
    load_gazetteer,
    load_posts,
    load_reference_distribution,
    read_counts_csv,
    resolve_location,
    scrub_handles,
    smoothed_proportion,
    spearman_rho,
)
from disimpact.cli import main
from disimpact.core import CATEGORIES, WEEK

POSTS = FIXTURES / "posts.jsonl"
TRUTH = FIXTURES / "groundtruth.csv"
TABLE_COUNTS = FIXTURES / "table_counts.csv"
CONFIG = IndexConfig(window_anchor=ANCHOR)


@contextlib.contextmanager
def criterion(tag: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {tag}] FAIL")
        raise
    print(f"[criterion {tag}] PASS")


def make_count_series(vectors) -> CountSeries:
    windows = []
    for i, vec in enumerate(vectors):
        n = {cat: int(vec[j]) for j, cat in enumerate(CATEGORIES)}
        windows.append(
            WindowCounts(
                start=ANCHOR + i * WEEK,
                n=n,
                total=sum(n.values()),
            )
        )
    return CountSeries(windows=tuple(windows))


def agreement_table(rows) -> AgreementTable:
    return AgreementTable(
        items=tuple(f"i{k}" for k in range(1, len(rows) + 1)),
        annotator_ids=tuple(f"a{k}" for k in range(1, len(rows[0]) + 1)),
        labels=tuple(tuple(row) for row in rows),
    )


def weekly(values) -> WeeklySeries:
    return WeeklySeries(
        weeks=tuple(ANCHOR + i * WEEK for i in range(len(values))),
        values=tuple(float(v) for v in values),
    )


def brute_midranks(values):
    return [
        sum(1 for u in values if u < v) + (sum(1 for u in values if u == v) + 1) / 2
        for v in values
    ]


def brute_spearman(x, y):
    return statistics.correlation(brute_midranks(x), brute_midranks(y))


def run_cli(argv) -> int:
    out, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    if code != 0:
        sys.stderr.write(err.getvalue())
    return code


def test_criterion_01_proportion_normalization():
    with criterion("01"):
        rng = random.Random(101)
        started = time.perf_counter()
        for _ in range(1000):
            counts = [rng.randint(0, 5000) for _ in range(11)]
            total = sum(counts)
            shares = [smoothed_proportion(n, total, CONFIG) for n in counts]
            assert math.fsum(shares) == pytest.approx(1.0, abs=1e-9)
            assert all(0.0 < p < 1.0 for p in shares)
        assert time.perf_counter() - started < 1.0


def test_criterion_02_weight_anchor_points():
    with criterion("02"):
        stats = SeriesStats(n_mean=100.0, iqr=40.0, t_count=4)
        assert intensity_weight(100, stats) == pytest.approx(
            math.pi / 2, abs=1e-12
        )
        assert intensity_weight(140, stats) == pytest.approx(
            3 * math.pi / 4, abs=1e-12
        )
        assert intensity_weight(100 + 1000 * 40, stats) == pytest.approx(
            math.pi, abs=1e-3
        )
        assert intensity_weight(100 - 1000 * 40, stats) == pytest.approx(
            0.0, abs=1e-3
        )


def test_criterion_03_index_bounds_and_additivity():
    with criterion("03"):
        rng = random.Random(303)
        for _ in range(100):
            vectors = [
                [rng.randint(0, 400) for _ in range(11)]
                for _ in range(rng.randint(2, 8))
            ]
            series = compute_impact_series(make_count_series(vectors), CONFIG)
            for t, weight in enumerate(series.weights):
                indices = [series.per_category[cat][t].index for cat in CATEGORIES]
                assert all(0.0 < value < math.pi for value in indices)
                assert math.fsum(indices) == pytest.approx(weight, abs=1e-9)


def test_criterion_04a_published_percentages():
    with criterion("04a"):
        window = read_counts_csv(TABLE_COUNTS, CONFIG).windows[0]
        rows = load_reference_distribution(DisasterTag.HURRICANE)
        assert window.n == counts_by_category(rows, Platform.REDDIT)
        assert window.total == 9666
        published = {
            row.category: row.published_pct
            for row in rows
            if row.platform is Platform.REDDIT
        }
        assert sum(published.values()) == 100
        # Exact integer rounding of 100 * n / total: floor, ceiling, and
        # nearest with halves rounded up.
        nearest_total = 0
        off_nearest = 0
        for cat in CATEGORIES:
            scaled = 100 * window.n[cat]
            low = scaled // window.total
            high = -(-scaled // window.total)
            nearest = (2 * scaled + window.total) // (2 * window.total)
            raw = scaled / window.total
            assert low <= published[cat] <= high, (
                f"{cat.short_name}: raw {raw:.4f}% vs published {published[cat]}%"
            )
            nearest_total += nearest
            if published[cat] != nearest:
                off_nearest += 1
                print(
                    f"[criterion 04a] {cat.short_name}: raw {raw:.2f}% printed "
                    f"{published[cat]}% (nearest {nearest}%)"
                )
        assert off_nearest == abs(nearest_total - 100)


def test_criterion_04b_exact_smoothed_share():
    with criterion("04b"):
        window = read_counts_csv(TABLE_COUNTS, CONFIG).windows[0]
        share = smoothed_proportion(window.n[category(3)], window.total, CONFIG)
        assert share == pytest.approx(1720.5 / 9671.5, abs=1e-9)


def test_criterion_05_agreement_oracles():
    with criterion("05"):
        rows = [(1, 1, 1), (1, 1, 2), (2, 2, 2), (1, 2, 2)]
        four = agreement_table(rows)
        baseline = fleiss_kappa(four)
        assert baseline == pytest.approx(1 / 3, abs=1e-9)
        assert cohen_kappa("AABB", "ABAB") == pytest.approx(0.0, abs=1e-12)
        ten = agreement_table([(1, 1, 1)] * 7 + [(1, 1, 2)] * 3)
        assert consistency(ten) == 0.7
        rng = random.Random(505)
        codes = list(range(1, 12))
        for _ in range(100):
            shuffled = codes[:]
            rng.shuffle(shuffled)
            mapping = dict(zip(codes, shuffled))
            renamed = agreement_table(
                [tuple(mapping[label] for label in row) for row in rows]
            )
            assert fleiss_kappa(renamed) == pytest.approx(baseline, abs=1e-12)


def test_criterion_06_spearman_oracle_equivalence():
    with criterion("06"):
        rng = random.Random(606)
        checked = 0
        while checked < 500:
            n = rng.randint(3, 50)
            xs = [rng.randint(0, 10) for _ in range(n)]
            ys = [rng.randint(0, 10) for _ in range(n)]
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            assert spearman_rho(xs, ys) == pytest.approx(
                brute_spearman(xs, ys), abs=1e-9
            )
            checked += 1
        xs = list(range(30))
        ys = [3 * x + 7 for x in xs]
        assert spearman_rho(xs, ys) == 1.0
        assert spearman_rho(xs, ys[::-1]) == -1.0


def test_criterion_07_leadlag_recovery():
    with criterion("07"):
        lengths = {-3: 12, -2: 25, -1: 40, 0: 60, 1: 97, 2: 150, 3: 200}
        for shift, n in lengths.items():
            rng = random.Random(700 + shift)
            index_vals = [rng.random() for _ in range(n)]
            truth_vals = [
                index_vals[i - shift] if 0 <= i - shift < n else rng.random()
                for i in range(n)
            ]
            profile = lead_lag_profile(weekly(index_vals), weekly(truth_vals), 3)
            best = max(
                profile.defined_lags(), key=lambda lag: abs(profile.rho[lag])
            )
            assert best == shift
            assert profile.rho[shift] == pytest.approx(1.0, abs=1e-12)
        noise_a, noise_b = random.Random(71), random.Random(72)
        profile = lead_lag_profile(
            weekly([noise_a.random() for _ in range(200)]),
            weekly([noise_b.random() for _ in range(200)]),
            3,
        )
        assert all(abs(profile.rho[lag]) < 0.2 for lag in profile.defined_lags())


def test_criterion_08_end_to_end_determinism(tmp_path):
    with criterion("08"):

        def run_pipeline(out: Path) -> dict[str, bytes]:
            steps = [
                ["clean", "--in", POSTS, "--disaster", "hurricane", "--out", out],
                ["annotate", "--in", POSTS, "--disaster", "hurricane", "--out", out],
                ["counts", "--in", POSTS, "--labels", out / "labels.csv", "--out", out],
                ["index", "--in", out / "counts.csv", "--out", out],
                ["validate", "--in", out / "domain.csv", "--truth", TRUTH, "--out", out],
                ["chart", "--in", out / "domain.csv", "--out", out],
            ]
            for argv in steps:
                assert run_cli(argv) == 0
            return {
                path.name: path.read_bytes()
                for path in sorted(out.iterdir())
                if path.is_file()
            }

        out = tmp_path / "run"
        out.mkdir()
        started = time.perf_counter()
        first = run_pipeline(out)
        first_elapsed = time.perf_counter() - started
        shutil.rmtree(out)
        out.mkdir()
        started = time.perf_counter()
        second = run_pipeline(out)
        second_elapsed = time.perf_counter() - started
        assert first_elapsed < 5.0
        assert second_elapsed < 5.0
        assert set(first) == set(second)
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"


def test_criterion_09_privacy_fuzz(tmp_path):
    with criterion("09"):
        token = re.compile(r"@[A-Za-z0-9_.]+")
        handle_chars = "abcdefXYZ019_."
        filler = "abc XYZ 019 _.@!,:/#\t"
        rng = random.Random(909)
        for _ in range(10_000):
            text = "".join(
                rng.choice(filler) for _ in range(rng.randint(0, 60))
            )
            for _ in range(rng.randint(1, 3)):
                handle = "@" + "".join(
                    rng.choice(handle_chars)
                    for _ in range(rng.randint(1, 12))
                )
                cut = rng.randint(0, len(text))
                text = text[:cut] + handle + text[cut:]
            scrubbed = scrub_handles(text)
            assert set(token.findall(scrubbed)) <= {"@user"}
        backend = RecordingMock()
        raw = tmp_path / "raw_posts.jsonl"
        raw.write_text(
            "".join(
                json.dumps(
                    {
                        "id": f"h{i}",
                        "platform": "reddit",
                        "created_at": "2024-09-07T08:00:00Z",
                        "media_refs": [],
                        "text": (
                            f"thanks @alice_{i} and @bob.smith "
                            "for the hurricane rescue"
                        ),
                    }
                )
                + "\n"
                for i in range(5)
            ),
            encoding="utf-8",
        )
        posts, _ = load_posts(raw)
        assert all("@user" in post.text for post in posts)
        annotate_dataset(
            posts,
            DisasterTag.HURRICANE,
            backend,
            ClientPolicy(max_in_flight=2, max_retries=1),
            tmp_path / "cache.jsonl",
        )
        assert backend.request_log
        for payload in backend.request_log:
            assert set(token.findall(payload)) <= {"@user"}


def test_criterion_10_spatial_determinism():
    with criterion("10"):
        gazetteer = load_gazetteer()
        assert len(RESOLUTION_CASES) == 50
        for metadata, text, state, source in RESOLUTION_CASES:
            post = make_post(text=text, metadata=metadata or None)
            got_state, got_source = resolve_location(post, gazetteer)
            assert (got_state, got_source.value) == (state, source), (
                f"metadata={metadata!r} text={text!r}"
            )
        by_source = {"metadata": set(), "text": set()}
        for post in load_posts(POSTS).posts:
            state, source = resolve_location(post, gazetteer)
            if state is not None and source.value in by_source:
                by_source[source.value].add(post.id)
        assert by_source["metadata"] and by_source["text"]
        assert not (by_source["metadata"] & by_source["text"])
