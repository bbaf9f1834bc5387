"""The streamed annotate, counts and spatial commands against the in-memory path.

`counts` and `spatial` read the labels first and then stream posts.jsonl
once, keeping only what they roll up. Here random posts and labels files
(malformed and non-UTF-8 lines, repeated ids with other dates and
places, unlabelled posts, posts outside the range, handles that name a
place) go through both commands and through load_posts + load_labels +
resolve_location, and every output byte, stderr line and exit code must
agree.

`annotate` reads the cache first and then streams posts.jsonl once,
keeping an id and two verdicts per post. Random posts files, caches and
backends go through it and through the two stages run over the loaded
posts, and labels.csv, the cache bytes, stdout, stderr, the exit code
and the number of backend calls must agree.

Ids and texts drawn from all of Unicode go through clean, annotate,
counts and spatial: each exits cleanly, and every id written to the
cache, labels.csv and posts_clean.jsonl reads back equal.
"""

import contextlib
import io
import json
import tempfile
import time
from collections import Counter
from datetime import date, timedelta
from pathlib import Path
from unittest import mock

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from disimpact import (
    OTHER,
    AnnotationReport,
    ClientPolicy,
    DisimpactError,
    IndexConfig,
    Label,
    Located,
    MockBackend,
    SourceFilter,
    Task,
    TransportError,
    MalformedInput,
    UnknownPostId,
    aggregate_state_month,
    build_count_series,
    load_gazetteer,
    load_labels,
    load_posts,
    resolve_location,
    write_counts_csv,
    write_labels_csv,
    write_spatial_csv,
)
from disimpact.annotation import _StageLoop
from disimpact.ingestion import LoadReport, csv_rows, iter_labels, iter_posts
from disimpact.cli import main

GAZETTEER = load_gazetteer()
IDS = ["a", "b", "c", "d", "e"]
TEXTS = [
    "roads flooded downtown",
    "@Texas_help needs water",
    "thanks @Tampa_rescue and @fema",
    "shelter lines in Tampa keep growing",
    "Salem, OR is dry",
    "donations pouring into western North Carolina",
]
METADATA = [None, None, "Tampa, FL", "Texas", "nowhere", "Asheville"]
MALFORMED = [b"{not json", b"[]", b'{"id": ""}', b'{"id": "a", "text": 1}', b"\xff\xfe\x00"]
# Ids that labels.csv could not give back; "platform" leads, so posted_id
# does not take these lines for posts.
MALFORMED += [
    b'{"platform": "reddit", "id": "%s", "text": "hurricane flooded the roads", '
    b'"created_at": "2024-09-03T12:00:00Z"}' % post_id
    for post_id in (rb"lone \ud800", rb"cr\rz", b" lead")
]
MONDAYS = [None] + [date(2024, 9, 2) + timedelta(weeks=k) for k in range(5)]
# --range-start and --range-end for counts, either one or both left out.
bounds = st.sampled_from(
    [(a, b) for a in MONDAYS for b in MONDAYS if None in (a, b) or a < b]
)


def line(post_id, stamp, text, metadata=None):
    record = {"id": post_id, "platform": "reddit", "text": text, "created_at": stamp}
    return json.dumps(record | {"location_metadata": metadata}).encode()


post_line = st.builds(
    lambda post_id, day, hour, text, metadata: line(
        post_id, f"{date(2024, 9, 1) + timedelta(days=day)}T{hour:02d}:30:00Z", text, metadata
    ),
    st.sampled_from(IDS),
    st.integers(0, 40),
    st.sampled_from([0, 12, 23]),
    st.sampled_from(TEXTS),
    st.sampled_from(METADATA),
)
# Mostly posts, some malformed and blank lines.
any_line = st.sampled_from([post_line] * 6 + [st.sampled_from(MALFORMED), st.just(b"")])
posts_file = st.lists(any_line.flatmap(lambda kind: kind), min_size=2, max_size=14)

# Every case at once: a Sunday-night post, a handle naming a place, a
# repeated id with another date and place, an unlabelled post, a post
# past --range-end, a malformed and a non-UTF-8 line.
EVERY_CASE = (
    [
        line("a", "2024-09-08T23:30:00Z", "@Texas_help needs water"),
        line("a", "2024-09-20T12:30:00Z", "shelter lines in Tampa", "Tampa, FL"),
        line("b", "2024-09-21T00:30:00Z", "Salem, OR is dry"),
        line("c", "2024-09-04T12:30:00Z", "roads flooded downtown", "Texas"),
        b"{not json",
        b"\xff\xfe\x00",
    ],
    [("a", 3), ("b", 7)],
)


def posted_id(raw):
    """The id of a line that line() made, else None."""
    try:
        return json.loads(raw)["id"] if raw.startswith(b'{"id"') and b"platform" in raw else None
    except ValueError:
        return None


@st.composite
def inputs(draw):
    """posts.jsonl lines and labels rows, the labels mostly naming posts that exist."""
    lines = draw(posts_file)
    present = sorted({posted_id(line) for line in lines} - {None})
    names = st.sampled_from(present) if present else st.nothing()
    ids = draw(st.lists(names, unique=True, min_size=min(len(present), 1), max_size=len(present)))
    if draw(st.sampled_from([False] * 9 + [True])):
        ids.insert(draw(st.integers(0, len(ids))), "ghost")
    return lines, [(i, draw(st.integers(1, 11))) for i in ids]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, err.getvalue()


def write_counts(joined, unlabeled, path, range_start, range_end):
    """Write counts.csv from joined (post, category) pairs; its stderr lines."""
    series, report = build_count_series(
        Counter((post.created_date, category) for post, category in joined),
        IndexConfig(),
        range_start,
        range_end,
    )
    write_counts_csv(series, path)
    lines = [f"{unlabeled} posts had no label"] if unlabeled else []
    return lines + ([f"{report.outside_range} posts outside range"] if report.outside_range else [])


def write_spatial(joined, unlabeled, path, range_start, range_end):
    """Write spatial.csv from joined (post, category) pairs; its stderr lines."""
    located = [
        Located(state, post.created_date, category, source)
        for post, category in joined
        for state, source in [resolve_location(post, GAZETTEER)]
    ]
    rows, report = aggregate_state_month(located, IndexConfig())
    write_spatial_csv(rows, SourceFilter.BOTH, path)
    lines = [f"{report.unlocated} posts could not be located"] if report.unlocated else []
    if report.suppressed_cells:
        lines.append(f"{len(report.suppressed_cells)} cells under min_group_size suppressed")
    return lines


def in_memory(posts, labels, write, path, range_start=None, range_end=None):
    """(exit code, stderr) of the in-memory path; it writes its output to path."""
    lines = []
    try:
        loaded = load_posts(posts)
        by_id = load_labels(labels)
        known = {post.id for post in loaded.posts}
        unknown = [(n, i) for n, i, _ in iter_labels(labels) if i not in known]
        if unknown:
            raise UnknownPostId(f"{labels}:{unknown[0][0]}: unknown post id {unknown[0][1]!r}")
        report = loaded.report
        if report.dropped_malformed or report.dropped_duplicate:
            lines.append(
                f"dropped {report.dropped_malformed} malformed, "
                f"{report.dropped_duplicate} duplicate lines"
            )
        joined = [(post, by_id[post.id]) for post in loaded.posts if post.id in by_id]
        unlabeled = len(loaded.posts) - len(joined)
        lines += write(joined, unlabeled, path, range_start, range_end)
    except (DisimpactError, ValueError) as exc:
        lines.append(f"error: {type(exc).__name__}: {exc}")
        return getattr(exc, "exit_code", 1), "".join(line + "\n" for line in lines)
    return 0, "".join(line + "\n" for line in lines)


@settings(max_examples=80, deadline=None)
@given(inputs(), bounds)
@example(EVERY_CASE, (date(2024, 9, 2), date(2024, 9, 16)))
@example(EVERY_CASE, (None, None))
# A state with a month between its posts that has none: that month's
# cell is suppressed.
@example(
    (
        [
            line("a", "2024-10-07T12:30:00Z", "shelter lines in Tampa", "Tampa, FL"),
            line("b", "2024-09-01T12:30:00Z", "shelter lines in Tampa", "Tampa, FL"),
        ],
        [("a", 1), ("b", 1)],
    ),
    (None, None),
)
def test_streamed_commands_match_the_in_memory_path(files, range_bounds):
    (lines, rows), (range_start, range_end) = files, range_bounds
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        posts, labels = tmp / "posts.jsonl", tmp / "labels.csv"
        posts.write_bytes(b"".join(line + b"\n" for line in lines))
        labels.write_text(
            "post_id,category_code\n" + "".join(f"{i},{code}\n" for i, code in rows),
            encoding="utf-8",
        )
        bounds = []
        if range_start is not None:
            bounds += ["--range-start", range_start]
        if range_end is not None:
            bounds += ["--range-end", range_end]
        for command, output, write, extra in (
            ("counts", "counts.csv", write_counts, bounds),
            ("spatial", "spatial.csv", write_spatial, []),
        ):
            out = tmp / command
            got = run_cli([command, "--in", posts, "--labels", labels, "--out", out, *extra])
            expected_path = tmp / f"expected_{output}"
            range_args = (range_start, range_end) if extra else ()
            expected = in_memory(posts, labels, write, expected_path, *range_args)
            assert got == expected, command
            event(f"{command} exit {got[0]} {got[1].partition('error: ')[2].split(':')[0]}")
            if got[0] == 0:
                assert (out / output).read_bytes() == expected_path.read_bytes(), command
            else:
                assert not out.exists() or not any(out.iterdir()), command


def test_a_handle_that_names_a_place_locates_nothing(tmp_path):
    # Both paths share the scrub, so the comparison above cannot see it go.
    posts, labels = tmp_path / "posts.jsonl", tmp_path / "labels.csv"
    post = {"id": "h1", "platform": "reddit", "created_at": "2024-09-03T10:00:00Z"}
    posts.write_text(json.dumps(post | {"text": "@Texas_help needs water"}) + "\n")
    labels.write_text("post_id,category_code\nh1,5\n", encoding="utf-8")
    code, stderr = run_cli(["spatial", "--in", posts, "--labels", labels, "--out", tmp_path])
    assert (code, stderr) == (0, "1 posts could not be located\n")


ANNOTATE_TEXTS = [
    "hurricane flooded the roads",
    "storm surge forced families to evacuate to the shelter",
    "volunteers brought relief after the hurricane",
    "thanks @fema for the hurricane supplies",
    "Miami Hurricanes win the game",
    "new pasta recipe dropped tonight",
    "",
]


def annotate_line(post_id, text, media):
    record = {
        "id": post_id,
        "platform": "tiktok",
        "text": text,
        "created_at": "2024-09-03T12:00:00Z",
    }
    return json.dumps(record | ({"media_refs": media} if media else {})).encode()


annotate_post_line = st.builds(
    annotate_line,
    st.sampled_from(IDS),
    st.sampled_from(ANNOTATE_TEXTS),
    st.sampled_from([None, None, ["img.jpg"]]),
)
annotate_posts_file = st.lists(
    st.sampled_from(
        [annotate_post_line] * 6 + [st.sampled_from(MALFORMED), st.just(b"")]
    ).flatmap(lambda kind: kind),
    min_size=1,
    max_size=12,
)


class Counting(MockBackend):
    """The mock, counting every call in calls."""

    def __init__(self, calls):
        super().__init__()
        self.tally = calls

    def complete(self, request):
        self.tally.append(request.task)
        return super().complete(request)


class Failing(Counting):
    """Fails relevance for some ids (a hard outage) and category for others (garbage)."""

    def __init__(self, calls, relevance_ids, category_ids):
        super().__init__(calls)
        self.relevance_ids, self.category_ids = relevance_ids, category_ids

    def complete(self, request):
        if request.task is Task.IMPACT_CATEGORY:
            if request.post.id in self.category_ids:
                self.tally.append(request.task)
                return "no judgment here"
        elif request.post.id in self.relevance_ids:
            self.tally.append(request.task)
            error = TransportError("scripted outage")
            error.retryable = False
            raise error
        return super().complete(request)


class Anonymous:
    """The mock's answers from a backend with no identity, through the pool."""

    def __init__(self, calls):
        self.inner = Counting(calls)

    def complete(self, request):
        return self.inner.complete(request)


@st.composite
def backend_kinds(draw):
    """A factory of fresh backends, all counting into the list it is given."""
    kind = draw(st.sampled_from(["mock", "failing", "anonymous"]))
    event(f"{kind} backend")
    if kind == "mock":
        return Counting
    if kind == "anonymous":
        return Anonymous
    relevance_ids = draw(st.sets(st.sampled_from(IDS), max_size=2))
    category_ids = draw(st.sets(st.sampled_from(IDS), max_size=2))
    return lambda calls: Failing(calls, relevance_ids, category_ids)


@st.composite
def caches(draw, posts):
    """The bytes of a cache to start from, or None: cold, warm, a clean run's, or part of one."""
    kind = draw(st.sampled_from(["cold", "warm", "clean", "partial"]))
    event(f"{kind} cache")
    if kind == "cold":
        return None
    with tempfile.TemporaryDirectory() as tmp:
        command = "clean" if kind == "clean" else "annotate"
        run_cli([command, "--in", posts, "--disaster", "hurricane", "--out", tmp])
        cache = Path(tmp) / "annotation_cache.jsonl"
        data = cache.read_bytes() if cache.exists() else None
    if kind != "partial" or data is None:
        return data
    lines = data.splitlines(keepends=True)
    kept = [line for line in lines if draw(st.booleans())]
    torn = draw(st.sampled_from([b"", lines[-1][:20]]))
    return b"".join(kept) + torn


def annotate_in_memory(posts, cache, labels_path, backend):
    """(exit code, stdout, stderr) of the two stages over the loaded posts."""
    try:
        loaded = load_posts(posts)
    except DisimpactError as exc:
        return exc.exit_code, "", f"error: {type(exc).__name__}: {exc}\n"
    stderr = ""
    if loaded.report.dropped_malformed or loaded.report.dropped_duplicate:
        stderr += (
            f"dropped {loaded.report.dropped_malformed} malformed, "
            f"{loaded.report.dropped_duplicate} duplicate lines\n"
        )
    report = AnnotationReport()
    loop = _StageLoop(report, backend, ClientPolicy(), cache, time.sleep)
    posts = loaded.posts
    relevance = loop.run(posts, Task.RELEVANCE_HURRICANE)
    relevant = [post for post, flag in zip(posts, relevance) if flag]
    categories = iter(loop.run(relevant, Task.IMPACT_CATEGORY))
    labels = []
    for post, flag in zip(posts, relevance):
        category = next(categories) if flag else OTHER
        if flag is not None and category is not None:
            labels.append(Label(post.id, category, flag))
    loop.count(len(posts))
    write_labels_csv(labels, labels_path)
    n_relevant = sum(1 for label in labels if label.relevant)
    stdout = (
        f"annotated {len(labels)}/{len(posts)} posts "
        f"({n_relevant} relevant, {report.cache_hits} cache hits)\n"
    )
    for error in report.errors:
        stderr += f"error: post {error.post_id}: {error.stage}: {error.message}\n"
    stages = {error.stage for error in report.errors}
    return (3 if "TransportError" in stages else 1 if stages else 0), stdout, stderr


@settings(max_examples=60, deadline=None)
@given(st.data(), annotate_posts_file, backend_kinds())
def test_streamed_annotate_matches_the_in_memory_path(data, lines, make_backend):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        posts, out, expected = tmp / "posts.jsonl", tmp / "out", tmp / "expected"
        posts.write_bytes(b"".join(line + b"\n" for line in lines))
        seed = data.draw(caches(posts))
        for directory in (out, expected):
            directory.mkdir()
            if seed is not None:
                (directory / "annotation_cache.jsonl").write_bytes(seed)

        streamed_calls, in_memory_calls = [], []
        with mock.patch("disimpact.cli.make_backend", lambda args: make_backend(streamed_calls)):
            out_buffer, err_buffer = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out_buffer), contextlib.redirect_stderr(err_buffer):
                code = main(["annotate", "--in", str(posts), "--disaster", "hurricane",
                             "--out", str(out)])
        got = code, out_buffer.getvalue(), err_buffer.getvalue()
        want = annotate_in_memory(
            posts,
            expected / "annotation_cache.jsonl",
            expected / "labels.csv",
            make_backend(in_memory_calls),
        )
        assert got == want
        assert streamed_calls == in_memory_calls
        event(f"annotate exit {got[0]}, {len(streamed_calls)} calls")
        cache = out / "annotation_cache.jsonl"
        expected_cache = expected / "annotation_cache.jsonl"
        assert cache.exists() == expected_cache.exists()
        if cache.exists():
            assert cache.read_bytes() == expected_cache.read_bytes()
        if got[0] == 0:
            assert (out / "labels.csv").read_bytes() == (expected / "labels.csv").read_bytes()
        else:
            assert not (out / "labels.csv").exists()


# Ids and texts from the whole of Unicode, lone surrogates included, with
# the characters a CSV or JSON writer must quote or escape drawn often.
AWKWARD = st.sampled_from(list(',"\n\r\t #@\ufeff\x00é☂\ud800\udfff'))
drawn_chars = st.text(st.one_of(AWKWARD, st.characters(exclude_categories=())), max_size=5)
drawn_id = st.one_of(
    st.sampled_from(IDS),
    drawn_chars,
    # Awkward inside but not at the ends, so more of them are kept.
    st.builds(lambda inner: f"<{inner}>", drawn_chars),
)
drawn_text = st.builds(
    lambda known, extra: f"{known} {extra}", st.sampled_from(TEXTS + ANNOTATE_TEXTS), drawn_chars
)
drawn_posts = st.lists(
    st.builds(
        lambda post_id, day, text, metadata: line(
            post_id, f"{date(2024, 9, 1) + timedelta(days=day)}T12:30:00Z", text, metadata
        ),
        drawn_id,
        st.integers(0, 30),
        drawn_text,
        st.sampled_from(METADATA),
    ),
    min_size=1,
    max_size=8,
)


RELEVANT = ("2024-09-03T12:30:00Z", "hurricane flooded the roads")


def ids_of_posts(path):
    return [post.id for post in iter_posts(path, LoadReport())]


@settings(max_examples=40, deadline=None)
@given(drawn_posts)
# The ids that once broke labels.csv, each on a relevant post.
@example([line("lone \ud800", *RELEVANT), line("a", *RELEVANT)])
@example([line("cr\rz", *RELEVANT), line("a", *RELEVANT)])
@example([line(" lead", *RELEVANT), line("a", *RELEVANT)])
def test_drawn_ids_and_texts_survive_clean_annotate_counts_and_spatial(lines):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        posts, cleaned, out = tmp / "posts.jsonl", tmp / "clean", tmp / "out"
        posts.write_bytes(b"".join(line + b"\n" for line in lines))
        labels = out / "labels.csv"
        steps = {
            "clean": ["clean", "--in", posts, "--disaster", "hurricane", "--out", cleaned],
            "annotate": ["annotate", "--in", posts, "--disaster", "hurricane", "--out", out],
            "counts": ["counts", "--in", posts, "--labels", labels, "--out", tmp / "counts"],
            "spatial": ["spatial", "--in", posts, "--labels", labels, "--out", tmp / "spatial"],
        }
        codes = {}
        for command, argv in steps.items():
            codes[command], stderr = run_cli(argv)
            assert codes[command] in {0, 1, 2, 3}, command
            # Each error is one line, the last; a message never spans lines.
            errors = [n for n, text in enumerate(stderr.split("\n")) if text.startswith("error: ")]
            assert errors == ([] if codes[command] == 0 else [stderr.count("\n") - 1]), stderr
        assert list(tmp.rglob(".*.tmp")) == []
        try:
            kept = ids_of_posts(posts)
        except MalformedInput:
            # No labels.csv is written, so counts and spatial fail too.
            assert codes["clean"] == codes["annotate"] == MalformedInput.exit_code
            return
        assert codes["clean"] == codes["annotate"] == 0
        relevant = ids_of_posts(cleaned / "posts_clean.jsonl")
        event(f"{len(kept)} posts kept, {len(relevant)} relevant")
        assert [post_id for _, post_id, _ in iter_labels(labels)] == relevant
        assert [post_id for post_id in kept if post_id in relevant] == relevant
        for cache in (cleaned / "annotation_cache.jsonl", out / "annotation_cache.jsonl"):
            if kept:
                entries = cache.read_bytes().splitlines()
                assert {json.loads(entry)["post_id"] for entry in entries} == set(kept)
        if relevant:
            # Every labelled post is joined: counts rolls up exactly them.
            assert codes["counts"] == codes["spatial"] == 0
            header = ("window_start", "category", "count", "total")
            rows = csv_rows(tmp / "counts" / "counts.csv", header)
            assert sum(int(count) for _, (_, _, count, _) in rows) == len(relevant)
