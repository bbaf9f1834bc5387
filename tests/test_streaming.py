"""The streamed annotate, counts and spatial commands against the in-memory path.

`counts` and `spatial` read the labels first and then stream posts.jsonl
once, keeping only what they roll up. Here random posts and labels files
(malformed and non-UTF-8 lines, repeated ids with other dates and
places, unlabelled posts, posts outside the range, handles that name a
place) go through both commands and through iter_posts + load_labels +
resolve_location, and every output byte, stderr line and exit code must
agree.

`annotate` reads the cache first and then streams posts.jsonl once,
keeping an id and one byte of state per post. Random posts files,
caches and backends, and one post in each of those states, go through
it and through a plain loop over the loaded posts that shares none of
its code, and labels.csv, the cache bytes, stdout, stderr, the exit
code and the backend calls must agree.

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

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from disimpact import (
    OTHER,
    ClientPolicy,
    DisimpactError,
    EmptyInput,
    IndexConfig,
    Label,
    Located,
    MalformedResponse,
    MockBackend,
    SourceFilter,
    Task,
    TransportError,
    MalformedInput,
    UnknownPostId,
    aggregate_state_month,
    build_count_series,
    category_from_code,
    load_gazetteer,
    load_labels,
    resolve_location,
    write_counts_csv,
    write_labels_csv,
    write_spatial_csv,
)
from disimpact.annotation import _classify, _key, _key_material, _question
from disimpact.ingestion import COUNTS_CSV, LABELS_CSV, LoadReport, csv_rows, iter_posts
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
    series, outside_range = build_count_series(
        Counter((post.created_date, category) for post, category in joined),
        IndexConfig(),
        range_start,
        range_end,
    )
    write_counts_csv(series, path)
    lines = [f"{unlabeled} posts had no label"] if unlabeled else []
    return lines + ([f"{outside_range} posts outside range"] if outside_range else [])


def write_spatial(joined, unlabeled, path, range_start, range_end):
    """Write spatial.csv from joined (post, category) pairs; its stderr lines."""
    located = [
        Located(state, post.created_date, category, source)
        for post, category in joined
        for state, source in [resolve_location(post, GAZETTEER)]
    ]
    rows, report = aggregate_state_month(Counter(located), IndexConfig())
    write_spatial_csv(rows, SourceFilter.BOTH, path)
    lines = [f"{report.unlocated} posts could not be located"] if report.unlocated else []
    if report.suppressed_cells:
        lines.append(f"{len(report.suppressed_cells)} cells under min_group_size suppressed")
    if report.zero_iqr_states:
        lines.append(
            f"IQR of 0 in the weekly totals of {report.zero_iqr_states} state series; "
            "max(1, mean * 1e-6) stands in for it"
        )
    return lines


def in_memory(posts, labels, write, path, range_start=None, range_end=None):
    """(exit code, stderr) of the in-memory path; it writes its output to path."""
    lines = []
    try:
        report = LoadReport()
        loaded = tuple(iter_posts(posts, report))
        by_id = load_labels(labels)
        known = {post.id for post in loaded}
        unknown = [(n, i) for n, (i, _) in csv_rows(labels, LABELS_CSV) if i not in known]
        if unknown:
            raise UnknownPostId(f"{labels}:{unknown[0][0]}: unknown post id {unknown[0][1]!r}")
        if report.dropped_malformed or report.dropped_duplicate:
            lines.append(
                f"dropped {report.dropped_malformed} malformed, "
                f"{report.dropped_duplicate} duplicate lines"
            )
        joined = [(post, by_id[post.id]) for post in loaded if post.id in by_id]
        unlabeled = len(loaded) - len(joined)
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
    """The mock, recording the post id and task of every call in calls."""

    def __init__(self, calls):
        super().__init__()
        self.tally = calls

    def complete(self, request):
        self.tally.append((request.post.id, request.task))
        return super().complete(request)


class PooledCounting(Counting):
    """The counting mock, with its identity, called from the pool."""

    in_process = False


class Failing(Counting):
    """Fails relevance for some ids (a hard outage) and category for others (garbage)."""

    def __init__(self, calls, relevance_ids, category_ids):
        super().__init__(calls)
        self.relevance_ids, self.category_ids = relevance_ids, category_ids

    def complete(self, request):
        if request.task is Task.IMPACT_CATEGORY:
            if request.post.id in self.category_ids:
                self.tally.append((request.post.id, request.task))
                return "no judgment here"
        elif request.post.id in self.relevance_ids:
            self.tally.append((request.post.id, request.task))
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


def cache_after(command, posts):
    """The cache bytes a mock `clean` or `annotate` of posts leaves, or None."""
    with tempfile.TemporaryDirectory() as tmp:
        run_cli([command, "--in", posts, "--disaster", "hurricane", "--out", tmp])
        cache = Path(tmp) / "annotation_cache.jsonl"
        return cache.read_bytes() if cache.exists() else None


@st.composite
def caches(draw, posts):
    """The bytes of a cache to start from, or None: cold, warm, a clean run's, or part of one."""
    kind = draw(st.sampled_from(["cold", "warm", "clean", "partial"]))
    event(f"{kind} cache")
    if kind == "cold":
        return None
    data = cache_after("clean" if kind == "clean" else "annotate", posts)
    if kind != "partial" or data is None:
        return data
    lines = data.splitlines(keepends=True)
    kept = [line for line in lines if draw(st.booleans())]
    torn = draw(st.sampled_from([b"", lines[-1][:20]]))
    return b"".join(kept) + torn


def read_cache(path):
    """Each judgment of the cache at path by its key, and the count of lines that do not decode.

    Blank lines are skipped.
    """
    verdicts, unreadable = {}, 0
    for raw in path.read_bytes().splitlines() if path.exists() else ():
        try:
            entry = json.loads(raw)
        except ValueError:
            unreadable += bool(raw.strip())
            continue
        judgment = entry["judgment"]
        if not isinstance(judgment, bool):
            judgment = category_from_code(judgment)
        verdicts[bytes.fromhex(entry["key"])] = judgment
    return verdicts, unreadable


def annotate_in_memory(posts, cache, labels_path, backend, asked_ids=None):
    """(exit code, stdout, stderr) of annotate as a plain loop over the loaded posts.

    Post by post, it takes each verdict from the cache, or from an
    earlier post of the run with the same key, or asks for it:
    relevance, then a relevant post's category. A post that asks holds
    a place in the streamed loop's window, as does one that takes the
    verdict or error of a post still in it: one place inline, twice
    ClientPolicy's max_in_flight with a pool. A later post with a failed
    post's key asks again once that post has left. Each new verdict's line
    is appended as json.dumps gives it. A file that fails its
    end-of-read check has its valid posts asked about all the same, and
    their lines appended, before the command fails. asked_ids, if
    given, holds the ids of the only posts the backend is asked about.
    """
    dropped, loaded, error = LoadReport(), [], None
    try:
        loaded.extend(iter_posts(posts, dropped))
    except DisimpactError as exc:
        error = exc
    posts = tuple(loaded)
    stderr = ""
    if dropped.dropped_malformed or dropped.dropped_duplicate:
        stderr += (
            f"dropped {dropped.dropped_malformed} malformed, "
            f"{dropped.dropped_duplicate} duplicate lines\n"
        )
    cached, unreadable = read_cache(cache)
    # A backend without an identity reuses no cached verdict.
    if not getattr(backend, "identity", None):
        cached = {}
    new_lines, failures, labels = [], [], []
    asked = set()  # the ids of posts that needed a backend call
    shared = set()  # the ids of posts that took an earlier post's verdict or error
    this_run = {}  # each key asked in this run: the place of the post asking, and what it got
    depth = 1 if getattr(backend, "in_process", False) else 2 * ClientPolicy().max_in_flight
    places = 0  # the places in the window taken so far
    placed = False  # whether the post at hand takes one

    def verdict(post, task):
        """The post's cached verdict for task, else the run's, else the backend's; None on failure."""
        nonlocal placed
        key = _key(_question(task, backend), _key_material(post))
        if key in cached:
            return cached[key]
        if key in this_run:
            place, judgment = this_run[key]
            waits = places - place < depth  # the post that asked is still in the window
            placed |= waits
            if waits or not isinstance(judgment, DisimpactError):
                shared.add(post.id)
                if isinstance(judgment, DisimpactError):
                    failures.append((post.id, judgment))
                    return None
                return judgment
        if asked_ids is not None and post.id not in asked_ids:
            return None
        asked.add(post.id)
        placed = True
        try:
            judgment = _classify(post, task, backend, ClientPolicy(), time.sleep)
        except (TransportError, MalformedResponse, EmptyInput) as exc:
            failures.append((post.id, exc))
            this_run[key] = places, exc
            return None
        this_run[key] = places, judgment
        line = {
            "judgment": judgment if isinstance(judgment, bool) else judgment.code,
            "key": key.hex(),
            "post_id": post.id,
            "task": task.value,
        }
        new_lines.append(json.dumps(line, sort_keys=True).encode() + b"\n")
        return judgment

    for post in posts:
        placed = False
        flag = verdict(post, Task.RELEVANCE_HURRICANE)
        category = verdict(post, Task.IMPACT_CATEGORY) if flag else OTHER
        if flag is not None and category is not None:
            labels.append(Label(post.id, category, flag))
        places += placed
    if new_lines:
        seed = cache.read_bytes() if cache.exists() else b""
        with cache.open("ab") as fh:
            if seed and not seed.endswith(b"\n"):
                fh.write(b"\n")  # a torn last line stays one line
            fh.write(b"".join(new_lines))
    if error is not None:
        return error.exit_code, "", f"error: {type(error).__name__}: {error}\n"
    write_labels_csv(labels, labels_path)
    n_relevant = sum(1 for label in labels if label.relevant)
    shared -= asked
    stdout = (
        f"annotated {len(labels)}/{len(posts)} posts ({n_relevant} relevant, "
        f"{len(posts) - len(asked) - len(shared)} cache hits, {len(shared)} shared)\n"
    )
    if unreadable:
        stderr += f"ignored {unreadable} unreadable cache lines\n"
    for post_id, exc in failures:
        stderr += f"error: post {post_id}: {type(exc).__name__}: {exc}\n"
    if any(isinstance(exc, TransportError) for _, exc in failures):
        return 3, stdout, stderr
    return (1 if failures else 0), stdout, stderr


def assert_annotate_matches_the_in_memory_path(tmp, seed, make_backend, extra=()):
    """Annotate tmp/posts.jsonl from the cache bytes seed (None: no cache) both ways.

    labels.csv, the cache bytes, stdout, stderr, the exit code and the
    backend calls must agree; returns the exit code and the tasks called.
    extra is added to the streamed command's arguments.
    """
    posts, out, expected = tmp / "posts.jsonl", tmp / "out", tmp / "expected"
    for directory in (out, expected):
        directory.mkdir()
        if seed is not None:
            (directory / "annotation_cache.jsonl").write_bytes(seed)

    streamed_calls, in_memory_calls = [], []
    with mock.patch("disimpact.cli.make_backend", lambda args: make_backend(streamed_calls)):
        out_buffer, err_buffer = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out_buffer), contextlib.redirect_stderr(err_buffer):
            code = main(["annotate", "--in", str(posts), "--disaster", "hurricane",
                         "--out", str(out), *extra])
    got = code, out_buffer.getvalue(), err_buffer.getvalue()
    backend = make_backend(in_memory_calls)
    pooled = not getattr(backend, "in_process", False)
    # When the posts fail their end-of-read check, the pool sends none of
    # its queued requests: only the posts the command asked about are asked.
    asked = {post_id for post_id, _ in streamed_calls} if pooled and code == 2 else None
    want = annotate_in_memory(
        posts, expected / "annotation_cache.jsonl", expected / "labels.csv", backend, asked
    )
    assert got == want
    if pooled:
        # Pool threads may interleave the posts; each post's calls keep their order.
        for calls in (streamed_calls, in_memory_calls):
            calls.sort(key=lambda call: call[0])
    assert streamed_calls == in_memory_calls
    cache = out / "annotation_cache.jsonl"
    expected_cache = expected / "annotation_cache.jsonl"
    assert cache.exists() == expected_cache.exists()
    if cache.exists():
        assert cache.read_bytes() == expected_cache.read_bytes()
    if got[0] == 0:
        assert (out / "labels.csv").read_bytes() == (expected / "labels.csv").read_bytes()
    else:
        assert not (out / "labels.csv").exists()
    return got[0], [task for _, task in streamed_calls]


@settings(max_examples=60, deadline=None)
@given(st.data(), annotate_posts_file, backend_kinds())
def test_streamed_annotate_matches_the_in_memory_path(data, lines, make_backend):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        posts = tmp / "posts.jsonl"
        posts.write_bytes(b"".join(line + b"\n" for line in lines))
        seed = data.draw(caches(posts))
        code, calls = assert_annotate_matches_the_in_memory_path(tmp, seed, make_backend)
        event(f"annotate exit {code}, {len(calls)} calls")


RELEVANCE, CATEGORY = Task.RELEVANCE_HURRICANE, Task.IMPACT_CATEGORY


# One post in each state annotate keeps per post, from a given cache: the
# calls it makes, its labels and the tasks of the cache lines after it.
@pytest.mark.parametrize(
    "text, seed, make_backend, code, calls, labels, cached",
    [
        pytest.param(
            "Miami Hurricanes win the game", "clean", Counting, 0, [], "", [RELEVANCE],
            id="relevance cached False",
        ),
        pytest.param(
            "hurricane flooded the roads", "clean", Counting, 0, [CATEGORY], "a,3\n",
            [RELEVANCE, CATEGORY], id="relevance cached True, category missing",
        ),
        pytest.param(
            "hurricane flooded the roads", "category only", Counting, 0, [RELEVANCE],
            "a,3\n", [CATEGORY, RELEVANCE], id="relevance missing, category cached",
        ),
        pytest.param(
            "hurricane flooded the roads", "category only", PooledCounting, 0, [RELEVANCE],
            "a,3\n", [CATEGORY, RELEVANCE], id="relevance missing, category cached, pool",
        ),
        pytest.param(
            "hurricane photos from the pier", "annotate", Counting, 0, [], "a,11\n",
            [RELEVANCE, CATEGORY], id="relevant and categorized OTHER",
        ),
        pytest.param(
            "hurricane flooded the roads", None, PooledCounting, 0, [RELEVANCE, CATEGORY],
            "a,3\n", [RELEVANCE, CATEGORY], id="empty cache, pool",
        ),
        pytest.param(
            "hurricane flooded the roads", None,
            lambda calls: Failing(calls, {"a"}, set()), 3, [RELEVANCE], None, [],
            id="relevance call failed",
        ),
        pytest.param(
            "hurricane flooded the roads", "clean",
            lambda calls: Failing(calls, set(), {"a"}), 1, [CATEGORY], None, [RELEVANCE],
            id="category call failed",
        ),
        pytest.param(
            "hurricane flooded the roads", None,
            lambda calls: Failing(calls, set(), {"a"}), 1, [RELEVANCE, CATEGORY], None,
            [RELEVANCE], id="category call failed after relevance",
        ),
    ],
)
def test_each_post_state_matches_the_in_memory_path(
    tmp_path, text, seed, make_backend, code, calls, labels, cached
):
    posts = tmp_path / "posts.jsonl"
    posts.write_bytes(annotate_line("a", text, None) + b"\n")
    if seed == "category only":
        lines = cache_after("annotate", posts).splitlines(keepends=True)
        seed = b"".join(line for line in lines if b'"task": "impact_category"' in line)
        assert len(lines) == 2 and seed in lines
    elif seed is not None:
        seed = cache_after(seed, posts)
    extra = ["--max-in-flight", "8"]
    assert assert_annotate_matches_the_in_memory_path(tmp_path, seed, make_backend, extra) == (
        code, calls
    )
    cache = tmp_path / "out" / "annotation_cache.jsonl"
    lines = cache.read_bytes().splitlines() if cache.exists() else []
    assert [json.loads(line)["task"] for line in lines] == [task.value for task in cached]
    if seed is None and code == 0:
        # The pool writes the bytes the inline mock writes.
        assert cache.read_bytes() == cache_after("annotate", posts)
    if labels is not None:
        labels_csv = (tmp_path / "out" / "labels.csv").read_text(encoding="utf-8")
        assert labels_csv == "post_id,category_code\n" + labels


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


def first_askers(path):
    """The id of the first post of each distinct (text, media) pair: the posts that ask."""
    first = {}
    for post in iter_posts(path, LoadReport()):
        first.setdefault((post.text, post.media_refs), post.id)
    return set(first.values())


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
        assert list(load_labels(labels)) == relevant
        assert [post_id for post_id in kept if post_id in relevant] == relevant
        for cache in (cleaned / "annotation_cache.jsonl", out / "annotation_cache.jsonl"):
            if kept:
                entries = cache.read_bytes().splitlines()
                assert {json.loads(entry)["post_id"] for entry in entries} == first_askers(posts)
        if relevant:
            # Every labelled post is joined: counts rolls up exactly them.
            assert codes["counts"] == codes["spatial"] == 0
            rows = csv_rows(tmp / "counts" / "counts.csv", COUNTS_CSV)
            assert sum(count for _, (_, _, count, _) in rows) == len(relevant)
