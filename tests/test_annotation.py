"""Tests for the two-stage classifier client and its caching layer."""

import hashlib
import json
import re
import sys
import threading
import time
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, PooledMock, RecordingMock, make_post

from disimpact import (
    ClassifierRequest,
    ClientPolicy,
    DisasterTag,
    Label,
    LoadReport,
    MalformedResponse,
    MockBackend,
    OTHER,
    OutOfRange,
    RemoteBackend,
    Task,
    TransportError,
    annotate_dataset,
    clean_dataset,
    iter_posts,
    load_prompt,
    parse_judgment,
    scrub_handles,
)
import disimpact.annotation
from disimpact.annotation import (
    PROMPT_TEMPLATE_IDS,
    RELEVANCE_TASKS,
    _Verdicts,
    _key,
    _key_material,
    _question,
    _read_cache,
)


# Texts with a known deterministic mock outcome: (text, relevant, code).
SCRIPTED_POSTS = [
    ("hurricane helene update: two people died when the creek rose", True, 1),
    ("storm surge forced families to evacuate to the shelter", True, 2),
    ("hurricane milton knocked out power across the county", True, 3),
    ("flood left the wetland contaminated for months", True, 4),
    ("after the hurricane we are running low on supplies", True, 5),
    ("Miami Hurricanes win the game", False, None),
    ("new pasta recipe dropped tonight", False, None),
    ("the anxiety since hurricane helene is unreal", True, 7),
    ("volunteers arrived with relief trucks after the hurricane", True, 9),
    ("hurricane helene sunset photos from the pier", True, 11),
]


def make_posts(rows=SCRIPTED_POSTS):
    return tuple(make_post(post_id=f"p{i}", text=text) for i, (text, _, _) in enumerate(rows))


def annotate(posts, backend, *args, **kwargs):
    """annotate_dataset on hurricane posts."""
    return annotate_dataset(posts, DisasterTag.HURRICANE, backend, *args, **kwargs)


def clean(posts, backend, *args, **kwargs):
    """clean_dataset on hurricane posts: the posts it keeps, in order, and its report."""
    kept = []
    report = clean_dataset(
        posts, DisasterTag.HURRICANE, backend, *args, keep=kept.append, **kwargs
    )
    return kept, report


class FlakyBackend:
    """Raises a scripted number of transport failures before delegating."""

    def __init__(self, failures: int, retryable: bool = True):
        self.failures = failures
        self.retryable = retryable
        self.calls = 0
        self.tasks = []
        self.inner = MockBackend()

    def complete(self, request: ClassifierRequest) -> str:
        self.calls += 1
        self.tasks.append(request.task)
        if self.calls <= self.failures:
            error = TransportError("scripted failure")
            error.retryable = self.retryable
            raise error
        return self.inner.complete(request)


class SelectiveBackend:
    """Hard transport failure for chosen post ids, mock behavior otherwise."""

    identity = "mock"

    def __init__(self, bad_ids):
        self.bad_ids = set(bad_ids)
        self.inner = MockBackend()

    @property
    def calls(self) -> int:
        return self.inner.calls

    def complete(self, request: ClassifierRequest) -> str:
        if request.post.id in self.bad_ids:
            error = TransportError("scripted outage")
            error.retryable = False
            raise error
        return self.inner.complete(request)


class GarbageBackend(MockBackend):
    """Returns output with no judgment object in it for one task, mock verdicts otherwise."""

    def __init__(self, task: Task):
        super().__init__()
        self.task = task
        self.tasks = []

    def complete(self, request: ClassifierRequest) -> str:
        self.tasks.append(request.task)
        answer = super().complete(request)
        return "sorry, I cannot help with that" if request.task is self.task else answer


class NestingBackend(MockBackend):
    """Replies for chosen post ids with a judgment nested 100,000 lists deep."""

    def __init__(self, bad_ids):
        super().__init__()
        self.bad_ids = set(bad_ids)

    def complete(self, request: ClassifierRequest) -> str:
        answer = super().complete(request)
        if request.post.id in self.bad_ids:
            return '{"Judgment": ' + "[" * 100_000 + "]" * 100_000 + "}"
        return answer


class GaugeBackend:
    """Tracks peak concurrent complete() calls."""

    def __init__(self):
        self.inner = MockBackend()
        self._lock = threading.Lock()
        self.active = 0
        self.peak = 0

    def complete(self, request: ClassifierRequest) -> str:
        with self._lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        time.sleep(0.005)
        try:
            return self.inner.complete(request)
        finally:
            with self._lock:
                self.active -= 1


class InterruptingBackend(MockBackend):
    """The mock, except that its Nth call raises KeyboardInterrupt."""

    def __init__(self, interrupt_at: int):
        super().__init__()
        self.interrupt_at = interrupt_at
        self._order = threading.Lock()

    def complete(self, request: ClassifierRequest) -> str:
        with self._order:
            answer = super().complete(request)
            call = self.calls
        if call == self.interrupt_at:
            raise KeyboardInterrupt
        return answer


def cache_lines(path, task=None) -> list[dict]:
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    return [line for line in lines if task in (None, line["task"])]


no_sleep = lambda _seconds: None  # noqa: E731


class TestPrompts:
    def test_all_templates_load(self):
        for task, template_id in PROMPT_TEMPLATE_IDS.items():
            text = load_prompt(template_id)
            assert "Judgment" in text, task

    def test_relevance_templates_ask_for_boolean(self):
        for template_id in ("clean_hurricane", "clean_wildfire"):
            text = load_prompt(template_id).lower()
            assert "true" in text and "false" in text

    def test_impact_template_lists_all_codes(self):
        text = load_prompt("classify_impact")
        for code in range(1, 12):
            assert re.search(rf"\b{code}\b", text)

    def test_unknown_template_id(self):
        with pytest.raises(FileNotFoundError):
            load_prompt("no_such_template")


class TestParseJudgment:
    def test_relevance_true(self):
        assert parse_judgment('{"Judgment": true}', Task.RELEVANCE_HURRICANE) is True

    def test_relevance_false(self):
        assert parse_judgment('{"Judgment": false}', Task.RELEVANCE_WILDFIRE) is False

    def test_impact_code_to_category(self):
        category = parse_judgment('{"Judgment": 7}', Task.IMPACT_CATEGORY)
        assert category.short_name == "EMOT"
        assert category.code == 7

    def test_relevance_rejects_free_text(self):
        with pytest.raises(MalformedResponse):
            parse_judgment('{"Judgment": "maybe"}', Task.RELEVANCE_HURRICANE)

    def test_impact_rejects_out_of_range_code(self):
        with pytest.raises(MalformedResponse):
            parse_judgment('{"Judgment": 12}', Task.IMPACT_CATEGORY)
        with pytest.raises(MalformedResponse):
            parse_judgment('{"Judgment": 0}', Task.IMPACT_CATEGORY)

    def test_impact_rejects_boolean(self):
        with pytest.raises(MalformedResponse):
            parse_judgment('{"Judgment": true}', Task.IMPACT_CATEGORY)

    def test_title_case_booleans_accepted(self):
        assert parse_judgment('{"Judgment": True}', Task.RELEVANCE_HURRICANE) is True
        assert parse_judgment('{"Judgment": False}', Task.RELEVANCE_HURRICANE) is False

    def test_boolean_spelled_as_string(self):
        assert parse_judgment('{"Judgment": "TRUE"}', Task.RELEVANCE_HURRICANE) is True

    def test_judgment_embedded_in_prose(self):
        raw = 'Based on the text, the answer is {"Judgment": 3} here.'
        assert parse_judgment(raw, Task.IMPACT_CATEGORY).short_name == "INFR"

    def test_only_the_first_object_is_read(self):
        raw = 'Sure! {"Judgment": 3} (see {notes})'
        assert parse_judgment(raw, Task.IMPACT_CATEGORY).short_name == "INFR"
        raw = '{"Judgment": true} {"other": 1}'
        assert parse_judgment(raw, Task.RELEVANCE_HURRICANE) is True
        raw = '{"Judgment": False} and then {"Judgment": true}'
        assert parse_judgment(raw, Task.RELEVANCE_HURRICANE) is False

    def test_no_json_object(self):
        with pytest.raises(MalformedResponse):
            parse_judgment("no structured output at all", Task.RELEVANCE_HURRICANE)

    def test_wrong_field_name(self):
        with pytest.raises(MalformedResponse):
            parse_judgment('{"verdict": true}', Task.RELEVANCE_HURRICANE)


class TestMockBackend:
    def request(self, text, task=Task.RELEVANCE_HURRICANE):
        return ClassifierRequest(post=make_post(text=text), task=task)

    def judge(self, text, task=Task.RELEVANCE_HURRICANE):
        backend = MockBackend()
        return parse_judgment(backend.complete(self.request(text, task)), task)

    def test_on_topic_post_is_relevant(self):
        assert self.judge("Hurricane Helene flooded our street") is True

    def test_sports_homonym_is_irrelevant(self):
        assert self.judge("Miami Hurricanes win the game") is False

    def test_simile_is_irrelevant(self):
        assert self.judge("It hit me like a hurricane when I saw the setlist") is False

    def test_off_topic_text_is_irrelevant(self):
        assert self.judge("new pasta recipe dropped tonight") is False

    def test_wildfire_rules_are_separate(self):
        assert self.judge("brush fire closed the canyon", Task.RELEVANCE_WILDFIRE)
        assert self.judge("Hurricane Helene flooded our street", Task.RELEVANCE_WILDFIRE) is False

    def test_infrastructure_keywords(self):
        verdict = self.judge("power lines down, whole county dark", Task.IMPACT_CATEGORY)
        assert verdict.short_name == "INFR"

    def test_no_keyword_falls_through_to_catch_all(self):
        verdict = self.judge("sunset photos from the pier", Task.IMPACT_CATEGORY)
        assert verdict.short_name == "OTHER"

    def test_earlier_category_wins_on_ties(self):
        verdict = self.judge(
            "two people died while trying to evacuate", Task.IMPACT_CATEGORY
        )
        assert verdict.code == 1

    def test_deterministic_across_instances(self):
        texts = [text for text, _, _ in SCRIPTED_POSTS]
        runs = []
        for _ in range(2):
            backend = MockBackend()
            runs.append(
                [backend.complete(self.request(t, Task.IMPACT_CATEGORY)) for t in texts]
            )
        assert runs[0] == runs[1]

    def test_request_log_records_payloads(self):
        backend = RecordingMock()
        backend.complete(self.request("storm surge tonight"))
        assert backend.calls == 1
        payload = json.loads(backend.request_log[0])
        assert payload["post"]["text"] == "storm surge tonight"
        assert payload["template_id"] == "clean_hurricane"


class TestRetries:
    """The client policy, through annotate_dataset; a failure is an error stage."""

    def run(self, backend, tmp_path, text="storm surge at the pier", **policy):
        sleeps = []
        labels, report = annotate(
            [make_post(text=text)],
            backend,
            ClientPolicy(**policy),
            cache_path=tmp_path / "cache.jsonl",
            sleep=sleeps.append,
        )
        return labels, [(e.post_id, e.stage) for e in report.errors], sleeps

    def test_retryable_failures_then_success(self, tmp_path):
        backend = FlakyBackend(failures=2)
        labels, errors, sleeps = self.run(backend, tmp_path, max_retries=2)
        assert [label.relevant for label in labels] == [True]
        assert errors == []
        assert backend.tasks == [Task.RELEVANCE_HURRICANE] * 3 + [Task.IMPACT_CATEGORY]
        assert sleeps == [0.5, 1.0]

    def test_attempts_capped_at_one_plus_max_retries(self, tmp_path):
        backend = FlakyBackend(failures=99)
        labels, errors, _ = self.run(backend, tmp_path, max_retries=2)
        assert (labels, errors) == ([], [("p1", "TransportError")])
        assert backend.calls == 3

    def test_non_retryable_failure_is_immediate(self, tmp_path):
        backend = FlakyBackend(failures=1, retryable=False)
        labels, errors, sleeps = self.run(backend, tmp_path, max_retries=5)
        assert (labels, errors) == ([], [("p1", "TransportError")])
        assert backend.calls == 1
        assert sleeps == []

    def test_zero_retries_means_single_attempt(self, tmp_path):
        backend = FlakyBackend(failures=1)
        labels, errors, sleeps = self.run(backend, tmp_path, max_retries=0)
        assert (labels, errors) == ([], [("p1", "TransportError")])
        assert backend.calls == 1
        assert sleeps == []

    def test_malformed_output_is_not_retried(self, tmp_path):
        backend = GarbageBackend(Task.IMPACT_CATEGORY)
        labels, errors, sleeps = self.run(backend, tmp_path, max_retries=5)
        assert (labels, errors) == ([], [("p1", "MalformedResponse")])
        assert backend.tasks == [Task.RELEVANCE_HURRICANE, Task.IMPACT_CATEGORY]
        assert sleeps == []

    def test_empty_post_rejected_before_any_call(self, tmp_path):
        backend = MockBackend()
        labels, errors, _ = self.run(backend, tmp_path, text="")
        assert (labels, errors) == ([], [("p1", "EmptyInput")])
        assert backend.calls == 0

    def test_policy_validation(self):
        with pytest.raises(OutOfRange):
            ClientPolicy(max_in_flight=0)
        assert ClientPolicy(max_in_flight=64).max_in_flight == 64
        with pytest.raises(OutOfRange, match="max_in_flight must be 1 to 64, got 65"):
            ClientPolicy(max_in_flight=65)
        with pytest.raises(OutOfRange):
            ClientPolicy(max_retries=-1)
        with pytest.raises(OutOfRange):
            RemoteBackend("http://127.0.0.1:9/x", api_key="k", timeout=0.0)


class TestAnnotateDataset:
    def test_cold_run_annotates_everything(self, tmp_path):
        posts = make_posts()
        backend = MockBackend()
        cache = tmp_path / "cache.jsonl"
        annotations, report = annotate(
            posts, backend, cache_path=cache, sleep=no_sleep
        )
        assert len(annotations) == 10
        assert report.backend_posts == 10
        assert report.cache_hits == 0
        assert report.cache_invalid == 0
        assert report.errors == []
        relevant = sum(1 for _, flag, _ in SCRIPTED_POSTS if flag)
        assert backend.calls == 10 + relevant
        # One cache line per verdict: relevance for all, category for the relevant.
        assert len(cache.read_text().splitlines()) == 10 + relevant

    def test_expected_categories(self, tmp_path):
        posts = make_posts()
        annotations, _ = annotate(
            posts, MockBackend(), cache_path=tmp_path / "c.jsonl", sleep=no_sleep
        )
        by_id = {a.post_id: a for a in annotations}
        for i, (_, relevant, code) in enumerate(SCRIPTED_POSTS):
            annotation = by_id[f"p{i}"]
            assert annotation.relevant is relevant
            if relevant:
                assert annotation.category.code == code
            else:
                assert annotation.category.short_name == "OTHER"

    def test_warm_rerun_costs_zero_calls(self, tmp_path):
        posts = make_posts()
        cache = tmp_path / "cache.jsonl"
        first, _ = annotate(
            posts, MockBackend(), cache_path=cache, sleep=no_sleep
        )
        backend = MockBackend()
        second, report = annotate(
            posts, backend, cache_path=cache, sleep=no_sleep
        )
        assert backend.calls == 0
        assert report.cache_hits == 10
        assert report.backend_posts == 0
        assert second == first

    def test_cache_is_used_up_then_released(self, tmp_path, monkeypatch):
        posts = make_posts(SCRIPTED_POSTS[4:8])  # relevant, irrelevant twice, relevant
        cache = tmp_path / "cache.jsonl"
        first, _ = annotate(posts, MockBackend(), cache_path=cache, sleep=no_sleep)
        # A verdict that answers none of the hurricane questions.
        clean_dataset(
            posts[:1], DisasterTag.WILDFIRE, MockBackend(), cache_path=cache, sleep=no_sleep
        )
        [unmatched] = cache_lines(cache, "relevance_wildfire")
        assert len(cache_lines(cache)) == 7

        found, tables = [], []

        class Verdicts(disimpact.annotation._Verdicts):
            def __init__(self, size):
                super().__init__(size)
                tables.append(weakref.ref(self))

            def get(self, key):
                state = super().get(key)
                if state:
                    found.append(key)
                return state

        monkeypatch.setattr(disimpact.annotation, "_Verdicts", Verdicts)
        hurricane = [line for line in cache_lines(cache) if line != unmatched]
        for in_process in (True, False):
            found.clear()
            tables.clear()
            backend = PooledMock()
            backend.in_process = in_process
            second, report = annotate(posts, backend, cache_path=cache, sleep=no_sleep)
            # Each hurricane verdict was found once, as its post streamed
            # by; the wildfire verdict never was ...
            assert sorted(found) == sorted(bytes.fromhex(line["key"]) for line in hurricane)
            assert len(found) == 6
            # ... and nothing of the table is held after the call returns.
            assert len(tables) == 1 and tables[0]() is None
            assert second == first
            assert report == disimpact.annotation.AnnotationReport(cache_hits=4)
            assert backend.inner.calls == 0

    def test_results_follow_dataset_order(self, tmp_path):
        posts = make_posts()
        annotations, _ = annotate(
            posts, MockBackend(), cache_path=tmp_path / "c.jsonl", sleep=no_sleep
        )
        assert [a.post_id for a in annotations] == [f"p{i}" for i in range(10)]

    def test_cache_appends_in_dataset_order(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        annotate(make_posts(), MockBackend(), cache_path=cache, sleep=no_sleep)
        # Verdicts are appended in post order, a relevant post's category
        # right after its relevance.
        assert [(line["task"], line["post_id"]) for line in cache_lines(cache)] == [
            (task, f"p{i}")
            for i, (_, flag, _) in enumerate(SCRIPTED_POSTS)
            for task in ("relevance_hurricane", "impact_category")[: 1 + flag]
        ]

    def test_failed_post_is_isolated_and_retried_later(self, tmp_path):
        posts = make_posts()
        cache = tmp_path / "cache.jsonl"
        backend = SelectiveBackend(bad_ids={"p2"})
        annotations, report = annotate(
            posts, backend, cache_path=cache, sleep=no_sleep
        )
        assert len(annotations) == 9
        assert [e.post_id for e in report.errors] == ["p2"]
        assert report.errors[0].stage == "TransportError"
        cached_ids = {
            json.loads(line)["post_id"] for line in cache.read_text().splitlines()
        }
        assert "p2" not in cached_ids and len(cached_ids) == 9

        retry_backend = MockBackend()
        retried, retry_report = annotate(
            posts, retry_backend, cache_path=cache, sleep=no_sleep
        )
        assert len(retried) == 10
        assert retry_report.cache_hits == 9
        assert retry_report.backend_posts == 1
        assert retry_backend.calls == 2  # relevance plus impact for one post

    def test_staged_resume_skips_the_cleaning_call(self, tmp_path):
        posts = make_posts()
        cache = tmp_path / "cache.jsonl"
        clean(posts, MockBackend(), cache_path=cache, sleep=no_sleep)

        backend = RecordingMock()
        annotations, report = annotate(
            posts, backend, cache_path=cache, sleep=no_sleep
        )
        relevant = sum(1 for _, flag, _ in SCRIPTED_POSTS if flag)
        assert len(annotations) == 10
        assert report.cache_hits == 10 - relevant  # irrelevant entries are complete
        templates = [json.loads(p)["template_id"] for p in backend.request_log]
        assert templates.count("clean_hurricane") == 0
        assert templates.count("classify_impact") == relevant

    @pytest.mark.parametrize("in_process", [True, False], ids=["inline", "pool"])
    def test_each_post_builds_its_key_material_once(self, tmp_path, monkeypatch, in_process):
        # After clean, a relevant post's category key misses the cache on
        # arrival; asking for it reuses what the lookup built.
        posts = make_posts()
        cache = tmp_path / "cache.jsonl"
        clean(posts, MockBackend(), cache_path=cache, sleep=no_sleep)
        built = []

        def counted(post):
            built.append(post.id)
            return _key_material(post)

        monkeypatch.setattr(disimpact.annotation, "_key_material", counted)
        backend = PooledMock()
        backend.in_process = in_process
        annotations, _ = annotate(posts, backend, cache_path=cache, sleep=no_sleep)
        assert len(annotations) == len(posts)
        assert built == [post.id for post in posts]

    def test_torn_cache_lines_are_skipped_and_counted(self, tmp_path):
        posts = make_posts()
        cache = tmp_path / "cache.jsonl"
        annotate(posts, MockBackend(), cache_path=cache, sleep=no_sleep)
        out_of_range = dict(cache_lines(cache, "impact_category")[1], judgment=99)
        boolean = dict(cache_lines(cache, "impact_category")[2], judgment=True)
        with cache.open("a", encoding="utf-8") as fh:
            fh.write('{"judgment": true, "key": "ab\n')  # torn write
            fh.write(json.dumps(out_of_range) + "\n")
            fh.write(json.dumps(boolean) + "\n")  # a category is never a boolean
            fh.write("\n")  # blank lines are not an error
        backend = MockBackend()
        annotations, report = annotate(
            posts, backend, cache_path=cache, sleep=no_sleep
        )
        assert report.cache_invalid == 3
        assert len(annotations) == 10
        assert backend.calls == 0  # the original valid entries still win

    def test_last_entry_wins(self, tmp_path):
        posts = make_posts()
        cache = tmp_path / "cache.jsonl"
        annotate(posts, MockBackend(), cache_path=cache, sleep=no_sleep)
        p0_category = cache_lines(cache, "impact_category")[0]
        assert p0_category["post_id"] == "p0"
        with cache.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(p0_category, judgment=9), sort_keys=True) + "\n")
            # Another spelling of a verdict, here with an extra key, is unreadable.
            fh.write(json.dumps(dict(p0_category, judgment=10, raw="")) + "\n")
        backend = MockBackend()
        annotations, report = annotate(posts, backend, cache_path=cache, sleep=no_sleep)
        by_id = {a.post_id: a for a in annotations}
        assert by_id["p0"].category.short_name == "ASST"
        assert (report.cache_invalid, backend.calls) == (1, 0)

    def test_last_relevance_entry_wins(self, tmp_path):
        posts = make_posts()
        cache = tmp_path / "cache.jsonl"
        first, _ = annotate(posts, MockBackend(), cache_path=cache, sleep=no_sleep)
        p0_relevance = cache_lines(cache, "relevance_hurricane")[0]
        assert (p0_relevance["post_id"], p0_relevance["judgment"]) == ("p0", True)
        with cache.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(p0_relevance, judgment="maybe"), sort_keys=True) + "\n")
            fh.write(json.dumps(dict(p0_relevance, judgment=False), sort_keys=True) + "\n")
        backend = MockBackend()
        annotations, report = annotate(posts, backend, cache_path=cache, sleep=no_sleep)
        assert annotations == [Label("p0", OTHER, False), *first[1:]]
        assert (report.cache_invalid, report.cache_hits, backend.calls) == (1, 10, 0)

    def test_empty_dataset(self, tmp_path):
        posts = ()
        cache = tmp_path / "cache.jsonl"
        annotations, report = annotate(
            posts, MockBackend(), cache_path=cache, sleep=no_sleep
        )
        assert annotations == []
        assert report.backend_posts == 0
        assert not cache.exists()

    def test_all_failures_leave_no_cache(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        backend = SelectiveBackend(bad_ids={f"p{i}" for i in range(10)})
        annotations, report = annotate(
            make_posts(), backend, cache_path=cache, sleep=no_sleep
        )
        assert annotations == []
        assert len(report.errors) == 10
        assert not cache.exists()

    def test_concurrency_stays_under_the_cap(self, tmp_path):
        rows = [(f"storm surge report number {i}", True, 11) for i in range(12)]
        posts = make_posts(rows)
        backend = GaugeBackend()
        annotate(
            posts,
            backend,
            ClientPolicy(max_in_flight=2),
            cache_path=tmp_path / "c.jsonl",
            sleep=no_sleep,
        )
        assert 1 <= backend.peak <= 2

    def test_in_process_backend_runs_inline(self, tmp_path):
        backend = PooledMock()
        backend.in_process = True
        annotate(
            make_posts(),
            backend,
            ClientPolicy(max_in_flight=4),
            cache_path=tmp_path / "c.jsonl",
            sleep=no_sleep,
        )
        assert backend.threads == {threading.current_thread().name}

    def test_other_backends_run_in_a_pool(self, tmp_path):
        backend = PooledMock()
        annotate(
            make_posts(),
            backend,
            ClientPolicy(max_in_flight=4),
            cache_path=tmp_path / "c.jsonl",
            sleep=no_sleep,
        )
        assert threading.current_thread().name not in backend.threads


class TestCleanDataset:
    def test_keeps_relevant_posts_in_order(self, tmp_path):
        posts = make_posts()
        kept, report = clean(
            posts, MockBackend(), cache_path=tmp_path / "c.jsonl", sleep=no_sleep
        )
        expected = [f"p{i}" for i, (_, flag, _) in enumerate(SCRIPTED_POSTS) if flag]
        assert [p.id for p in kept] == expected
        assert report.total == 10
        assert report.kept == len(expected)

    def test_a_reopenable_source_gives_what_a_list_gives(self, tmp_path):
        posts = make_posts()
        reads = []

        class Source:
            """A fresh stream of the posts on each read, as the posts.jsonl source gives."""

            def __iter__(self):
                reads.append(len(reads))
                yield from posts

        # The posts are read once, so a one-shot generator gives the same.
        sources = {
            "list": lambda: list(posts),
            "source": Source,
            "generator": lambda: (post for post in posts),
        }
        for run, cache_hits in ((clean, 5), (annotate, 1)):
            results, caches = [], set()
            for name, source in sources.items():
                cache = tmp_path / f"{run.__name__}-{name}.jsonl"
                clean(posts[::2], MockBackend(), cache_path=cache, sleep=no_sleep)
                results.append(run(source(), MockBackend(), cache_path=cache, sleep=no_sleep))
                caches.add(cache.read_bytes())
            assert results[0] == results[1] == results[2]
            assert results[0][1].cache_hits == cache_hits
            assert len(caches) == 1
        assert reads == [0, 1]  # one read by each function

    def test_summary_line(self, tmp_path):
        posts = make_posts()
        _, report = clean(
            posts, MockBackend(), cache_path=tmp_path / "c.jsonl", sleep=no_sleep
        )
        assert report.summary() == "8/10 (80%)"

    def test_summary_uses_thousands_separators(self):
        from disimpact.annotation import CleanReport

        assert CleanReport(total=12301, kept=9666).summary() == "9,666/12,301 (79%)"
        assert CleanReport(total=0, kept=0).summary() == "0/0"

    def test_rerun_reuses_cached_judgments(self, tmp_path):
        posts = make_posts()
        cache = tmp_path / "c.jsonl"
        clean(posts, MockBackend(), cache_path=cache, sleep=no_sleep)
        backend = MockBackend()
        kept, report = clean(posts, backend, cache_path=cache, sleep=no_sleep)
        assert backend.calls == 0
        assert report.cache_hits == 10
        assert len(kept) == 8

    def test_failures_do_not_block_the_batch(self, tmp_path):
        posts = make_posts()
        backend = SelectiveBackend(bad_ids={"p0", "p5"})
        kept, report = clean(
            posts, backend, cache_path=tmp_path / "c.jsonl", sleep=no_sleep
        )
        assert {e.post_id for e in report.errors} == {"p0", "p5"}
        # p0 is relevant in the script, p5 is not; both are simply absent.
        assert len(kept) == 7

    def test_deeply_nested_reply_fails_only_its_post(self, tmp_path):
        posts = make_posts()
        backend = NestingBackend(bad_ids={"p0"})
        kept, report = clean(
            posts, backend, cache_path=tmp_path / "c.jsonl", sleep=no_sleep
        )
        assert [(e.post_id, e.stage) for e in report.errors] == [("p0", "MalformedResponse")]
        assert backend.calls == 10
        assert len(kept) == 7


def fixture_posts():
    # 200 posts; 171 are hurricane-relevant, none wildfire-relevant.
    return tuple(iter_posts(FIXTURES / "posts.jsonl", LoadReport()))


class TestCacheKeys:
    """A cached verdict is reused only for the question it answered."""

    def run_pair(self, tmp_path, first, second):
        """What `second` returns after `first` into one cache, and on a fresh one."""
        shared, fresh = tmp_path / "shared.jsonl", tmp_path / "fresh.jsonl"
        first(shared)
        return second(shared), second(fresh)

    def test_disaster(self, tmp_path):
        def clean_for(disaster):
            def run(cache):
                backend = MockBackend()
                kept = []
                clean_dataset(
                    fixture_posts(), disaster, backend, cache_path=cache, sleep=no_sleep,
                    keep=kept.append,
                )
                return [post.id for post in kept], backend.calls

            return run

        after, alone = self.run_pair(
            tmp_path, clean_for(DisasterTag.HURRICANE), clean_for(DisasterTag.WILDFIRE)
        )
        assert after == alone == ([], 200)

    def annotate(self, backend_factory):
        def run(cache):
            backend = backend_factory()
            annotations, _ = annotate(
                make_posts(), backend, cache_path=cache, sleep=no_sleep
            )
            return annotations, backend.calls

        return run

    def test_post_content(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        annotate(make_posts(), MockBackend(), cache_path=cache, sleep=no_sleep)
        changed = list(make_posts())
        changed[0] = make_post(post_id="p0", text=changed[0].text, media=("img0.jpg",))
        changed[5] = make_post(post_id="p5", text="hurricane surge in Miami")
        backend = MockBackend()
        annotations, report = annotate(
            changed, backend, cache_path=cache, sleep=no_sleep
        )
        assert (report.backend_posts, backend.calls) == (2, 4)
        assert annotations[5].relevant and annotations[5].post_id == "p5"

    def test_backend_identity(self, tmp_path):
        class OtherModel(MockBackend):
            identity = "https://models.example/v2"

        after, alone = self.run_pair(
            tmp_path, self.annotate(MockBackend), self.annotate(OtherModel)
        )
        assert after == alone
        assert alone[1] == 18  # 10 relevance and 8 category calls

    def test_backend_without_identity_reuses_nothing(self, tmp_path):
        class Anonymous:
            def __init__(self):
                self.inner, self.calls = MockBackend(), 0

            def complete(self, request):
                self.calls += 1
                return self.inner.complete(request)

        class Dismissive(Anonymous):
            def complete(self, request):
                super().complete(request)
                return '{"Judgment": false}'

        for first, second in [
            (MockBackend, Anonymous),
            (Anonymous, Anonymous),
            (Anonymous, Dismissive),
        ]:
            pair = tmp_path / f"{first.__name__}-{second.__name__}"
            pair.mkdir()
            after, alone = self.run_pair(
                pair, self.annotate(first), self.annotate(second)
            )
            assert after == alone
        assert alone[1] == 10
        assert not any(annotation.relevant for annotation in alone[0])

    @pytest.mark.parametrize("changed", sorted(PROMPT_TEMPLATE_IDS.values()))
    def test_prompt_text(self, tmp_path, monkeypatch, changed):
        shared = tmp_path / "shared.jsonl"
        self.annotate(MockBackend)(shared)
        original = disimpact.annotation.load_prompt
        monkeypatch.setattr(
            disimpact.annotation,
            "load_prompt",
            lambda template_id: original(template_id)
            + ("\nBe brief." if template_id == changed else ""),
        )
        annotations, calls = self.annotate(MockBackend)(shared)
        fresh = self.annotate(MockBackend)(tmp_path / "fresh.jsonl")
        assert annotations == fresh[0]
        # Only the verdicts asked with the changed prompt are asked again.
        expected = {"clean_hurricane": 10, "clean_wildfire": 0, "classify_impact": 8}
        assert calls == expected[changed]

    def test_old_format_lines_are_invalid_and_asked_again(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_text(
            "".join(
                json.dumps(
                    {"post_id": f"p{i}", "relevant": False, "category_code": None, "raw": ""}
                )
                + "\n"
                for i in range(10)
            ),
            encoding="utf-8",
        )
        backend = MockBackend()
        kept, report = clean(
            make_posts(), backend, cache_path=cache, sleep=no_sleep
        )
        assert report.cache_invalid == 10
        assert report.cache_hits == 0
        assert backend.calls == 10
        assert len(kept) == 8

    def test_non_utf8_line_is_invalid_and_asked_again(self, tmp_path):
        posts = make_posts()
        cache = tmp_path / "cache.jsonl"
        clean(posts, MockBackend(), cache_path=cache, sleep=no_sleep)
        lines = cache.read_bytes().splitlines(keepends=True)
        lines[3] = b"\xff" + lines[3]
        cache.write_bytes(b"".join(lines))
        backend = MockBackend()
        kept, report = clean(posts, backend, cache_path=cache, sleep=no_sleep)
        assert report.cache_invalid == 1
        assert report.cache_hits == 9
        assert report.backend_posts == 1
        assert backend.calls == 1
        assert len(kept) == 8


    def test_non_hex_key_is_invalid_and_asked_again(self, tmp_path):
        posts = make_posts()
        cache = tmp_path / "cache.jsonl"
        clean(posts, MockBackend(), cache_path=cache, sleep=no_sleep)
        lines = cache.read_bytes().splitlines(keepends=True)
        record = json.loads(lines[3])
        record["key"] = "zz" + record["key"][2:]
        lines[3] = json.dumps(record, sort_keys=True).encode("utf-8") + b"\n"
        cache.write_bytes(b"".join(lines))
        backend = MockBackend()
        kept, report = clean(posts, backend, cache_path=cache, sleep=no_sleep)
        assert report.cache_invalid == 1
        assert (report.cache_hits, report.backend_posts, backend.calls) == (9, 1, 1)
        assert len(kept) == 8

    def test_a_line_of_another_task_than_its_key(self, tmp_path):
        posts = make_posts()
        cache = tmp_path / "cache.jsonl"
        first, _ = annotate(posts, MockBackend(), cache_path=cache, sleep=no_sleep)
        # p0's relevance key gets a category verdict, and its category
        # key a relevance verdict.
        relevance, category = cache_lines(cache)[:2]
        assert (relevance["post_id"], category["post_id"]) == ("p0", "p0")
        forged = [
            dict(relevance, task="impact_category", judgment=9),
            dict(category, task="relevance_hurricane", judgment=True),
        ]
        rest = cache.read_bytes().splitlines(keepends=True)[2:]
        cache.write_bytes(
            b"".join(json.dumps(line, sort_keys=True).encode() + b"\n" for line in forged)
            + b"".join(rest)
        )
        backend = MockBackend()
        labels, report = annotate(posts, backend, cache_path=cache, sleep=no_sleep)
        # The first counts as relevant; the second is no category, so
        # p0's category is asked again.
        assert labels == first
        assert (report.cache_invalid, report.backend_posts, backend.calls) == (0, 1, 1)
        kept, report = clean(posts, MockBackend(), cache_path=cache, sleep=no_sleep)
        assert kept[0] == posts[0] and report.backend_posts == 0
        # Without p0's relevance line, its relevance is asked, and a
        # relevance verdict under its category key is still no category.
        for judgment in (True, False):
            forged = dict(category, task="relevance_hurricane", judgment=judgment)
            cache.write_bytes(json.dumps(forged, sort_keys=True).encode() + b"\n" + b"".join(rest))
            backend = MockBackend()
            labels, report = annotate(posts, backend, cache_path=cache, sleep=no_sleep)
            assert labels == first
            assert (report.cache_invalid, report.backend_posts, backend.calls) == (0, 1, 2)

    def test_key_of_the_wrong_length_is_invalid_and_asked_again(self, tmp_path):
        posts = make_posts()
        cache = tmp_path / "cache.jsonl"
        clean(posts, MockBackend(), cache_path=cache, sleep=no_sleep)
        lines = cache.read_bytes().splitlines(keepends=True)
        record = json.loads(lines[3])
        record["key"] = "abcd"  # hex, but no key is 2 bytes long: it could never match
        lines[3] = json.dumps(record, sort_keys=True).encode("utf-8") + b"\n"
        cache.write_bytes(b"".join(lines))
        backend = MockBackend()
        kept, report = clean(posts, backend, cache_path=cache, sleep=no_sleep)
        assert report.cache_invalid == 1
        assert (report.cache_hits, report.backend_posts, backend.calls) == (9, 1, 1)
        assert len(kept) == 8

    def test_deeply_nested_line_is_invalid_and_asked_again(self, tmp_path):
        posts = make_posts()
        cache = tmp_path / "cache.jsonl"
        clean(posts, MockBackend(), cache_path=cache, sleep=no_sleep)
        lines = cache.read_bytes().splitlines(keepends=True)
        lines[3] = b"[" * 100_000 + b"]" * 100_000 + b"\n"
        cache.write_bytes(b"".join(lines))
        backend = MockBackend()
        kept, report = clean(posts, backend, cache_path=cache, sleep=no_sleep)
        assert report.cache_invalid == 1
        assert (report.cache_hits, report.backend_posts, backend.calls) == (9, 1, 1)
        assert len(kept) == 8

    def test_lines_are_the_bytes_json_dumps_gives(self, tmp_path):
        # Ids that JSON must escape: a quote, a backslash, a control
        # character, non-ASCII text and a lone surrogate.
        ids = ['say "hi"', "back\\slash", "bell\x07", "café 漢字", "lone \ud800"]
        texts = [text for text, _, _ in SCRIPTED_POSTS[:5]] + ["Miami Hurricanes win"]
        posts = [make_post(post_id=i, text=t) for i, t in zip(ids + ["plain"], texts)]
        backend = MockBackend()
        cache = tmp_path / "cache.jsonl"
        labels, _ = annotate(posts, backend, cache_path=cache, sleep=no_sleep)
        assert [label.relevant for label in labels] == [True] * 5 + [False]
        by_id = {post.id: post for post in posts}
        expected = []
        for label in labels:
            post = by_id[label.post_id]
            verdicts = [(Task.RELEVANCE_HURRICANE, label.relevant)]
            if label.relevant:
                verdicts.append((Task.IMPACT_CATEGORY, label.category.code))
            for task, judgment in verdicts:
                line = {
                    "judgment": judgment,
                    "key": _key(_question(task, backend), _key_material(post)).hex(),
                    "post_id": post.id,
                    "task": task.value,
                }
                expected.append(json.dumps(line, sort_keys=True).encode() + b"\n")
        assert cache.read_bytes() == b"".join(expected)
        rerun = MockBackend()
        again, report = annotate(posts, rerun, cache_path=cache, sleep=no_sleep)
        assert (again, report.cache_invalid, rerun.calls) == (labels, 0, 0)


# Keys of two byte values can match at several offsets of one bucket.
KEYS = st.one_of(
    st.binary(min_size=16, max_size=16),
    st.lists(st.sampled_from(b"\x01\x02"), min_size=16, max_size=16).map(bytes),
)
STATES = st.integers(1, 13)


class TestVerdictTable:
    @settings(max_examples=300, deadline=None)
    @given(size=st.integers(0, 3 * 2048), data=st.data())
    def test_agrees_with_a_dict(self, size, data):
        # A file of at most 6 KiB makes at most four buckets, so keys share them.
        pool = data.draw(st.lists(KEYS, min_size=1, max_size=6, unique=True))
        writes = data.draw(st.lists(st.tuples(st.sampled_from(pool), STATES), max_size=40))
        absent = data.draw(st.lists(KEYS.filter(lambda key: key not in pool), max_size=5))
        table, oracle = _Verdicts(size), {}
        for key, state in writes:
            table.add(key, state)
            oracle[key] = state
            assert table.get(key) == state  # the later write wins
        # Under 2 KiB, every record is in one bucket, in this order: so
        # these keys each match there across two records.
        records = b"".join(key + bytes([state]) for key, state in writes)
        straddling = [records[at:at + 16] for at in range(len(records) - 15) if at % 17]
        for key in pool + absent + straddling:
            assert table.get(key) == oracle.get(key, 0)

    @settings(max_examples=300, deadline=None)
    @given(
        task=st.sampled_from([*(task.value for task in Task), "bogus"]),
        judgment=st.one_of(
            st.booleans(), st.integers(-1, 13), st.sampled_from(["true", "3", 1.0, None])
        ),
        key=st.one_of(
            st.binary(min_size=16, max_size=16).map(bytes.hex),
            st.sampled_from(["AB" * 16, "ab" * 15, "ab" * 17, "zz" * 16]),
        ),
        post_id=st.one_of(
            st.text(max_size=8),
            # Quotes, backslashes, control characters, non-ASCII, a
            # character outside the BMP and a lone surrogate.
            st.text('"\\/\x00\x07\n\x1f\x7f aé漢\U0001f300\ud800', max_size=8),
        ),
    )
    def test_a_line_reads_as_json_loads_reads_it(
        self, tmp_path_factory, task, judgment, key, post_id
    ):
        def oracle(line):
            """The state the line's verdict gives a post, or None if it is unreadable."""
            record = json.loads(line)
            key, judgment = record["key"], record["judgment"]
            if not re.fullmatch(r"[0-9a-f]{32}", key):
                return None
            if record["task"] in (relevance.value for relevance in RELEVANCE_TASKS):
                return 1 + judgment if isinstance(judgment, bool) else None
            if record["task"] == Task.IMPACT_CATEGORY.value:
                valid = type(judgment) is int and 1 <= judgment <= OTHER.code
                return 2 + judgment if valid else None
            return None

        record = {"judgment": judgment, "key": key, "post_id": post_id, "task": task}
        line = json.dumps(record, sort_keys=True)
        path = tmp_path_factory.mktemp("cache") / "cache.jsonl"

        def read(text):
            path.write_text(text + "\n", encoding="ascii")
            return _read_cache(path)

        state = oracle(line)
        table, invalid = read(line)
        assert invalid == (state is None)
        if state is not None:
            assert table.get(bytes.fromhex(key)) == state
        # Every other spelling of the same JSON is unreadable.
        respellings = [
            line + " ",
            json.dumps(record, sort_keys=True, separators=(",", ":")),
            json.dumps(dict(reversed(record.items()))),
        ]
        for text in respellings:
            assert json.loads(text) == json.loads(line)
            assert read(text)[1] == 1

    def test_an_unterminated_long_post_id_is_invalid_in_linear_time(self, tmp_path):
        # A torn line whose id, of escapes and plain characters, never closes.
        post_id = ('a\\"b\\\\c\\u00e9d' * 8_000)[:100_000]
        line = '{"judgment": true, "key": "%s", "post_id": "%s\n' % ("ab" * 16, post_id)
        cache = tmp_path / "cache.jsonl"
        cache.write_text(line, encoding="ascii")
        started = time.perf_counter()
        _, invalid = _read_cache(cache)
        assert invalid == 1
        assert time.perf_counter() - started < 0.5

    def test_a_verdict_costs_under_40_bytes(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        tasks = ("relevance_hurricane", "impact_category")
        with cache.open("w", encoding="utf-8") as fh:
            for i in range(20_000):
                key = hashlib.blake2b(b"%d" % i, digest_size=16).hexdigest()
                judgment = "true" if i % 2 == 0 else i % 11 + 1
                fh.write(
                    '{"judgment": %s, "key": "%s", "post_id": "b%07d", "task": "%s"}\n'
                    % (judgment, key, i // 2, tasks[i % 2])
                )
        tracemalloc.start()
        try:
            table, invalid = _read_cache(cache)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held / 20_000 <= 40
        assert invalid == 0
        assert table.get(hashlib.blake2b(b"19999", digest_size=16).digest()) == 2 + 19999 % 11 + 1


class TestInterruptAndResume:
    @pytest.mark.parametrize("in_flight", [1, 3])
    def test_interrupt_keeps_finished_verdicts(self, tmp_path, in_flight):
        posts = fixture_posts()
        fresh = tmp_path / "fresh.jsonl"
        expected, _ = annotate(posts, MockBackend(), cache_path=fresh)
        assert len(fresh.read_text().splitlines()) == 371

        cache = tmp_path / "cache.jsonl"
        interrupting = InterruptingBackend(interrupt_at=300)
        backend = interrupting if in_flight == 1 else PooledMock(interrupting)
        with pytest.raises(KeyboardInterrupt):
            annotate(
                posts, backend, ClientPolicy(max_in_flight=in_flight), cache_path=cache
            )
        kept = len(cache.read_text().splitlines())
        if in_flight == 1:
            assert kept == 299  # every verdict finished before the interrupt
        else:
            # Pool threads may finish a few calls around the interrupt out of order.
            assert abs(kept - 299) <= in_flight

        rerun = MockBackend()
        annotations, report = annotate(posts, rerun, cache_path=cache)
        assert rerun.calls == 371 - kept
        assert report.errors == []
        assert annotations == expected
        assert cache.read_bytes() == fresh.read_bytes()


    def test_a_failed_stream_writes_every_verdict_the_pool_got(self, tmp_path):
        posts = fixture_posts()
        fresh = tmp_path / "fresh.jsonl"
        annotate(posts, MockBackend(), cache_path=fresh)
        # Both pool threads are held mid-request on these posts when the
        # stream fails; the last post's request is still queued.
        held = {posts[-3].id, posts[-2].id}
        started, release = threading.Semaphore(0), threading.Event()
        asked = []

        class Holding(MockBackend):
            def complete(self, request):
                asked.append(request.post.id)
                if request.post.id in held and request.task is not Task.IMPACT_CATEGORY:
                    started.release()
                    release.wait(5)
                return super().complete(request)

        def posts_then_fail():
            yield from posts
            for _ in held:
                assert started.acquire(timeout=5)
            threading.Timer(0.2, release.set).start()
            raise disimpact.InputChanged("posts.jsonl changed while it was read")

        cache = tmp_path / "cache.jsonl"
        backend = PooledMock(Holding())
        with pytest.raises(disimpact.InputChanged):
            annotate(posts_then_fail(), backend, ClientPolicy(max_in_flight=2), cache_path=cache)
        # Each request sent has its verdict on disk; the queued one was never sent.
        assert cache.read_bytes().count(b"\n") == backend.inner.calls == len(asked)
        assert held <= set(asked) and posts[-1].id not in asked
        rerun = MockBackend()
        annotate(posts, rerun, cache_path=cache)
        assert cache.read_bytes() == fresh.read_bytes()

    def test_pool_keeps_the_relevance_verdict_of_a_cut_short_post(self, tmp_path):
        posts = fixture_posts()
        fresh = tmp_path / "fresh.jsonl"
        annotate(posts, MockBackend(), cache_path=fresh)
        lines = fresh.read_bytes().splitlines(keepends=True)
        relevant = {line["post_id"] for line in cache_lines(fresh, Task.IMPACT_CATEGORY.value)}
        cut = [post.id for post in posts if post.id in relevant][40]

        class CategoryInterrupt(MockBackend):
            def complete(self, request):
                if request.post.id == cut and request.task is Task.IMPACT_CATEGORY:
                    raise KeyboardInterrupt
                return super().complete(request)

        cache = tmp_path / "cache.jsonl"
        backend = PooledMock(CategoryInterrupt())
        with pytest.raises(KeyboardInterrupt):
            annotate(posts, backend, ClientPolicy(max_in_flight=3), cache_path=cache)
        # Every line up to and including the cut post's relevance verdict.
        (end,) = [
            n for n, line in enumerate(cache_lines(fresh))
            if (line["post_id"], line["task"]) == (cut, Task.RELEVANCE_HURRICANE.value)
        ]
        assert cache.read_bytes() == b"".join(lines[: end + 1])

    @pytest.mark.parametrize("in_flight", [1, 4])
    def test_ctrl_c_on_the_pool_path_keeps_every_sent_verdict(self, tmp_path, in_flight):
        posts = fixture_posts()
        fresh = tmp_path / "fresh.jsonl"
        clean(posts, MockBackend(), cache_path=fresh)

        class Slow(PooledMock):
            def complete(self, request):
                time.sleep(0.005)
                return super().complete(request)

        kept = []

        def keep(post):
            # Ctrl-C lands in the main thread, here while pool threads are busy.
            kept.append(post)
            if len(kept) == 10:
                raise KeyboardInterrupt

        cache = tmp_path / "cache.jsonl"
        backend = Slow()
        with pytest.raises(KeyboardInterrupt):
            clean_dataset(
                posts,
                DisasterTag.HURRICANE,
                backend,
                ClientPolicy(max_in_flight=in_flight),
                cache_path=cache,
                keep=keep,
            )
        written = cache.read_bytes().count(b"\n")
        assert written == backend.inner.calls
        rerun = MockBackend()
        clean(posts, rerun, cache_path=cache)
        assert rerun.calls == len(posts) - written
        assert cache.read_bytes() == fresh.read_bytes()

    def test_each_verdict_is_on_disk_before_the_next_call(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        on_disk = []

        class Probe(MockBackend):
            def complete(self, request):
                on_disk.append(cache.read_bytes().count(b"\n") if cache.exists() else 0)
                return super().complete(request)

        annotate(fixture_posts(), Probe(), cache_path=cache)
        assert on_disk == list(range(371))

    def test_torn_last_line_keeps_the_next_verdict(self, tmp_path):
        posts = make_posts()
        cache = tmp_path / "cache.jsonl"
        clean(posts, MockBackend(), cache_path=cache, sleep=no_sleep)
        lines = cache.read_bytes().splitlines(keepends=True)
        cache.write_bytes(b"".join(lines[:-1]) + lines[-1][:20])  # killed mid-write
        backend = MockBackend()
        clean(posts, backend, cache_path=cache, sleep=no_sleep)
        assert backend.calls == 1
        backend = MockBackend()
        _, report = clean(posts, backend, cache_path=cache, sleep=no_sleep)
        assert (backend.calls, report.cache_invalid) == (0, 1)


class TestPool:
    def test_many_threads_write_what_one_writes(self, tmp_path):
        posts = fixture_posts()
        inline = tmp_path / "inline.jsonl"
        expected, _ = annotate(posts, MockBackend(), cache_path=inline)
        backend = PooledMock()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            annotations, report = annotate(
                posts,
                backend,
                ClientPolicy(max_in_flight=8),
                cache_path=tmp_path / "pool.jsonl",
            )
        finally:
            sys.setswitchinterval(interval)
        assert len(backend.threads) > 1
        assert backend.inner.calls == report.backend_posts + 171 == 371
        assert annotations == expected
        assert (tmp_path / "pool.jsonl").read_bytes() == inline.read_bytes()

    def test_many_threads_take_each_cached_category_once(self, tmp_path):
        posts = fixture_posts()
        inline = tmp_path / "inline.jsonl"
        expected, _ = annotate(posts, MockBackend(), cache_path=inline)
        # Categories only: each worker asks relevance, then takes the
        # category out of the shared cache.
        cache = tmp_path / "categories.jsonl"
        cache.write_bytes(b"".join(
            line for line in inline.read_bytes().splitlines(keepends=True)
            if b'"impact_category"' in line
        ))
        backend = PooledMock()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            annotations, report = annotate(
                posts, backend, ClientPolicy(max_in_flight=8), cache_path=cache
            )
        finally:
            sys.setswitchinterval(interval)
        assert len(backend.threads) > 1
        assert backend.inner.calls == report.backend_posts == 200
        assert annotations == expected
        assert sorted(cache.read_bytes().splitlines()) == sorted(inline.read_bytes().splitlines())

    def test_at_most_twice_max_in_flight_requests_are_submitted(self, tmp_path, monkeypatch):
        from concurrent.futures import ThreadPoolExecutor

        cache = tmp_path / "cache.jsonl"
        outstanding = []  # at each submit: posts submitted whose verdicts are not yet written
        submit = ThreadPoolExecutor.submit

        def spy(pool, fn, *args):
            # A post's lines are written together, between two submits.
            written = {line["post_id"] for line in cache_lines(cache)} if cache.exists() else ()
            outstanding.append(len(outstanding) + 1 - len(written))
            return submit(pool, fn, *args)

        class Slow(PooledMock):
            def complete(self, request):
                time.sleep(0.001)
                return super().complete(request)

        monkeypatch.setattr(ThreadPoolExecutor, "submit", spy)
        backend = Slow()
        policy = ClientPolicy(max_in_flight=3)
        labels, _ = annotate(fixture_posts(), backend, policy, cache_path=cache)
        # Each post's relevance and category are asked in one task.
        assert (len(outstanding), backend.inner.calls) == (200, 371)
        assert max(outstanding) == 6
        assert labels == annotate(fixture_posts(), MockBackend(), cache_path=tmp_path / "c")[0]

    def test_cache_write_failure_cancels_queued_requests(self, tmp_path):
        class Slow(PooledMock):
            def complete(self, request):
                time.sleep(0.02)
                return super().complete(request)

        backend = Slow()
        with pytest.raises(FileNotFoundError):
            clean(
                fixture_posts(),
                backend,
                ClientPolicy(max_in_flight=3),
                cache_path=tmp_path / "missing" / "cache.jsonl",
            )
        # Only the requests already running when the write failed are sent.
        assert backend.inner.calls < 20


class TestPayloadPrivacy:
    def test_request_rejects_unscrubbed_text(self):
        with pytest.raises(ValueError):
            ClassifierRequest(
                post=make_post(text="ask @storm_chaser99 about the flood"),
                task=Task.RELEVANCE_HURRICANE,
            )

    def test_no_handles_reach_the_backend(self, tmp_path):
        texts = [
            scrub_handles("@storm_chaser99 hurricane flooding on main street"),
            scrub_handles("reach me at help3@coastline.org after the storm surge"),
            scrub_handles("@maria.r and @WXAlertsNC storm surge photos"),
        ]
        rows = [(t, True, 11) for t in texts]
        backend = RecordingMock()
        annotate(
            make_posts(rows), backend, cache_path=tmp_path / "c.jsonl", sleep=no_sleep
        )
        assert backend.request_log
        for payload in backend.request_log:
            tokens = set(re.findall(r"@[A-Za-z0-9_.]+", payload))
            assert tokens <= {"@user"}

    def test_payload_excludes_location_metadata(self):
        request = ClassifierRequest(
            post=make_post(text="storm surge", metadata="Tampa, FL"),
            task=Task.RELEVANCE_HURRICANE,
        )
        payload = json.loads(request.payload())
        assert set(payload) == {"template_id", "post"}
        assert set(payload["post"]) == {"id", "text", "media_refs"}
