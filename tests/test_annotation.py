"""Tests for the two-stage classifier client and its caching layer."""

import json
import re
import sys
import threading
import time

import pytest

from conftest import FIXTURES, PooledMock, RecordingMock, make_post

from disimpact import (
    ClassifierRequest,
    ClientPolicy,
    DisasterTag,
    EmptyInput,
    MalformedResponse,
    MockBackend,
    OutOfRange,
    RemoteBackend,
    Task,
    TransportError,
    annotate_dataset,
    classify_impact,
    classify_relevance,
    clean_dataset,
    load_posts,
    load_prompt,
    parse_judgment,
    scrub_handles,
)
import disimpact.annotation
from disimpact.annotation import PROMPT_TEMPLATE_IDS


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
    """clean_dataset on hurricane posts."""
    return clean_dataset(posts, DisasterTag.HURRICANE, backend, *args, **kwargs)


class FlakyBackend:
    """Raises a scripted number of transport failures before delegating."""

    def __init__(self, failures: int, retryable: bool = True):
        self.failures = failures
        self.retryable = retryable
        self.calls = 0
        self.inner = MockBackend()

    def complete(self, request: ClassifierRequest) -> str:
        self.calls += 1
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


class GarbageBackend:
    """Returns output with no judgment object in it."""

    def __init__(self):
        self.calls = 0

    def complete(self, request: ClassifierRequest) -> str:
        self.calls += 1
        return "sorry, I cannot help with that"


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

    def test_no_json_object(self):
        with pytest.raises(MalformedResponse):
            parse_judgment("no structured output at all", Task.RELEVANCE_HURRICANE)

    def test_wrong_field_name(self):
        with pytest.raises(MalformedResponse):
            parse_judgment('{"verdict": true}', Task.RELEVANCE_HURRICANE)


class TestMockBackend:
    def request(self, text, task=Task.RELEVANCE_HURRICANE):
        return ClassifierRequest(
            post=make_post(text=text),
            task=task,
            prompt_template_id=PROMPT_TEMPLATE_IDS[task],
        )

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
    def test_retryable_failures_then_success(self):
        backend = FlakyBackend(failures=2)
        sleeps = []
        policy = ClientPolicy(max_retries=2, backoff_base=0.5)
        judgment = classify_relevance(
            make_post(text="storm surge at the pier"),
            DisasterTag.HURRICANE,
            backend,
            policy,
            sleep=sleeps.append,
        )
        assert judgment is True
        assert backend.calls == 3
        assert sleeps == [0.5, 1.0]

    def test_attempts_capped_at_one_plus_max_retries(self):
        backend = FlakyBackend(failures=99)
        policy = ClientPolicy(max_retries=2, backoff_base=0.0)
        with pytest.raises(TransportError):
            classify_relevance(
                make_post(text="storm surge"),
                DisasterTag.HURRICANE,
                backend,
                policy,
                sleep=no_sleep,
            )
        assert backend.calls == 3

    def test_non_retryable_failure_is_immediate(self):
        backend = FlakyBackend(failures=1, retryable=False)
        sleeps = []
        with pytest.raises(TransportError):
            classify_relevance(
                make_post(text="storm surge"),
                DisasterTag.HURRICANE,
                backend,
                ClientPolicy(max_retries=5),
                sleep=sleeps.append,
            )
        assert backend.calls == 1
        assert sleeps == []

    def test_zero_retries_means_single_attempt(self):
        backend = FlakyBackend(failures=1)
        with pytest.raises(TransportError):
            classify_relevance(
                make_post(text="storm surge"),
                DisasterTag.HURRICANE,
                backend,
                ClientPolicy(max_retries=0),
                sleep=no_sleep,
            )
        assert backend.calls == 1

    def test_malformed_output_is_not_retried(self):
        backend = GarbageBackend()
        with pytest.raises(MalformedResponse):
            classify_impact(
                make_post(text="storm surge"),
                backend,
                ClientPolicy(max_retries=5),
                sleep=no_sleep,
            )
        assert backend.calls == 1

    def test_empty_post_rejected_before_any_call(self):
        backend = MockBackend()
        with pytest.raises(EmptyInput):
            classify_relevance(
                make_post(text=""), DisasterTag.HURRICANE, backend, sleep=no_sleep
            )
        assert backend.calls == 0

    def test_policy_validation(self):
        with pytest.raises(OutOfRange):
            ClientPolicy(max_in_flight=0)
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

    def test_results_follow_dataset_order(self, tmp_path):
        posts = make_posts()
        annotations, _ = annotate(
            posts, MockBackend(), cache_path=tmp_path / "c.jsonl", sleep=no_sleep
        )
        assert [a.post_id for a in annotations] == [f"p{i}" for i in range(10)]

    def test_cache_appends_in_dataset_order(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        annotate(make_posts(), MockBackend(), cache_path=cache, sleep=no_sleep)
        relevant = [f"p{i}" for i, (_, flag, _) in enumerate(SCRIPTED_POSTS) if flag]
        # Each stage appends its verdicts in post order.
        assert [(line["task"], line["post_id"]) for line in cache_lines(cache)] == [
            ("relevance_hurricane", f"p{i}") for i in range(10)
        ] + [("impact_category", post_id) for post_id in relevant]

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

    def test_torn_cache_lines_are_skipped_and_counted(self, tmp_path):
        posts = make_posts()
        cache = tmp_path / "cache.jsonl"
        annotate(posts, MockBackend(), cache_path=cache, sleep=no_sleep)
        out_of_range = dict(cache_lines(cache, "impact_category")[1], judgment=99)
        with cache.open("a", encoding="utf-8") as fh:
            fh.write('{"judgment": true, "key": "ab\n')  # torn write
            fh.write(json.dumps(out_of_range) + "\n")
            fh.write("\n")  # blank lines are not an error
        backend = MockBackend()
        annotations, report = annotate(
            posts, backend, cache_path=cache, sleep=no_sleep
        )
        assert report.cache_invalid == 2
        assert len(annotations) == 10
        assert backend.calls == 0  # the original valid entries still win

    def test_last_entry_wins(self, tmp_path):
        posts = make_posts()
        cache = tmp_path / "cache.jsonl"
        annotate(posts, MockBackend(), cache_path=cache, sleep=no_sleep)
        p0_category = cache_lines(cache, "impact_category")[0]
        assert p0_category["post_id"] == "p0"
        with cache.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(p0_category, judgment=9, raw="")) + "\n")
        annotations, _ = annotate(
            posts, MockBackend(), cache_path=cache, sleep=no_sleep
        )
        by_id = {a.post_id: a for a in annotations}
        assert by_id["p0"].category.short_name == "ASST"

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


def fixture_posts():
    # 200 posts; 171 are hurricane-relevant, none wildfire-relevant.
    return load_posts(FIXTURES / "posts.jsonl").posts


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
                kept, _ = clean_dataset(
                    fixture_posts(), disaster, backend, cache_path=cache, sleep=no_sleep
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
                prompt_template_id="clean_hurricane",
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
            prompt_template_id="clean_hurricane",
        )
        payload = json.loads(request.payload())
        assert set(payload) == {"template_id", "post"}
        assert set(payload["post"]) == {"id", "text", "media_refs"}
