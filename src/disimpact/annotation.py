"""Stage-one classification: relevance cleaning and impact labeling.

Backends implement a single text-in, raw-text-out call so the retry,
parsing, and caching logic stays uniform. The bundled mock backend is a
transparent keyword table meant for offline tests and demos; it makes
no claim of fidelity to any hosted model. The remote backend speaks a
minimal JSON-over-HTTP contract (template id plus post payload in,
judgment JSON out) and leaves vendor specifics to adapter code.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Protocol, Sequence

from .core import (
    OTHER,
    DisasterTag,
    ImpactCategory,
    Label,
    Post,
    category_from_code,
)
from .errors import EmptyInput, MalformedResponse, OutOfRange, TransportError
from .ingestion import scrub_handles


class Task(Enum):
    RELEVANCE_HURRICANE = "relevance_hurricane"
    RELEVANCE_WILDFIRE = "relevance_wildfire"
    IMPACT_CATEGORY = "impact_category"


PROMPT_TEMPLATE_IDS = {
    Task.RELEVANCE_HURRICANE: "clean_hurricane",
    Task.RELEVANCE_WILDFIRE: "clean_wildfire",
    Task.IMPACT_CATEGORY: "classify_impact",
}

RELEVANCE_TASKS = (Task.RELEVANCE_HURRICANE, Task.RELEVANCE_WILDFIRE)
_TASKS = {task.value: task for task in Task}


def load_prompt(template_id: str) -> str:
    """Read a bundled prompt template by id."""
    ref = resources.files("disimpact").joinpath(f"prompts/{template_id}.txt")
    return ref.read_text(encoding="utf-8")


@dataclass(frozen=True)
class ClassifierRequest:
    post: Post
    task: Task
    prompt_template_id: str

    def __post_init__(self) -> None:
        # No handle may leave the process; parse-time scrubbing makes
        # this a no-op for posts loaded through ingestion.
        if scrub_handles(self.post.text) != self.post.text:
            raise ValueError("request text must be scrubbed first")

    def payload(self) -> str:
        """Serialized request body, also what the privacy audit sees."""
        return json.dumps(
            {
                "template_id": self.prompt_template_id,
                "post": {
                    "id": self.post.id,
                    "text": self.post.text,
                    "media_refs": list(self.post.media_refs),
                },
            },
            sort_keys=True,
        )


@dataclass(frozen=True)
class ClientPolicy:
    max_in_flight: int = 4
    max_retries: int = 2
    backoff_base: float = 0.5

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise OutOfRange("max_in_flight must be positive")
        if self.max_retries < 0:
            raise OutOfRange("max_retries must be >= 0")
        if self.backoff_base < 0:
            raise OutOfRange("backoff_base must be >= 0")


_JSON_BLOCK = re.compile(r"\{.*\}", re.DOTALL)


def _extract_judgment(raw: str):
    block = _JSON_BLOCK.search(raw)
    if block is None:
        raise MalformedResponse(f"no judgment object in response: {raw!r}")
    text = block.group(0)
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        # The response contract spells booleans in title case.
        patched = re.sub(r"\bTrue\b", "true", re.sub(r"\bFalse\b", "false", text))
        try:
            data = json.loads(patched)
        except json.JSONDecodeError as exc:
            raise MalformedResponse(f"unparseable response: {raw!r}") from exc
    if not isinstance(data, dict) or "Judgment" not in data:
        raise MalformedResponse(f"response lacks a Judgment field: {raw!r}")
    return data["Judgment"]


def parse_judgment(raw: str, task: Task) -> bool | ImpactCategory:
    """Extract the judgment for a task; rejects, never coerces."""
    return _check_judgment(_extract_judgment(raw), task)


def _check_judgment(value, task: Task) -> bool | ImpactCategory:
    if task in RELEVANCE_TASKS:
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.strip().lower() in ("true", "false"):
            return value.strip().lower() == "true"
        raise MalformedResponse(f"relevance judgment must be boolean, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedResponse(f"impact judgment must be an integer, got {value!r}")
    try:
        return category_from_code(value)
    except OutOfRange as exc:
        raise MalformedResponse(str(exc)) from exc


class Backend(Protocol):
    """A classifier backend.

    Two optional attributes steer the annotation loop. ``identity`` is
    a string naming what answers (``"mock"``, or the remote endpoint);
    it is part of every cache key, so one backend's verdicts are never
    reused for another's. A backend without one reuses no cached
    verdict. ``in_process = True`` marks a CPU-bound backend that is
    called inline rather than from a pool of
    ``ClientPolicy.max_in_flight`` threads.
    """

    def complete(self, request: ClassifierRequest) -> str:
        """Return the raw model output for one request."""
        ...


# Scanned in category order; the first category with a hit wins, and
# posts with no hit fall through to the catch-all category.
MOCK_IMPACT_KEYWORDS: tuple[tuple[int, tuple[str, ...]], ...] = (
    (1, ("died", "dead", "killed", "injured", "missing", "casualt")),
    (2, ("evacuat", "shelter", "displaced")),
    (3, ("power", "outage", "road", "bridge", "grid", "collapsed")),
    (4, ("contaminat", "wetland", "wildlife", "erosion", "farmland")),
    (5, ("need water", "need food", "running low", "supplies")),
    (6, ("disease", "mold", "hospital", "medication", "illness")),
    (7, ("anxiety", "trauma", "grief", "nightmare", "devastated")),
    (8, ("blame", "unequal", "discriminat", "left behind", "ignored")),
    (9, ("volunteer", "donat", "rebuild", "relief", "fema")),
    (10, ("business", "job", "tourism", "rent", "economy", "closed")),
)

MOCK_RELEVANCE_RULES: dict[Task, tuple[tuple[str, ...], tuple[str, ...]]] = {
    # (counter patterns checked first, on-topic patterns)
    Task.RELEVANCE_HURRICANE: (
        ("miami hurricanes", "carolina hurricanes", "like a hurricane", "wwe"),
        ("hurricane", "helene", "milton", "storm surge", "tropical storm", "flood"),
    ),
    Task.RELEVANCE_WILDFIRE: (
        ("like wildfire",),
        ("wildfire", "brush fire", "forest fire", "palisades", "eaton fire"),
    ),
}


class MockBackend:
    """Deterministic keyword classifier.

    It runs in-process and CPU-bound, so the annotation loop calls it
    inline instead of through a thread pool.
    """

    identity = "mock"
    in_process = True

    def __init__(self) -> None:
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, request: ClassifierRequest) -> str:
        with self._lock:
            self.calls += 1
        text = request.post.text.lower()
        if request.task in RELEVANCE_TASKS:
            counters, on_topic = MOCK_RELEVANCE_RULES[request.task]
            if any(pattern in text for pattern in counters):
                return '{"Judgment": false}'
            relevant = any(pattern in text for pattern in on_topic)
            return '{"Judgment": true}' if relevant else '{"Judgment": false}'
        for code, keywords in MOCK_IMPACT_KEYWORDS:
            if any(keyword in text for keyword in keywords):
                return '{"Judgment": %d}' % code
        return '{"Judgment": %d}' % OTHER.code


class RemoteBackend:
    """JSON-over-HTTP adapter; auth via DISIMPACT_MLLM_API_KEY.

    Its cache identity is the endpoint; the key never enters the cache.
    """

    ENV_KEY = "DISIMPACT_MLLM_API_KEY"

    def __init__(
        self,
        endpoint: str,
        api_key: str | None = None,
        timeout: float = 30.0,
    ) -> None:
        if api_key is None:
            api_key = os.environ.get(self.ENV_KEY)
        if not api_key:
            raise TransportError(f"no API key: set {self.ENV_KEY} or pass api_key")
        if timeout <= 0:
            raise OutOfRange("timeout must be > 0")
        self.endpoint = self.identity = endpoint
        self._api_key = api_key
        self.timeout = timeout

    def complete(self, request: ClassifierRequest) -> str:
        # Imported here: the HTTP stack costs every other command about 3 MB of RSS.
        import urllib.error
        import urllib.request

        body = request.payload().encode("utf-8")
        http_request = urllib.request.Request(
            self.endpoint,
            data=body,
            headers={
                "Content-Type": "application/json",
                "Authorization": f"Bearer {self._api_key}",
            },
            method="POST",
        )
        try:
            with urllib.request.urlopen(http_request, timeout=self.timeout) as reply:
                return reply.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            retryable = exc.code == 429 or exc.code >= 500
            error = TransportError(f"HTTP {exc.code} from {self.endpoint}")
            error.retryable = retryable
            raise error from exc
        except (urllib.error.URLError, TimeoutError, OSError) as exc:
            error = TransportError(f"transport failure: {exc}")
            error.retryable = True
            raise error from exc


def _call_with_retries(
    backend: Backend,
    request: ClassifierRequest,
    policy: ClientPolicy,
    sleep: Callable[[float], None] = time.sleep,
) -> str:
    attempts = 1 + policy.max_retries
    for attempt in range(attempts):
        try:
            return backend.complete(request)
        except TransportError as exc:
            if not getattr(exc, "retryable", True) or attempt == attempts - 1:
                raise
            sleep(policy.backoff_base * (2**attempt))
    raise AssertionError("unreachable")


_RELEVANCE_TASK = {
    DisasterTag.HURRICANE: Task.RELEVANCE_HURRICANE,
    DisasterTag.WILDFIRE: Task.RELEVANCE_WILDFIRE,
}


def _classify(
    post: Post,
    task: Task,
    backend: Backend,
    policy: ClientPolicy,
    sleep: Callable[[float], None],
) -> bool | ImpactCategory:
    if not post.text and not post.media_refs:
        raise EmptyInput(f"post {post.id} has neither text nor media")
    request = ClassifierRequest(
        post=post, task=task, prompt_template_id=PROMPT_TEMPLATE_IDS[task]
    )
    return parse_judgment(_call_with_retries(backend, request, policy, sleep), task)


def classify_relevance(
    post: Post,
    disaster: DisasterTag,
    backend: Backend,
    policy: ClientPolicy = ClientPolicy(),
    sleep: Callable[[float], None] = time.sleep,
) -> bool:
    """Judge whether a post is on-topic for the disaster type."""
    return _classify(post, _RELEVANCE_TASK[disaster], backend, policy, sleep)


def classify_impact(
    post: Post,
    backend: Backend,
    policy: ClientPolicy = ClientPolicy(),
    sleep: Callable[[float], None] = time.sleep,
) -> ImpactCategory:
    """Assign the single dominant impact category to a relevant post."""
    return _classify(post, Task.IMPACT_CATEGORY, backend, policy, sleep)


@dataclass(frozen=True)
class AnnotationError:
    post_id: str
    stage: str
    message: str


@dataclass
class AnnotationReport:
    """Per-run counts; a cache hit is a post that needed no backend call."""

    backend_posts: int = 0
    cache_hits: int = 0
    cache_invalid: int = 0
    errors: list[AnnotationError] = field(default_factory=list)


@dataclass
class CleanReport(AnnotationReport):
    total: int = 0
    kept: int = 0

    def summary(self) -> str:
        """Human summary line, e.g. "9,666/12,301 (79%)"."""
        if self.total == 0:
            return "0/0"
        pct = int(100 * self.kept / self.total + 0.5)
        return f"{self.kept:,}/{self.total:,} ({pct}%)"


def _read_cache(path: Path) -> tuple[dict[bytes, bool | ImpactCategory], int]:
    """Judgment by key digest of every readable cache line, and the unreadable count.

    A later line for the same key wins; a key that is not hex is unreadable.
    """
    verdicts: dict[bytes, bool | ImpactCategory] = {}
    invalid = 0
    if not path.exists():
        return verdicts, invalid
    with path.open("rb") as fh:
        for line in fh:
            if not line.strip():
                continue
            try:
                data = json.loads(line.decode("utf-8"))
                task = _TASKS[data["task"]]
                verdicts[bytes.fromhex(data["key"])] = _check_judgment(data["judgment"], task)
            except (KeyError, TypeError, ValueError, MalformedResponse):
                # Torn writes, bytes that are not UTF-8, keys that are
                # not hex and lines in the old unkeyed format are
                # recoverable: skip the line and ask the backend again.
                invalid += 1
    return verdicts, invalid


def _key_material(post: Post) -> bytes:
    """The bytes of a post that every cache key of its verdicts covers.

    Length-prefixed id and scrubbed text, then the media tuple's repr:
    no two posts give the same bytes.
    """
    material = f"{len(post.id)}:{post.id}{len(post.text)}:{post.text}{post.media_refs!r}"
    return material.encode("utf-8", "surrogatepass")


def _question(task: Task, backend: Backend):
    """The hash state every cache key of a task's verdicts starts from.

    It covers the task, the prompt template id and the sha256 of its
    text, and the backend's ``identity``; ``_key`` adds the post.
    """
    template_id = PROMPT_TEMPLATE_IDS[task]
    prompt = hashlib.sha256(load_prompt(template_id).encode("utf-8")).hexdigest()
    question = [task.value, template_id, prompt, getattr(backend, "identity", None)]
    return hashlib.blake2b(json.dumps(question).encode("utf-8"), digest_size=16)


def _key(question, material: bytes) -> bytes:
    """The cache key of one post's verdict: a digest of all that decides it.

    The cache file stores it as hex.
    """
    digest = question.copy()
    digest.update(material)
    return digest.digest()


def _end_torn_line(fh) -> None:
    """End a last line torn by an interrupted write.

    It then stays one unreadable line, and the next verdict is intact.
    """
    end = fh.seek(0, os.SEEK_END)
    if end:
        fh.seek(end - 1)
        if fh.read(1) != b"\n":
            fh.write(b"\n")


class _StageLoop:
    """The one annotation loop: answers one task for a list of posts.

    Verdicts missing from the cache are asked for inline for an
    in-process backend, otherwise from a pool of ``max_in_flight``
    threads. Each new verdict is appended in post order and flushed as
    soon as it and every verdict before it are done, so an interrupted
    run keeps the work it finished.
    """

    def __init__(self, report, backend, policy, cache_path, sleep) -> None:
        self.report = report
        self.backend = backend
        self.policy = policy
        self.cache_path = Path(cache_path)
        self.sleep = sleep
        cache, report.cache_invalid = _read_cache(self.cache_path)
        # Without an identity, a cached verdict may be another backend's.
        self.cache = cache if getattr(backend, "identity", None) is not None else {}
        self.asked: set[str] = set()

    def run(self, posts: Sequence[Post], task: Task) -> list:
        """The judgment for each post, None where the post failed."""
        question = _question(task, self.backend)
        keys = [_key(question, _key_material(post)) for post in posts]
        judgments = [self.cache.get(key) for key in keys]
        pending = [i for i, judgment in enumerate(judgments) if judgment is None]
        if not pending:
            return judgments
        self.asked.update(posts[i].id for i in pending)

        def ask(i: int) -> bool | ImpactCategory | AnnotationError:
            try:
                return _classify(posts[i], task, self.backend, self.policy, self.sleep)
            except (TransportError, MalformedResponse, EmptyInput) as exc:
                return AnnotationError(
                    post_id=posts[i].id, stage=type(exc).__name__, message=str(exc)
                )

        with ExitStack() as stack:
            if getattr(self.backend, "in_process", False):
                answers = map(ask, pending)
            else:
                # Imported here: in-process backends, the common case, need no pool.
                from concurrent.futures import ThreadPoolExecutor

                pool = ThreadPoolExecutor(max_workers=self.policy.max_in_flight)
                # If writing the cache fails, send none of the queued requests.
                stack.callback(pool.shutdown, cancel_futures=True)
                answers = pool.map(ask, pending)
            fh = None
            for i, answer in zip(pending, answers):
                if isinstance(answer, AnnotationError):
                    self.report.errors.append(answer)
                    continue
                if fh is None:
                    fh = stack.enter_context(self.cache_path.open("a+b"))
                    _end_torn_line(fh)
                judgments[i] = answer
                line = {
                    "judgment": getattr(answer, "code", answer),
                    "key": keys[i].hex(),
                    "post_id": posts[i].id,
                    "task": task.value,
                }
                fh.write(json.dumps(line, sort_keys=True).encode("utf-8") + b"\n")
                fh.flush()
        return judgments

    def count(self, total: int) -> None:
        self.report.backend_posts = len(self.asked)
        self.report.cache_hits = total - len(self.asked)


def annotate_dataset(
    posts: Iterable[Post],
    disaster: DisasterTag,
    backend: Backend,
    policy: ClientPolicy = ClientPolicy(),
    cache_path: str | Path = "annotation_cache.jsonl",
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[list[Label], AnnotationReport]:
    """Annotate every post: relevance, then the category of relevant posts.

    The posts are read once, as a stream, after the cache. Of each it
    keeps the id and the two verdicts the cache holds, and the post
    itself only while a verdict is missing; the missing ones are then
    asked for, relevance first, each stage in post order. Verdicts
    already cached cost zero backend calls, so a relevance verdict
    cached by ``clean_dataset`` is not asked again. Failures are
    collected per post and the rest of the batch completes; a failed
    post is left out of the labels and its missing verdict is asked
    for on the next run. An irrelevant post is labelled OTHER.
    """
    report = AnnotationReport()
    loop = _StageLoop(report, backend, policy, cache_path, sleep)
    relevance_task = _RELEVANCE_TASK[disaster]
    relevance_question = _question(relevance_task, backend)
    category_question = _question(Task.IMPACT_CATEGORY, backend)
    ids: list[str] = []
    relevance: list[bool | None] = []
    categories: list[ImpactCategory | None] = []
    waiting: dict[int, Post] = {}  # by index, the posts missing a verdict
    for post in posts:
        material = _key_material(post)
        flag = loop.cache.get(_key(relevance_question, material))
        category = OTHER if flag is False else None
        if flag:
            category = loop.cache.get(_key(category_question, material))
        if category is None:
            waiting[len(ids)] = post
        ids.append(post.id)
        relevance.append(flag)
        categories.append(category)
    pending = [i for i in waiting if relevance[i] is None]
    for i, flag in zip(pending, loop.run([waiting[i] for i in pending], relevance_task)):
        relevance[i] = flag
        if flag is False:
            categories[i] = OTHER
    pending = [i for i in waiting if relevance[i] and categories[i] is None]
    for i, category in zip(
        pending, loop.run([waiting[i] for i in pending], Task.IMPACT_CATEGORY)
    ):
        categories[i] = category
    loop.count(len(ids))
    labels = [
        Label(post_id, category, flag)
        for post_id, flag, category in zip(ids, relevance, categories)
        if category is not None
    ]
    return labels, report


def clean_dataset(
    posts: Sequence[Post],
    disaster: DisasterTag,
    backend: Backend,
    policy: ClientPolicy = ClientPolicy(),
    cache_path: str | Path = "annotation_cache.jsonl",
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[list[Post], CleanReport]:
    """Relevance-filter posts for the disaster, caching each verdict for later stages.

    Kept posts come back in input order. Cached relevance verdicts
    (from either command) are reused without backend calls, and
    ``annotate_dataset`` reuses the ones this writes.
    """
    report = CleanReport(total=len(posts))
    loop = _StageLoop(report, backend, policy, cache_path, sleep)
    relevance = loop.run(posts, _RELEVANCE_TASK[disaster])
    kept = [post for post, flag in zip(posts, relevance) if flag]
    report.kept = len(kept)
    loop.count(report.total)
    return kept, report
