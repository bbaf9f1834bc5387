"""Stage-one classification: relevance cleaning and impact labeling.

Backends implement a single text-in, raw-text-out call so the retry,
parsing, and caching logic stays uniform. The bundled mock backend is a
transparent keyword table meant for offline tests and demos; it makes
no claim of fidelity to any hosted model. The remote backend speaks a
minimal JSON-over-HTTP contract (template id plus post payload in,
judgment JSON out) and leaves vendor specifics to adapter code.

clean_dataset and annotate_dataset share one loop, _run_stages, for
every backend. It reads the posts once, as a stream: each post looks
its cached verdicts up in the cache as it arrives, and is asked for
every verdict still missing (relevance, then a relevant post's
category) in the same read. It holds no post past its window: per post
it keeps the id and one byte of state.

The cache file is read whole first, into a table of fixed-width
records, not Python objects: each verdict is its 16-byte key and the
one byte of state it gives a post, 17 bytes, or about 22 with the
table's overhead. A cache line has one spelling, the one the loop
writes, and is read by one pattern built from it; a line spelled any
other way is unreadable, and its post is asked again.
"""

from __future__ import annotations

import binascii
import hashlib
import json
import json.encoder
import os
import re
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Iterator, Protocol

from .core import (
    OTHER,
    DisasterTag,
    ImpactCategory,
    Label,
    Post,
    category_from_code,
)
from .errors import (
    EmptyInput,
    MalformedResponse,
    OutOfRange,
    TransportError,
)
from .ingestion import json_value, scrub_handles


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


def load_prompt(template_id: str) -> str:
    """Read a bundled prompt template by id."""
    ref = resources.files("disimpact").joinpath(f"prompts/{template_id}.txt")
    return ref.read_text(encoding="utf-8")


@dataclass(frozen=True)
class ClassifierRequest:
    """One question to a backend: a post, sent with its task's prompt template."""

    post: Post
    task: Task

    def __post_init__(self) -> None:
        # No handle may leave the process; parse-time scrubbing makes
        # this a no-op for posts loaded through ingestion.
        if scrub_handles(self.post.text) != self.post.text:
            raise ValueError("request text must be scrubbed first")

    def payload(self) -> str:
        """Serialized request body, also what the privacy audit sees."""
        return json.dumps(
            {
                "template_id": PROMPT_TEMPLATE_IDS[self.task],
                "post": {
                    "id": self.post.id,
                    "text": self.post.text,
                    "media_refs": list(self.post.media_refs),
                },
            },
            sort_keys=True,
        )


# A pool starts a thread for each post submitted until it is full.
MAX_IN_FLIGHT = 64
# Seconds before the first retry of a failed request; each later wait doubles.
BACKOFF_S = 0.5


@dataclass(frozen=True)
class ClientPolicy:
    max_in_flight: int = 4
    max_retries: int = 2

    def __post_init__(self) -> None:
        if not 1 <= self.max_in_flight <= MAX_IN_FLIGHT:
            raise OutOfRange(
                f"max_in_flight must be 1 to {MAX_IN_FLIGHT}, got {self.max_in_flight}"
            )
        if self.max_retries < 0:
            raise OutOfRange("max_retries must be >= 0")


def parse_judgment(raw: str, task: Task) -> bool | ImpactCategory:
    """The judgment for a task in the first {...} object of a reply; rejects, never coerces.

    What follows the object is not read. An object that does not
    decode, nested past the recursion limit included, raises
    MalformedResponse.
    """
    start = raw.find("{")
    if start < 0:
        raise MalformedResponse(f"no judgment object in response: {raw!r}")
    text = raw[start:]
    try:
        data, _ = json_value(text)
    except ValueError:
        # The response contract spells booleans in title case.
        patched = re.sub(r"\bTrue\b", "true", re.sub(r"\bFalse\b", "false", text))
        try:
            data, _ = json_value(patched)
        except ValueError as exc:
            raise MalformedResponse(f"unparseable response: {raw!r}") from exc
    if not isinstance(data, dict) or "Judgment" not in data:
        raise MalformedResponse(f"response lacks a Judgment field: {raw!r}")
    value = data["Judgment"]
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
        # Plain loops over the tables: a generator per any() call, or a
        # regex alternation per rule, costs about twice as much per call.
        if request.task in RELEVANCE_TASKS:
            counters, on_topic = MOCK_RELEVANCE_RULES[request.task]
            for pattern in counters:
                if pattern in text:
                    return '{"Judgment": false}'
            for pattern in on_topic:
                if pattern in text:
                    return '{"Judgment": true}'
            return '{"Judgment": false}'
        for code, keywords in MOCK_IMPACT_KEYWORDS:
            for keyword in keywords:
                if keyword in text:
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
        # NaN fails every comparison; inf overflows the socket's timeout.
        if not 0 < timeout < float("inf"):
            raise OutOfRange(f"timeout must be > 0 and finite, got {timeout}")
        self.endpoint = self.identity = endpoint
        self._api_key = api_key
        self.timeout = timeout

    def complete(self, request: ClassifierRequest) -> str:
        # Imported here: the HTTP stack costs every other command about 3 MB of RSS.
        import http.client
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
                raw = reply.read()
        except urllib.error.HTTPError as exc:
            retryable = exc.code == 429 or exc.code >= 500
            error = TransportError(f"HTTP {exc.code} from {self.endpoint}")
            error.retryable = retryable
            raise error from exc
        # A reply cut short raises IncompleteRead, an HTTPException but no OSError.
        except (
            urllib.error.URLError, TimeoutError, OSError, http.client.HTTPException
        ) as exc:
            error = TransportError(f"transport failure: {exc}")
            error.retryable = True
            raise error from exc
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedResponse(f"response is not UTF-8: {exc}") from exc


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
            sleep(BACKOFF_S * (2**attempt))
    raise AssertionError("unreachable")


def _classify(
    post: Post,
    task: Task,
    backend: Backend,
    policy: ClientPolicy,
    sleep: Callable[[float], None],
) -> bool | ImpactCategory:
    if not post.text and not post.media_refs:
        raise EmptyInput(f"post {post.id} has neither text nor media")
    request = ClassifierRequest(post, task)
    return parse_judgment(_call_with_retries(backend, request, policy, sleep), task)


@dataclass(frozen=True)
class AnnotationError:
    """A post's failed backend call: its error class's name, message and exit code."""

    post_id: str
    stage: str
    message: str
    exit_code: int


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


# A post's state in _run_stages, one byte each: relevance unknown,
# irrelevant, or relevant; a relevant post's category adds its code.
_UNKNOWN, _IRRELEVANT, _RELEVANT = 0, 1, 2
# The judgment a cache line spells for each state a verdict gives.
_JUDGMENTS = ("", "false", "true", *map(str, range(1, OTHER.code + 1)))
# Every cache key is a digest of this many bytes.
_KEY_BYTES = 16
_RECORD = _KEY_BYTES + 1
# Cache file bytes per bucket of _Verdicts: about 18 records of a
# typical line, short enough for rfind, long enough that bucket
# overhead stays near 5 bytes a verdict.
_BUCKET_FILE_BYTES = 2048


def _state(verdict: bool | ImpactCategory) -> int:
    """The state a verdict gives its post."""
    if isinstance(verdict, bool):
        return _RELEVANT if verdict else _IRRELEVANT
    return _RELEVANT + verdict.code


class _Verdicts:
    """Cached verdicts, each a 17-byte record: its key, then the state it gives a post.

    Records are appended, in the order they are added, to one of
    ``size // _BUCKET_FILE_BYTES + 1`` bytearrays chosen by the key's
    hash, where size is the cache file's. A lookup takes the key's last
    record, so a later line for a key wins. Nothing is added after the
    cache is read, so pool threads may look keys up at the same time.
    """

    def __init__(self, size: int) -> None:
        self._buckets = [bytearray() for _ in range(size // _BUCKET_FILE_BYTES + 1)]

    def add(self, key: bytes, state: int) -> None:
        bucket = self._buckets[hash(key) % len(self._buckets)]
        bucket += key
        bucket.append(state)

    def get(self, key: bytes) -> int:
        """The state of the key's last record, or _UNKNOWN if it has none."""
        bucket = self._buckets[hash(key) % len(self._buckets)]
        at = bucket.rfind(key)
        while at > 0 and at % _RECORD:  # a match across two records
            at = bucket.rfind(key, 0, at + _KEY_BYTES - 1)
        return bucket[at + _KEY_BYTES] if at >= 0 else _UNKNOWN


# The one spelling of a cache line: the bytes json.dumps gives it, keys
# sorted, for its judgment, its key's hex, its post id as a JSON string
# and its task.
_LINE = '{"judgment": %s, "key": "%s", "post_id": %s, "task": "%s"}\n'
# Matches every line _LINE formats, whatever the post id:
# encode_basestring_ascii writes printable ASCII other than a quote or
# a backslash as itself, and every other character as one of these
# escapes. The id is an unrolled loop, with no nested quantifier that
# backtracks, so an id with no closing quote fails in linear time. With
# the JSON decoder reading every line instead, on 2 vCPUs, the
# warm_rerun benchmark workload took about 26% longer.
_LINE_PATTERN = re.compile(
    re.escape(_LINE.encode())
    % (
        rb"([a-z0-9]+)",
        rb"([0-9a-f]{32})",
        rb'"[ !#-\[\]-~]*(?:\\(?:["\\bfnrt]|u[0-9a-f]{4})[ !#-\[\]-~]*)*"',
        rb"([a-z_]+)",
    )
)
_LINE_STATES = {
    (task.value.encode(), judgment.encode()): state
    for state, judgment in enumerate(_JUDGMENTS)
    if state != _UNKNOWN
    for task in (RELEVANCE_TASKS if state <= _RELEVANT else (Task.IMPACT_CATEGORY,))
}


def _read_cache(path: Path) -> tuple[_Verdicts, int]:
    """The table of every readable cache line's verdict, and the unreadable count.

    The table holds each verdict as its 16-byte key and the one byte of
    state it gives a post (_IRRELEVANT, _RELEVANT or _RELEVANT plus the
    category code): 17 bytes, about 22 with the buckets' overhead, for
    a typical line of about 113 bytes. A later line for the same key
    wins. A line is readable only as _LINE spells it, with a judgment
    its task allows; every other line but a blank one is unreadable:
    a torn write, bytes that are not UTF-8, a line in the old unkeyed
    format or any other spelling of the same JSON. Its post is asked
    again.
    """
    if not path.exists():
        return _Verdicts(0), 0
    invalid = 0
    with path.open("rb") as fh:
        verdicts = _Verdicts(os.fstat(fh.fileno()).st_size)
        for line in fh:
            match = _LINE_PATTERN.fullmatch(line)
            state = match and _LINE_STATES.get((match[3], match[1]))
            if state:
                verdicts.add(binascii.unhexlify(match[2]), state)
            elif line.strip():
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
    return hashlib.blake2b(json.dumps(question).encode("utf-8"), digest_size=_KEY_BYTES)


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


def _gather(verdicts: Iterator) -> list:
    """A pool task: the verdicts it got, then the exception that cut it short, if any."""
    got: list = []
    try:
        for verdict in verdicts:
            got.append(verdict)
    except BaseException as exc:
        got.append((None, None, exc))
    return got


def _run_stages(
    posts: Iterable[Post],
    disaster: DisasterTag,
    report: AnnotationReport,
    backend: Backend,
    policy: ClientPolicy,
    cache_path: str | Path,
    sleep: Callable[[float], None],
    keep: Callable[[Post], object] | None = None,
) -> tuple[list[str], bytearray]:
    """The one annotation loop: each post's id and its state.

    posts is read once, as a stream, after the cache is read into a
    _Verdicts table. Each post looks its cached verdicts up in the table
    as it arrives, and leaves its id and one byte of state. In the same
    read, a post that lacks a verdict is asked for the missing relevance
    verdict and, without keep (annotate), a relevant post's missing
    category, in that order. Such posts wait in one window, in post order: an in-process
    backend is asked inline, a window of one post; any other is asked
    in one task per post of a pool of ``max_in_flight`` threads, with at
    most twice that many posts in the window. Only those posts are
    held. With keep (clean), keep gets each relevant post, in order.

    Each new verdict is appended to the cache in post order, and flushed
    inline before the next backend call, or with a pool as soon as its
    post and every post before it are done. Every failure (the posts
    stream or a cache write failing, keep raising, Ctrl-C, a pool task
    cut short) takes one way out: no queued request is sent, what each
    sent request got is written in post order up to a post not wholly
    written, such as a cut-short one, and the exception is raised again.
    So an interrupted run keeps the work it finished, in post order.
    Nothing of the table is held after this returns. Post ids must be
    distinct, as iter_posts yields them: a repeated post would be asked
    again.
    """
    cache_path = Path(cache_path)
    cache, report.cache_invalid = _read_cache(cache_path)
    # Without an identity, a cached verdict may be another backend's.
    if getattr(backend, "identity", None) is None:
        cache = _Verdicts(0)
    # Each task's question, and its name as a cache line spells it.
    questions = {task: (_question(task, backend), task.value) for task in Task}
    relevance_task = Task(f"relevance_{disaster.value}")
    relevance_question = questions[relevance_task][0]
    category_question = questions[Task.IMPACT_CATEGORY][0]
    # The tasks a post in each state lacks, asked in turn while each
    # verdict is True; clean asks no category, but keeps each relevant post.
    category = (Task.IMPACT_CATEGORY,) if keep is None else ()
    lacking = {_UNKNOWN: (relevance_task, *category), _RELEVANT: category}
    ids: list[str] = []
    states = bytearray()
    quote = json.encoder.encode_basestring_ascii
    fh = None

    def arrive(post: Post):
        """Add the post's id and cached state; ask's verdicts for the tasks it lacks, if any."""
        material = _key_material(post)
        key = _key(relevance_question, material)
        # Only a hand-edited line gives a key another task's verdict:
        # a category verdict counts as relevant, and a relevance verdict
        # as no category.
        state = min(cache.get(key), _RELEVANT)
        if state == _RELEVANT and keep is None:
            key = _key(category_question, material)
            state = max(cache.get(key), _RELEVANT)
        ids.append(post.id)
        states.append(state)
        tasks = lacking.get(state)  # None when done, () when clean keeps it unasked
        if tasks:  # a post missing a verdict is asked at least once
            report.backend_posts += 1
            return ask(post, tasks, material, key)
        return tasks

    def ask(post: Post, tasks: tuple[Task, ...], material: bytes, missed: bytes | None):
        """Yield (task name, key, state) for each of tasks in turn, while the post is relevant.

        missed is the first task's key, which the cache lacks. A later
        task's verdict found in the cache costs no call; its key is
        None, as it needs no new line. A failed call gives an
        AnnotationError in place of the state.
        """
        for task in tasks:
            question, name = questions[task]
            key = missed or _key(question, material)
            state = _UNKNOWN if missed else cache.get(key)
            missed = None
            # A later task is the category, which only a category
            # verdict answers: a relevance verdict under its key, from a
            # hand-edited line, is no category, so it is asked again.
            if state > _RELEVANT:
                key = None
            else:
                try:
                    state = _state(_classify(post, task, backend, policy, sleep))
                except (TransportError, MalformedResponse, EmptyInput) as exc:
                    state = AnnotationError(
                        post.id, type(exc).__name__, str(exc), exc.exit_code
                    )
            yield name, key, state
            if state != _RELEVANT:
                return

    def write(i: int, post: Post, verdicts) -> BaseException | None:
        """Set post i's state from each of its verdicts, and append each new one to the cache.

        Returns the exception that cut post i's pool task short, if one did.
        """
        nonlocal fh
        for name, key, state in verdicts:
            if isinstance(state, BaseException):
                return state
            if isinstance(state, AnnotationError):
                report.errors.append(state)
                continue
            states[i] = state
            if key is None:
                continue
            if fh is None:
                fh = cache_path.open("a+b")
                _end_torn_line(fh)
            fh.write((_LINE % (_JUDGMENTS[state], key.hex(), quote(post.id), name)).encode())
            fh.flush()

    def finish() -> None:
        """Write the new verdicts of the window's first post, then hand it to keep if kept."""
        nonlocal torn
        i, post, verdicts = window[0]
        if pool is not None and verdicts:
            verdicts = verdicts.result()
        torn = True  # until every verdict the post got is written
        window.popleft()
        cut = write(i, post, verdicts)
        if cut is not None:
            raise cut
        torn = False
        if keep is not None and states[i] == _RELEVANT:
            keep(post)

    pool, depth = None, 1
    if not getattr(backend, "in_process", False):
        # Imported here: in-process backends, the common case, need no pool.
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=policy.max_in_flight)
        depth = 2 * policy.max_in_flight
    # Each post still to be written: (index, post, its verdicts, or the
    # pool task asking for them), in post order.
    window: deque = deque()
    torn = False
    try:
        for post in posts:
            verdicts = arrive(post)
            if verdicts is None:
                continue
            if pool is not None and verdicts:
                verdicts = pool.submit(_gather, verdicts)
            window.append((len(ids) - 1, post, verdicts))
            if len(window) == depth:
                finish()
        while window:
            finish()
    except BaseException:
        # Send none of the queued requests, and write what each sent one
        # got, in post order; stop at a post not wholly written.
        if pool is not None and not torn:
            pool.shutdown(cancel_futures=True)
            for i, post, task in window:
                if task and (task.cancelled() or write(i, post, task.result()) is not None):
                    break
        raise
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        if fh is not None:
            fh.close()
    report.cache_hits = len(ids) - report.backend_posts
    return ids, states


def annotate_dataset(
    posts: Iterable[Post],
    disaster: DisasterTag,
    backend: Backend,
    policy: ClientPolicy = ClientPolicy(),
    cache_path: str | Path = "annotation_cache.jsonl",
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[list[Label], AnnotationReport]:
    """Annotate every post: relevance, then the category of a relevant post.

    posts is any iterable, read once as a stream: each post is asked
    for its missing verdicts, relevance before category, as it arrives.
    No post is held past the loop's window. Verdicts already cached,
    relevance verdicts from ``clean_dataset`` included, cost zero
    backend calls. Failures are collected per post and the rest of the
    batch completes; a failed post is left out of the labels and its
    missing verdict is asked for on the next run. An irrelevant post is
    labelled OTHER.
    """
    report = AnnotationReport()
    ids, states = _run_stages(posts, disaster, report, backend, policy, cache_path, sleep)
    labels = [
        Label(post_id, OTHER, False)
        if state == _IRRELEVANT
        else Label(post_id, category_from_code(state - _RELEVANT))
        for post_id, state in zip(ids, states)
        if state != _UNKNOWN and state != _RELEVANT
    ]
    return labels, report


def clean_dataset(
    posts: Iterable[Post],
    disaster: DisasterTag,
    backend: Backend,
    policy: ClientPolicy = ClientPolicy(),
    cache_path: str | Path = "annotation_cache.jsonl",
    sleep: Callable[[float], None] = time.sleep,
    keep: Callable[[Post], object] = lambda post: None,
) -> CleanReport:
    """Relevance-filter posts for the disaster, caching each verdict for later stages.

    posts is any iterable, read once as a stream, as for
    ``annotate_dataset``. The read asks for each missing relevance
    verdict, and keep gets each relevant post, in input order, during
    it; nothing else holds a post past the loop's window. Returns the
    report, whose kept counts the posts keep got. Cached relevance
    verdicts (from either command) are reused without backend calls,
    and ``annotate_dataset`` reuses the ones this writes.
    """
    report = CleanReport()
    ids, states = _run_stages(posts, disaster, report, backend, policy, cache_path, sleep, keep)
    report.total, report.kept = len(ids), states.count(_RELEVANT)
    return report
