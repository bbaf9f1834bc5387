"""Shared fixtures and small builders used across the test suite."""

from __future__ import annotations

import contextlib
import http.server
import json
import threading
from collections import Counter
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import pytest

from disimpact.annotation import MockBackend
from disimpact.core import ImpactCategory, Post, category_from_code

FIXTURES = Path(__file__).resolve().parent / "fixtures"

ANCHOR = date(2024, 9, 2)  # Monday anchor used by the committed fixtures


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def make_post(
    post_id: str = "p1",
    text: str = "hello",
    day: date = ANCHOR,
    hour: int = 12,
    platform: str = "reddit",
    metadata: str | None = None,
    media: tuple[str, ...] = (),
) -> Post:
    return Post(
        id=post_id,
        platform=platform,
        text=text,
        created_at=datetime(
            day.year, day.month, day.day, hour, tzinfo=timezone.utc
        ),
        media_refs=media,
        location_metadata=metadata,
    )


def spread_posts(
    counts_by_week: dict[int, dict[int, int]]
) -> Counter[tuple[date, ImpactCategory]]:
    """The (day, category) tally of posts laid out as {week_index: {category_code: count}}.

    Each week's posts fall on its first day, counted from ANCHOR.
    """
    return Counter(
        {
            (ANCHOR + week * timedelta(days=7), category_from_code(code)): count
            for week, by_code in counts_by_week.items()
            for code, count in by_code.items()
        }
    )


def category(code: int) -> ImpactCategory:
    return category_from_code(code)


class RecordingMock(MockBackend):
    """The mock, keeping each request's payload for the privacy audits."""

    def __init__(self):
        super().__init__()
        self.request_log = []

    def complete(self, request):
        self.request_log.append(request.payload())
        return super().complete(request)


class PooledMock:
    """The mock's answers and identity, from a backend that is not in-process."""

    identity = "mock"

    def __init__(self, inner=None):
        self.inner = inner or MockBackend()
        self.threads = set()

    def complete(self, request):
        self.threads.add(threading.current_thread().name)
        return self.inner.complete(request)


@contextlib.contextmanager
def loopback_server(handler):
    """An http.server on 127.0.0.1 that serves handler from a thread until the block ends."""
    server = http.server.HTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


class ScriptedStatusHandler(http.server.BaseHTTPRequestHandler):
    """Answers each request with the next status of the server's script, then with 200.

    A 200 judges the post relevant, and of category 1. Each request's
    post text is appended to the server's asked, in the order served;
    a request carries no post id.
    """

    def do_POST(self):
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.asked.append(request["post"]["text"])
        status = self.server.script.pop(0) if self.server.script else 200
        reply = b"{}"
        if status == 200:
            impact = request["template_id"] == "classify_impact"
            reply = b'{"Judgment": 1}' if impact else b'{"Judgment": true}'
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, format, *args):
        pass


@pytest.fixture
def scripted_server(monkeypatch):
    """A loopback ScriptedStatusHandler server with an empty script; the remote API key is set.

    A test sets ``script`` to the statuses to answer before the 200s and
    reads ``asked``.
    """
    monkeypatch.setenv("DISIMPACT_MLLM_API_KEY", "k")
    with loopback_server(ScriptedStatusHandler) as server:
        server.script, server.asked = [], []
        yield server


# Location-resolution cases: (metadata, text, expected_state, expected_source).
# Covers metadata precedence, longest-then-earliest matching, ambiguous
# state-abbreviation context rules, case-sensitive collision city names,
# case-insensitive place names, and letter-boundary handling.
RESOLUTION_CASES = [
    # metadata precedence and fallback
    ("Tampa, FL", "storm update from Houston", "FL", "metadata"),
    ("Asheville, NC", "creek rising fast", "NC", "metadata"),
    ("Savannah, Georgia", "wind picking up", "GA", "metadata"),
    ("Houston TX", "bayou flooding", "TX", "metadata"),
    ("New Orleans, Louisiana", "levee holding", "LA", "metadata"),
    ("tampa, fl", "no other places", "FL", "metadata"),
    ("Miami Beach, Florida", "surge at the pier", "FL", "metadata"),
    ("somewhere coastal", "Tampa under water", "FL", "text"),
    ("somewhere coastal", "no places mentioned", None, "none"),
    # plain text resolution
    ("", "flooding in Asheville, North Carolina tonight", "NC", "text"),
    (None, "stay safe everyone", None, "none"),
    (None, "South Carolina coast braces for landfall", "SC", "text"),
    (None, "New York City came together", "NY", "text"),
    # longest match first, then earliest position
    (None, "driving from North Carolina to South Carolina", "NC", "text"),
    (None, "moved from Virginia to West Virginia", "WV", "text"),
    # ambiguous state abbreviations need a capitalized word right before
    (None, "Mobile, AL shelters open", "AL", "text"),
    (None, "the al pacino retrospective", None, "none"),
    (None, "AL is flooded", None, "none"),
    (None, "Birmingham AL homes damaged", "AL", "text"),
    (None, "Denver, CO is snowed in", "CO", "text"),
    (None, "co-op housing update", None, "none"),
    (None, "Portland, OR under the smoke plume", "OR", "text"),
    (None, "flight to LA got cancelled", None, "none"),
    (None, "Shreveport, LA evacuations underway", "LA", "text"),
    (None, "IN the storm we trust", None, "none"),
    (None, "Columbus, OH lost power", "OH", "text"),
    (None, "PA system failed at the shelter", None, "none"),
    # unambiguous abbreviations match on exact case alone
    (None, "tx rates dropped again", None, "none"),
    (None, "TX power grid strained", "TX", "text"),
    (None, "NextFL update released", None, "none"),
    (None, "FL2024 hurricane season begins", "FL", "text"),
    (None, "NC braces for landfall", "NC", "text"),
    # collision city names stay case-sensitive
    (None, "Phoenix rising from the ashes", "AZ", "text"),
    (None, "the phoenix rises again", None, "none"),
    (None, "Buffalo got three feet of snow", "NY", "text"),
    (None, "buffalo wings for the volunteers", None, "none"),
    (None, "Boulder evacuation order lifted", "CO", "text"),
    (None, "a boulder fell on the highway", None, "none"),
    (None, "Savannah historic district flooded", "GA", "text"),
    (None, "savannah grasslands documentary", None, "none"),
    (None, "Billings ranchers moved cattle", "MT", "text"),
    (None, "billings from the ER piled up", None, "none"),
    (None, "Mesa lost power overnight", "AZ", "text"),
    (None, "mesa verde trail closed", None, "none"),
    (None, "Providence declared an emergency", "RI", "text"),
    (None, "divine providence watched over us", None, "none"),
    # ordinary names ignore case but respect letter boundaries
    (None, "heading to asheville tomorrow", "NC", "text"),
    (None, "HOUSTON strong after the storm", "TX", "text"),
    (None, "pre-Tampa era photos", "FL", "text"),
    (None, "Tampax ad ran during the game", None, "none"),
]
