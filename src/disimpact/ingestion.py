"""Dataset loading: JSONL posts, label CSVs, weekly ground-truth CSVs.

Every CSV input of the package, here and in the other modules, is read
through csv_rows (or csv_header first, where the header picks columns).

Loading is deterministic (input order preserved, keep-first dedupe) and
privacy-scrubbing happens here, before any other module sees the text.
posts.jsonl is read by one loop, iter_posts: load_posts keeps every post
it yields (for clean, which writes them back out); annotate streams it
after the annotation cache and keeps an id and two verdicts per post,
holding a post only while a verdict is missing; counts and spatial
stream it against labels read first (load_labels, join_labels) and keep
only what they roll up.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import (
    WEEK,
    DisasterTag,
    ImpactCategory,
    Label,
    Platform,
    Post,
    WeeklySeries,
    category_from_code,
)
from .errors import (
    EmptyInput,
    MalformedCsv,
    MalformedInput,
    NegativeValue,
    OutOfRange,
    UnknownPostId,
)

# A handle is "@" plus a maximal run of word characters (dot included, so
# email local parts are over-scrubbed on purpose: privacy-safe direction).
HANDLE_RE = re.compile(r"@[A-Za-z0-9_.]+")

SCRUB_REPLACEMENT = "@user"


def scrub_handles(text: str) -> str:
    """Replace every @-handle token with "@user"; all other text is kept.

    Idempotent: "@user" itself matches the handle pattern and maps to
    itself.
    """
    return HANDLE_RE.sub(SCRUB_REPLACEMENT, text) if "@" in text else text


@dataclass(frozen=True)
class Dataset:
    posts: tuple[Post, ...]
    source_path: str
    disaster_tag: DisasterTag = DisasterTag.OTHER

    def __len__(self) -> int:
        return len(self.posts)


@dataclass
class LoadReport:
    lines_read: int = 0
    kept: int = 0
    dropped_duplicate: int = 0
    dropped_malformed: int = 0
    unlabeled: int = 0  # kept posts no label named; counted by join_labels


@dataclass(frozen=True)
class LoadResult:
    dataset: Dataset
    report: LoadReport


def _parse_rfc3339(value: str) -> datetime:
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    ts = datetime.fromisoformat(text)
    if ts.tzinfo is None:
        raise ValueError(f"timestamp {value!r} has no UTC offset")
    return ts.astimezone(timezone.utc)


class PostFields(NamedTuple):
    """One valid posts.jsonl line: a Post's fields, text already scrubbed.

    The platform stays as written (load_posts parses it); created_at is
    in UTC. Reads like a Post wherever only these attributes are used.
    """

    id: str
    platform: str
    text: str
    created_at: datetime
    media_refs: tuple[str, ...]
    location_metadata: str | None

    @property
    def created_date(self) -> date:
        return self.created_at.date()


def _parse_post_line(line: str) -> PostFields:
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("line is not a JSON object")
    for key in ("id", "platform", "text", "created_at"):
        if key not in obj:
            raise ValueError(f"missing required field {key!r}")
    post_id = obj["id"]
    if not isinstance(post_id, str) or not post_id:
        raise ValueError("id must be a nonempty string")
    text = obj["text"]
    if not isinstance(text, str):
        raise ValueError("text must be a string")
    media = obj.get("media_refs") or []
    if not isinstance(media, list) or any(not isinstance(m, str) for m in media):
        raise ValueError("media_refs must be a list of strings")
    location = obj.get("location_metadata")
    if location is not None and not isinstance(location, str):
        raise ValueError("location_metadata must be a string or null")
    return PostFields(
        post_id,
        str(obj["platform"]),
        scrub_handles(text),
        _parse_rfc3339(str(obj["created_at"])),
        tuple(media),
        location,
    )


def iter_posts(path: str | Path, report: LoadReport) -> Iterator[PostFields]:
    """Stream the valid posts of a posts.jsonl file, counting into report.

    Malformed lines, including lines that are not UTF-8, are counted and
    skipped; duplicate ids keep the first occurrence. When the file is
    exhausted the stream raises MalformedInput if more than half of the
    non-blank lines were malformed, so a caller that writes only after
    the stream ends writes nothing from such a file.
    """
    path = Path(path)
    seen: set[str] = set()
    # Decoded per line, so a bad byte costs one line (UnicodeDecodeError
    # is a ValueError), not the whole load; so does a timestamp whose UTC
    # shift leaves the datetime range (OverflowError).
    with path.open("rb") as fh:
        for raw in fh:
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                post = _parse_post_line(line)
            except (ValueError, OverflowError):
                report.lines_read += 1
                report.dropped_malformed += 1
                continue
            report.lines_read += 1
            if post.id in seen:
                report.dropped_duplicate += 1
                continue
            seen.add(post.id)
            report.kept += 1
            yield post
    if report.lines_read and report.dropped_malformed * 2 > report.lines_read:
        raise MalformedInput(
            f"{report.dropped_malformed} of {report.lines_read} lines are "
            f"malformed in {path}"
        )


def load_posts(
    path: str | Path,
    disaster_tag: DisasterTag = DisasterTag.OTHER,
) -> LoadResult:
    """Load a whole posts.jsonl file as Posts, by the rules of iter_posts."""
    report = LoadReport()
    posts = tuple(
        Post(post_id, Platform.parse(platform), text, created_at, media, location)
        for post_id, platform, text, created_at, media, location in iter_posts(path, report)
    )
    dataset = Dataset(posts=posts, source_path=str(path), disaster_tag=disaster_tag)
    return LoadResult(dataset=dataset, report=report)


def write_posts_jsonl(posts: Iterable[Post], path: str | Path) -> None:
    """Write posts one JSON object per line, round-trippable by load_posts."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for post in posts:
            record = {
                "id": post.id,
                "platform": post.platform.value,
                "text": post.text,
                "created_at": post.created_at.isoformat(),
                "media_refs": list(post.media_refs),
                "location_metadata": post.location_metadata,
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _undecodable_line(path: Path) -> str:
    """`lineno: reason` for the first line of a file that is not UTF-8.

    Text mode decodes a whole buffer at a time, so its error cannot say
    which line holds the bad byte; a newline byte is never part of a
    multi-byte UTF-8 sequence, so decoding line by line finds it.
    """
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return f"{lineno}: {exc}"
    return "?: not UTF-8"


def _csv_records(path: Path) -> Iterator[tuple[int, list[str]]]:
    """Every record of a CSV file as (first line number, stripped fields)."""
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        lineno = 1
        try:
            for row in reader:
                yield lineno, [cell.strip() for cell in row]
                lineno = reader.line_num + 1
        except UnicodeDecodeError as exc:
            raise MalformedCsv(f"{path}:{_undecodable_line(path)}") from exc
        except csv.Error as exc:
            raise MalformedCsv(f"{path}:{lineno}: {exc}") from exc


def csv_header(path: str | Path) -> list[str]:
    """The stripped header of a CSV input, for readers that pick columns by it."""
    path = Path(path)
    for _, header in _csv_records(path):
        return header
    raise MalformedCsv(f"{path}: empty file")


def csv_rows(
    path: str | Path, header: Sequence[str]
) -> Iterator[tuple[int, list[str]]]:
    """Stream the data rows of a CSV input as (line number, stripped fields).

    This is the one reader every CSV input goes through. The file is
    UTF-8; its stripped header must equal `header`; blank rows are
    skipped; every other row must have as many fields as the header. A
    violation, an undecodable byte or a field over the csv module's size
    limit raises MalformedCsv naming `path:line`.
    """
    path = Path(path)
    records = _csv_records(path)
    first = next(records, None)
    if first is None or first[1] != list(header):
        raise MalformedCsv(f"{path}:1: expected header {','.join(header)}")
    for lineno, fields in records:
        if not any(fields):
            continue
        if len(fields) != len(header):
            raise MalformedCsv(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(fields)}"
            )
        yield lineno, fields


@dataclass(frozen=True)
class GroundTruthReport:
    filled_weeks: tuple[date, ...]


def load_ground_truth(path: str | Path) -> tuple[WeeklySeries, GroundTruthReport]:
    """Load a groundtruth.csv (header week_start,value).

    Rows are sorted by week; interior gaps must be whole weeks and are
    zero-filled, with the filled weeks listed in the report. A file with
    no data rows raises EmptyInput.
    """
    rows: list[tuple[date, float]] = []
    for lineno, (week_text, value_text) in csv_rows(path, ("week_start", "value")):
        try:
            week = date.fromisoformat(week_text)
            value = float(value_text)
        except ValueError as exc:
            raise MalformedCsv(f"{path}:{lineno}: {exc}") from exc
        if value != value or value in (float("inf"), float("-inf")):
            raise MalformedCsv(f"{path}:{lineno}: value must be finite")
        if value < 0:
            raise NegativeValue(f"{path}:{lineno}: value {value} is negative")
        rows.append((week, value))
    if not rows:
        raise EmptyInput(f"{path}: no data rows")
    rows.sort(key=lambda r: r[0])
    first = rows[0][0]
    by_week: dict[date, float] = {}
    for week, value in rows:
        if (week - first) % WEEK:
            raise MalformedCsv(f"{path}: week {week} is off the 7-day grid of {first}")
        if week in by_week:
            raise MalformedCsv(f"{path}: duplicate week {week}")
        by_week[week] = value
    last = rows[-1][0]
    weeks: list[date] = []
    filled: list[date] = []
    week = first
    while week <= last:
        weeks.append(week)
        if week not in by_week:
            filled.append(week)
        week += WEEK
    return (
        WeeklySeries(
            weeks=tuple(weeks), values=tuple(by_week.get(w, 0.0) for w in weeks)
        ),
        GroundTruthReport(filled_weeks=tuple(filled)),
    )


def iter_labels(path: str | Path) -> Iterator[tuple[int, str, ImpactCategory]]:
    """Stream a labels.csv (header post_id,category_code) as (line, id, category).

    A repeated post id or a code outside 1..11 raises MalformedCsv.
    """
    seen: set[str] = set()
    for lineno, (post_id, code) in csv_rows(path, ("post_id", "category_code")):
        if post_id in seen:
            raise MalformedCsv(f"{path}:{lineno}: duplicate label for {post_id!r}")
        seen.add(post_id)
        try:
            category = category_from_code(int(code))
        except (ValueError, OutOfRange) as exc:
            raise MalformedCsv(f"{path}:{lineno}: {exc}") from exc
        yield lineno, post_id, category


def load_labels(path: str | Path) -> dict[str, tuple[int, ImpactCategory]]:
    """Read a whole labels.csv as post id -> (line number, category).

    counts and spatial read it before they stream the posts, so its own
    faults are reported first; the line number lets join_labels name a
    label whose post never appears.
    """
    return {post_id: (lineno, category) for lineno, post_id, category in iter_labels(path)}


def join_labels(
    posts: Iterable[PostFields | Post],
    labels: dict[str, tuple[int, ImpactCategory]],
    path: str | Path,
    report: LoadReport,
) -> Iterator[tuple[PostFields | Post, ImpactCategory]]:
    """Pair each post that has a label with its category, in post order.

    It consumes labels: each label is popped as its post streams by, so
    the caller's dict ends up holding only the labels whose post never
    appeared. Posts without a label are counted in report, never
    silently dropped. Once the posts run out (after their own
    end-of-stream check), the first of those labels by line, at labels
    path:line, raises UnknownPostId.
    """
    for post in posts:
        label = labels.pop(post.id, None)
        if label is None:
            report.unlabeled += 1
        else:
            yield post, label[1]
    if labels:
        post_id, (lineno, _) = min(labels.items(), key=lambda item: item[1][0])
        raise UnknownPostId(f"{path}:{lineno}: unknown post id {post_id!r}")


def write_labels_csv(labels: Iterable[Label], path: str | Path) -> None:
    """Write the relevant posts' labels, as load_labels reads them."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["post_id", "category_code"])
        for label in labels:
            if label.relevant:
                writer.writerow([label.post_id, label.category.code])
