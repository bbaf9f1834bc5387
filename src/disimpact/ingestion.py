"""Input loading: JSONL posts, label CSVs, weekly ground-truth CSVs.

Every CSV input of the package is read through csv_rows (or csv_header
first, where the header picks columns); every CSV output, by write_csv.

Loading is deterministic (input order preserved, keep-first dedupe) and
privacy-scrubbing happens here, before any other module sees the text.
posts.jsonl is read by one loop, iter_posts, which yields each valid
line as a core.Post: load_posts keeps every post it yields (for clean,
which writes them back out); annotate streams it after the annotation
cache and keeps an id and two verdicts per post, holding a post only
while a verdict is missing; counts and spatial stream it against labels
read first (load_labels, join_labels) and keep only what they roll up.
"""

from __future__ import annotations

import csv
import json
import json.scanner
import re
from dataclasses import dataclass
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import (
    WEEK,
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


@dataclass
class LoadReport:
    lines_read: int = 0
    kept: int = 0
    dropped_duplicate: int = 0
    dropped_malformed: int = 0
    unlabeled: int = 0  # kept posts no label named; counted by join_labels


class LoadResult(NamedTuple):
    posts: tuple[Post, ...]
    report: LoadReport


def _parse_rfc3339(value: str) -> datetime:
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    ts = datetime.fromisoformat(text)
    if ts.tzinfo is None:
        raise ValueError(f"timestamp {value!r} has no UTC offset")
    return ts.astimezone(timezone.utc)


# Built once and called directly: the json module's loads wraps this same
# C scanner in Python code that costs about as much again per line.
_scan = json.scanner.make_scanner(json.JSONDecoder())


def json_line(text: str):
    """Decode one JSON text as the json module's loads does, or raise ValueError.

    Only JSON whitespace (space, tab, newline, carriage return) may
    surround the value. A value nested past the recursion limit also
    raises ValueError, where loads raises RecursionError.
    """
    text = text.strip(" \t\n\r")
    try:
        value, end = _scan(text, 0)
    except StopIteration as exc:
        raise json.JSONDecodeError("Expecting value", text, exc.value) from None
    except RecursionError:
        raise ValueError("JSON value nested too deeply") from None
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return value


def _parse_post_line(line: str) -> Post:
    obj = json_line(line)
    if not isinstance(obj, dict):
        raise ValueError("line is not a JSON object")
    try:
        post_id, platform, text, created_at = (
            obj["id"], obj["platform"], obj["text"], obj["created_at"]
        )
    except KeyError as exc:
        raise ValueError(f"missing required field {exc}") from None
    if not isinstance(post_id, str) or not post_id:
        raise ValueError("id must be a nonempty string")
    # An id must be writable to labels.csv as UTF-8 and read back unchanged:
    # its reader strips each cell, and its writer does not quote a CR.
    if post_id != post_id.strip() or "\r" in post_id:
        raise ValueError("id must hold no CR and no surrounding whitespace")
    post_id.encode("utf-8")  # UnicodeEncodeError, a ValueError, on a lone surrogate
    if not isinstance(text, str):
        raise ValueError("text must be a string")
    media = obj.get("media_refs")
    if media is None:
        media = ()
    elif isinstance(media, list) and all(isinstance(m, str) for m in media):
        media = tuple(media)
    else:
        raise ValueError("media_refs must be null or a list of strings")
    location = obj.get("location_metadata")
    if location is not None and not isinstance(location, str):
        raise ValueError("location_metadata must be a string or null")
    return Post(
        post_id,
        str(platform),
        scrub_handles(text),
        _parse_rfc3339(str(created_at)),
        media,
        location,
    )


def iter_posts(path: str | Path, report: LoadReport) -> Iterator[Post]:
    """Stream the valid posts of a posts.jsonl file, counting into report.

    Malformed lines, including lines that are not UTF-8 and lines nested
    past the recursion limit, are counted and skipped; duplicate ids
    keep the first occurrence. When the file is exhausted the stream
    raises MalformedInput if more than half of the non-blank lines were
    malformed, so a caller that writes only after the stream ends
    writes nothing from such a file.
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


def load_posts(path: str | Path) -> LoadResult:
    """Load a whole posts.jsonl file, by the rules of iter_posts."""
    report = LoadReport()
    return LoadResult(tuple(iter_posts(path, report)), report)


_POST_ENCODER = json.JSONEncoder(sort_keys=True)


def write_posts_jsonl(posts: Iterable[Post], path: str | Path) -> None:
    """Write posts one JSON object per line, as load_posts reads them.

    Keys are sorted; the platform is written as Platform.parse
    normalizes it.
    """
    with Path(path).open("w", encoding="utf-8") as fh:
        for post in posts:
            record = {
                "id": post.id,
                "platform": Platform.parse(post.platform).value,
                "text": post.text,
                "created_at": post.created_at.isoformat(),
                "media_refs": list(post.media_refs),
                "location_metadata": post.location_metadata,
            }
            fh.write(_POST_ENCODER.encode(record) + "\n")


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


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The one CSV writer: UTF-8, "\\n" line ends, csv quoting.

    A float is written at nine decimals and None as an empty cell; any
    other value as str() gives it.
    """
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["%.9f" % v if isinstance(v, float) else v for v in row])


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


def load_labels(path: str | Path) -> dict[str, ImpactCategory]:
    """Read a whole labels.csv as post id -> category.

    counts and spatial read it before they stream the posts, so its own
    faults are reported first.
    """
    return {post_id: category for _, post_id, category in iter_labels(path)}


def join_labels(
    posts: Iterable[Post],
    labels: dict[str, ImpactCategory],
    path: str | Path,
    report: LoadReport,
) -> Iterator[tuple[Post, ImpactCategory]]:
    """Pair each post that has a label with its category, in post order.

    It consumes labels: each label is popped as its post streams by, so
    the caller's dict ends up holding only the labels whose post never
    appeared. Posts without a label are counted in report, never
    silently dropped. Once the posts run out (after their own
    end-of-stream check), the first of those labels by line raises
    UnknownPostId at labels path:line; labels.csv is read again to find
    that line, and only when a label is left over.
    """
    for post in posts:
        category = labels.pop(post.id, None)
        if category is None:
            report.unlabeled += 1
        else:
            yield post, category
    if labels:
        for lineno, post_id, _ in iter_labels(path):
            if post_id in labels:
                raise UnknownPostId(f"{path}:{lineno}: unknown post id {post_id!r}")
        raise UnknownPostId(f"{path}: unknown post id {next(iter(labels))!r}")


def write_labels_csv(labels: Iterable[Label], path: str | Path) -> None:
    """Write the relevant posts' labels, as load_labels reads them."""
    rows = ((label.post_id, label.category.code) for label in labels if label.relevant)
    write_csv(path, ("post_id", "category_code"), rows)
