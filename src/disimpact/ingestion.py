"""Input loading: JSONL posts, label CSVs, weekly ground-truth CSVs.

Every CSV format the package reads is declared here once, as a Schema
of typed columns (LABELS_CSV ... REFERENCE_CSV, after write_csv). Every
CSV input is read through csv_rows, which parses each cell by its
schema (csv_header first, where the header picks the format), and each
week-keyed one by the one weekly rule, read_weeks; every CSV output is
written by write_csv.

Loading is deterministic (input order preserved, keep-first dedupe) and
privacy-scrubbing happens here, before any other module sees the text.
posts.jsonl is read by one loop, iter_posts, which yields each valid
line as a core.Post, and written back by post_line. clean and annotate
stream it once, after the annotation cache, and hold no post past the
annotation loop's window; counts and spatial stream it once against
labels read first (load_labels, join_labels) and keep only what they
roll up.
"""

from __future__ import annotations

import csv
import hashlib
import json
import json.encoder
import json.scanner
import math
import re
from dataclasses import dataclass
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

from .core import (
    CATEGORIES,
    WEEK,
    Domain,
    ImpactCategory,
    Label,
    Platform,
    Post,
    WeeklySeries,
    category_from_code,
    category_from_short_name,
)
from .errors import (
    EmptyInput,
    InputChanged,
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


def parse_date(text: str) -> date:
    """A YYYY-MM-DD date: the one form date.fromisoformat takes on every supported Python.

    The others it takes from Python 3.11 on, such as 2024-W36-1 or
    20240902, raise ValueError.
    """
    day = date.fromisoformat(text)
    if day.isoformat() != text:
        raise ValueError(f"date {text!r} is not YYYY-MM-DD")
    return day


# The grammar Python 3.10 documents for datetime.fromisoformat, with the
# UTC offset required, so every Python keeps the same posts. Later versions
# take more, and the C parser takes undocumented forms too, such as a
# fraction after the minutes: it reads that as part of a second, and
# ISO 8601 as part of a minute.
_TIMESTAMP = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}.[0-9]{2}(?::[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{3}(?:[0-9]{3})?)?)?)?"
    r"[+-][0-9]{2}:[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{6})?)?",
    re.DOTALL,
)


def _parse_rfc3339(value: str) -> datetime:
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    if not _TIMESTAMP.fullmatch(text):
        raise ValueError(f"timestamp {value!r} is not YYYY-MM-DDTHH[:MM[:SS]] with a UTC offset")
    ts = datetime.fromisoformat(text)
    return ts if ts.tzinfo is timezone.utc else ts.astimezone(timezone.utc)


# Built once and called directly: the json module's loads wraps this same
# C scanner in Python code that costs about as much again per line.
_scan = json.scanner.make_scanner(json.JSONDecoder())


def json_value(text: str, at: int = 0) -> tuple[object, int]:
    """The JSON value that starts at text[at], and the index just past it; the rest is unread.

    No value there, or one nested past the recursion limit, raises ValueError.
    """
    try:
        return _scan(text, at)
    except StopIteration as exc:
        raise json.JSONDecodeError("Expecting value", text, exc.value) from None
    except RecursionError:
        raise ValueError("JSON value nested too deeply") from None


def json_line(text: str):
    """Decode one JSON text as the json module's loads does, or raise ValueError.

    Only JSON whitespace (space, tab, newline, carriage return) may
    surround the value.
    """
    text = text.strip(" \t\n\r")
    value, end = json_value(text)
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
    if media is None or media == []:
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


def iter_posts(
    path: str | Path, report: LoadReport, sha256: str | None = None
) -> Iterator[Post]:
    """Stream the valid posts of a posts.jsonl file, counting into report.

    Malformed lines, including lines that are not UTF-8 and lines nested
    past the recursion limit, are counted and skipped; duplicate ids
    keep the first occurrence. When the file is exhausted the stream
    raises InputChanged if sha256 is given and the bytes read have
    another digest, then MalformedInput if more than half of the
    non-blank lines were malformed, so a caller that writes only after
    the stream ends writes nothing from such a file.
    """
    path = Path(path)
    seen: set[str] = set()
    digest = hashlib.sha256() if sha256 is not None else None
    # Decoded per line, so a bad byte costs one line (UnicodeDecodeError
    # is a ValueError), not the whole load; so does a timestamp whose UTC
    # shift leaves the datetime range (OverflowError).
    with path.open("rb") as fh:
        for raw in fh:
            if digest is not None:
                digest.update(raw)
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
    if digest is not None and digest.hexdigest() != sha256:
        raise InputChanged(f"{path} changed while it was read")
    if report.lines_read and report.dropped_malformed * 2 > report.lines_read:
        raise MalformedInput(
            f"{report.dropped_malformed} of {report.lines_read} lines are "
            f"malformed in {path}"
        )


_quote = json.encoder.encode_basestring_ascii
_POST_LINE = (
    '{"created_at": %s, "id": %s, "location_metadata": %s, '
    '"media_refs": [%s], "platform": %s, "text": %s}\n'
)


def post_line(post: Post) -> str:
    """post as one posts.jsonl line, as iter_posts reads it; clean writes these.

    The line is the bytes json.dumps(record, sort_keys=True) gives,
    formatted directly; the platform is written as Platform.parse
    normalizes it.
    """
    location = post.location_metadata
    return _POST_LINE % (
        _quote(post.created_at.isoformat()),
        _quote(post.id),
        "null" if location is None else _quote(location),
        ", ".join(map(_quote, post.media_refs)),
        _quote(Platform.parse(post.platform).value),
        _quote(post.text),
    )


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


def csv_header(path: str | Path) -> tuple[str, ...]:
    """The stripped header of a CSV input, for readers that pick a format by it."""
    path = Path(path)
    for _, header in _csv_records(path):
        return tuple(header)
    raise MalformedCsv(f"{path}: empty file")


class Schema:
    """One CSV format: its header's column names in order, each with its cells' parse.

    A parse turns a stripped cell into its value, or raises ValueError
    or OutOfRange; a text column's parse is str, a real column's float.
    """

    def __init__(self, *columns: tuple[str, Callable[[str], object]]) -> None:
        self.names, self.parses = zip(*columns)


def csv_rows(path: str | Path, schema: Schema) -> Iterator[tuple[int, list]]:
    """Stream the data rows of a CSV input as (line number, parsed cells).

    This is the one reader every CSV input goes through. The file is
    UTF-8; its stripped header must equal the schema's names; blank rows
    are skipped; every other row must have as many fields as the header,
    and each stripped cell is parsed by its column's parse. A real must
    be finite. A violation, a cell its parse refuses, an undecodable
    byte or a field over the csv module's size limit raises MalformedCsv
    naming `path:line`.
    """
    path = Path(path)
    names = schema.names
    typed = [(i, parse) for i, parse in enumerate(schema.parses) if parse is not str]
    reals = [i for i, parse in typed if parse is float]
    records = _csv_records(path)
    first = next(records, None)
    if first is None or tuple(first[1]) != names:
        raise MalformedCsv(f"{path}:1: expected header {','.join(names)}")
    for lineno, fields in records:
        if not any(fields):
            continue
        if len(fields) != len(names):
            raise MalformedCsv(
                f"{path}:{lineno}: expected {len(names)} fields, got {len(fields)}"
            )
        try:
            for i, parse in typed:
                fields[i] = parse(fields[i])
        except (ValueError, OutOfRange) as exc:
            raise MalformedCsv(f"{path}:{lineno}: {exc}") from exc
        for i in reals:
            if not math.isfinite(fields[i]):
                raise MalformedCsv(f"{path}:{lineno}: {names[i]} must be finite")
        yield lineno, fields


def read_weeks(
    path: str | Path, schema: Schema, fill: bool = False
) -> dict[date, dict[object, tuple[int, list]]]:
    """The rows of a week-keyed CSV input by week, read by the one weekly rule.

    A row's week is its first cell, and its series its second when the
    schema has more than two columns. Rows may come in any order, a
    (week, series) pair appears once, every week lies on the 7-day grid
    of the earliest, no week between the first and the last is missing
    (with fill, it comes back with no rows), and every week has every
    series. A fault raises MalformedCsv at `path:line`: the repeated row,
    or the first row of the off-grid week, of the week after a gap or of
    the week that lacks a series. Each week maps its series, in order of
    first appearance, to (line number, cells); no data rows give {}.
    """
    keyed = len(schema.names) > 2
    weeks: dict[date, dict[object, tuple[int, list]]] = {}
    names: dict[object, None] = {}
    for lineno, row in csv_rows(path, schema):
        week, name = row[0], row[1] if keyed else None
        rows = weeks.setdefault(week, {})
        if name in rows:
            series = f", series {name}" if keyed else ""
            raise MalformedCsv(f"{path}:{lineno}: repeated row for week {week}{series}")
        rows[name] = lineno, row
        names.setdefault(name)
    grid = {}
    first = expected = min(weeks, default=None)
    for week, rows in sorted(weeks.items()):
        line = min(lineno for lineno, _ in rows.values())
        if (week - first) % WEEK:
            raise MalformedCsv(f"{path}:{line}: week {week} is off the 7-day grid of {first}")
        if week != expected and not fill:
            raise MalformedCsv(f"{path}:{line}: week {week} leaves a gap after {expected - WEEK}")
        for missing in range((week - expected) // WEEK):
            grid[expected + missing * WEEK] = {}
        lacking = [name for name in names if name not in rows]
        if lacking:
            raise MalformedCsv(f"{path}:{line}: week {week} has no row for series {lacking[0]}")
        grid[week] = {name: rows[name] for name in names}
        expected = week + WEEK
    return grid


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


def _count(text: str) -> int:
    """A whole number of at least 0, written in ASCII digits only.

    int() alone would also take "1_1", "+3" and non-ASCII digits ("٣");
    it runs first so that a cell holding no number keeps int()'s message.
    """
    count = int(text)
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a whole number in ASCII digits: {text!r}")
    return count


_CATEGORY_CODES = {str(c.code): c for c in CATEGORIES}


def _category_code(text: str) -> ImpactCategory:
    category = _CATEGORY_CODES.get(text)
    return category if category is not None else category_from_code(_count(text))


def _choice(noun: str, values: Mapping[str, object] | Collection[str]) -> Callable:
    """The parse of a cell that must be one of values, or a key of them, as written."""
    table = values if isinstance(values, Mapping) else dict(zip(values, values))

    def parse(text: str):
        if text not in table:
            raise ValueError(f"unknown {noun} {text!r}")
        return table[text]

    return parse


# The 50 states' postal codes.
STATE_CODES = frozenset(
    "AL AK AZ AR CA CO CT DE FL GA HI ID IL IN IA KS KY LA ME MD MA MI MN MS MO "
    "MT NE NV NH NJ NM NY NC ND OH OK OR PA RI SC SD TN TX UT VT VA WA WV WI WY".split()
)

_DATE, _CATEGORY = parse_date, category_from_short_name
LABELS_CSV = Schema(("post_id", str), ("category_code", _category_code))
COUNTS_CSV = Schema(
    ("window_start", _DATE), ("category", _CATEGORY), ("count", _count), ("total", _count)
)
INDEX_CSV = Schema(
    ("window_start", _DATE), ("category", _CATEGORY), ("n", _count), ("total", _count),
    ("p", float), ("w", float), ("index", float),
)
DOMAIN_CSV = Schema(
    ("window_start", _DATE),
    ("domain", _choice("domain", (Domain.PHYSICAL.value, Domain.SOCIAL.value))),
    ("composite", float),
)
GROUND_TRUTH_CSV = Schema(("week_start", _DATE), ("value", float))
ANNOTATIONS_CSV = Schema(
    ("post_id", str), ("annotator_id", str), ("category_code", _category_code)
)
GAZETTEER_CSV = Schema(
    ("name", str),
    ("state_code", _choice("state code", STATE_CODES)),
    ("kind", _choice("kind", ("state", "abbrev", "city"))),
)
REFERENCE_CSV = Schema(
    ("platform", _choice("platform", {p.value: p for p in Platform if p is not Platform.OTHER})),
    ("category", _CATEGORY), ("count", _count), ("published_pct", _count),
)


def load_ground_truth(path: str | Path) -> tuple[WeeklySeries[float], tuple[date, ...]]:
    """Load a groundtruth.csv (GROUND_TRUTH_CSV) by the weekly rule (read_weeks).

    A missing week is allowed: it is zero-filled and returned, with the
    other filled weeks, after the series. A negative value raises
    NegativeValue, and a file with no data rows EmptyInput.
    """
    weeks = read_weeks(path, GROUND_TRUTH_CSV, fill=True)
    if not weeks:
        raise EmptyInput(f"{path}: no data rows")
    for rows in weeks.values():
        for lineno, (_, value) in rows.values():
            if value < 0:
                raise NegativeValue(f"{path}:{lineno}: value {value} is negative")
    values = tuple(rows[None][1][1] if rows else 0.0 for rows in weeks.values())
    filled = tuple(week for week, rows in weeks.items() if not rows)
    return WeeklySeries(next(iter(weeks)), values), filled


def load_labels(path: str | Path) -> dict[str, ImpactCategory]:
    """Read a whole labels.csv (LABELS_CSV) as post id -> category.

    A repeated post id or a code outside 1..11 raises MalformedCsv.
    counts and spatial read it before they stream the posts, so its own
    faults are reported first.
    """
    labels: dict[str, ImpactCategory] = {}
    for lineno, (post_id, category) in csv_rows(path, LABELS_CSV):
        if post_id in labels:
            raise MalformedCsv(f"{path}:{lineno}: duplicate label for {post_id!r}")
        labels[post_id] = category
    return labels


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
        for lineno, (post_id, _) in csv_rows(path, LABELS_CSV):
            if post_id in labels:
                raise UnknownPostId(f"{path}:{lineno}: unknown post id {post_id!r}")
        raise UnknownPostId(f"{path}: unknown post id {next(iter(labels))!r}")


def write_labels_csv(labels: Iterable[Label], path: str | Path) -> None:
    """Write the relevant posts' labels, as load_labels reads them."""
    rows = ((label.post_id, label.category.code) for label in labels if label.relevant)
    write_csv(path, LABELS_CSV.names, rows)
