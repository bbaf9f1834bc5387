"""State-level geolocation and monthly impact aggregation.

Location inference is deliberately transparent: a bundled gazetteer of
state names, postal abbreviations, and large unambiguous cities, matched
longest-first with earliest-position tie-break. Metadata is consulted
before text, and a post whose metadata resolves never falls through to
text matching. Words are runs of ASCII letters, so digits, "_" and
punctuation separate words ("Texas2024" matches Texas); spaces and
punctuation inside a name must appear as written. Two-letter codes that
collide with everyday words ("IN", "OR", "HI", ...) only count when
uppercase and preceded by a capitalized word plus comma or whitespace,
the "Springfield, OR" shape, where a capitalized word is a letter run
holding any uppercase ASCII letter ("iPhone, OR" counts). City names
that are ordinary nouns in lowercase ("mesa", "buffalo") only count as
written. Names in a --gazetteer override that are not ASCII or that
begin or end with punctuation ("Cañon City") match by the same rules.
The bundled city list is curated for precision: names shared by
multiple sizable places, famous non-U.S. namesakes, and phrase-like
names are left out, since a missed city degrades to the state name
while a false hit silently corrupts the map.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

from .core import AnnotatedPost, Domain, IndexConfig, Post
from .errors import MalformedCsv
from .impact import compute_impact_series
from .ingestion import csv_rows
from .windowing import build_count_series

# Codes that read as ordinary words or titles when uppercased; these
# need the capitalized-token context rule to count as a state.
AMBIGUOUS_ABBREVS = frozenset(
    {
        "AL", "CO", "DE", "HI", "ID", "IN", "LA", "MA", "MD", "ME",
        "MO", "MS", "MT", "NE", "OH", "OK", "OR", "PA",
    }
)

# City names that are ordinary nouns in lowercase; these match only as
# written (capitalized), unlike other place names.
WORD_COLLISION_CITIES = frozenset(
    {
        "Phoenix", "Mesa", "Garland", "Buffalo", "Billings", "Anchorage",
        "Savannah", "Boulder", "Providence", "Davenport",
    }
)

VALID_KINDS = ("state", "abbrev", "city")

STATE_CODES = frozenset(
    {
        "AL", "AK", "AZ", "AR", "CA", "CO", "CT", "DE", "FL", "GA",
        "HI", "ID", "IL", "IN", "IA", "KS", "KY", "LA", "ME", "MD",
        "MA", "MI", "MN", "MS", "MO", "MT", "NE", "NV", "NH", "NJ",
        "NM", "NY", "NC", "ND", "OH", "OK", "OR", "PA", "RI", "SC",
        "SD", "TN", "TX", "UT", "VT", "VA", "WA", "WV", "WI", "WY",
    }
)


class LocationSource(Enum):
    METADATA = "metadata"
    TEXT = "text"
    NONE = "none"


class SourceFilter(Enum):
    METADATA = "metadata"
    TEXT = "text"
    BOTH = "both"


@dataclass(frozen=True)
class GazetteerEntry:
    name: str
    state_code: str
    kind: str


# Letter runs are the words the index is keyed on; word boundaries are
# ASCII letters only, so digits and "_" separate words.
_WORDS = re.compile(r"[A-Za-z]+")
_FOLDED_WORDS = re.compile(r"[a-z]+")

# The only non-ASCII characters re.IGNORECASE equates with ASCII
# letters. After this translation lower() keeps every character's
# length and never produces an ASCII letter from a non-ASCII one.
_FOLD = str.maketrans({"\u0130": "i", "\u0131": "i", "\u017f": "s", "\u212a": "k"})

_Hits = dict[str, list[tuple[str, str]]]


def _spans(words: re.Pattern, text: str) -> list[tuple[int, int]]:
    return [m.span() for m in words.finditer(text)]


def _tokenizable(name: str) -> bool:
    return name.isascii() and name[:1].isalpha() and name[-1:].isalpha()


class Gazetteer:
    """Token-indexed place index; resolution depends only on the entry list.

    Names are keyed by the text they match: lowercased for
    case-insensitive names, as written for abbreviations and
    word-collision cities. A text is matched by looking up every run of
    1..maxtok consecutive letter runs, separators compared as written.
    Names the letter-run scan cannot bound (non-ASCII, or starting or
    ending with a non-letter) keep a per-entry regex.
    """

    def __init__(self, entries: Sequence[GazetteerEntry]):
        if not entries:
            raise MalformedCsv("gazetteer has no entries")
        self.entries = tuple(entries)
        self._folded: _Hits = {}
        self._exact: _Hits = {}
        self._ambiguous: _Hits = {}
        self._patterns: list[tuple[re.Pattern, GazetteerEntry]] = []
        self._maxtok = 1
        for entry in self.entries:
            name = entry.name
            if not _tokenizable(name):
                flags = 0 if entry.kind == "abbrev" else re.IGNORECASE
                pattern = re.compile(
                    r"(?<![A-Za-z])" + re.escape(name) + r"(?![A-Za-z])", flags
                )
                self._patterns.append((pattern, entry))
                continue
            if entry.kind == "abbrev":
                index = self._ambiguous if name in AMBIGUOUS_ABBREVS else self._exact
            elif name in WORD_COLLISION_CITIES:
                index = self._exact
            else:
                index, name = self._folded, name.lower()
            index.setdefault(name, []).append((entry.state_code, entry.kind))
            self._maxtok = max(self._maxtok, len(_WORDS.findall(name)))

    def best_match(self, text: str) -> str | None:
        """State code of the longest, earliest gazetteer hit, if any."""
        if not text:
            return None
        candidates: list[tuple[int, int, str, str]] = []
        spans = _spans(_WORDS, text)
        self._lookup(text, spans, self._exact, candidates)
        folded = text.translate(_FOLD).lower()
        # Only the _FOLD characters can add letters, and they are not ASCII.
        folded_spans = spans if text.isascii() else _spans(_FOLDED_WORDS, folded)
        self._lookup(folded, folded_spans, self._folded, candidates)
        for k, (start, end) in enumerate(spans):
            hits = self._ambiguous.get(text[start:end])
            if hits and k and self._follows_capitalized(text, start, spans[k - 1]):
                candidates.extend(
                    (start - end, start, code, kind) for code, kind in hits
                )
        for pattern, entry in self._patterns:
            match = pattern.search(text)
            if match is not None:
                candidates.append(
                    (-len(entry.name), match.start(), entry.state_code, entry.kind)
                )
        if not candidates:
            return None
        return min(candidates)[2]

    def _lookup(
        self,
        text: str,
        spans: list[tuple[int, int]],
        index: _Hits,
        candidates: list[tuple[int, int, str, str]],
    ) -> None:
        for i, (start, _) in enumerate(spans):
            for _, end in spans[i : i + self._maxtok]:
                hits = index.get(text[start:end])
                if hits:
                    candidates.extend(
                        (start - end, start, code, kind) for code, kind in hits
                    )

    @staticmethod
    def _follows_capitalized(
        text: str, start: int, previous: tuple[int, int]
    ) -> bool:
        """Whether text[:start] ends like r"[A-Z][A-Za-z]*(?:,\\s*|\\s+)"."""
        i = start
        while i and text[i - 1].isspace():
            i -= 1
        if text[i - 1] == ",":
            i -= 1
        word_start, word_end = previous
        return word_end == i and not text[word_start:word_end].islower()


def load_gazetteer(path: str | Path | None = None) -> Gazetteer:
    """Load the place index; default is the bundled data file."""
    if path is None:
        ref = resources.files("disimpact").joinpath("data/gazetteer.csv")
        with resources.as_file(ref) as concrete:
            return load_gazetteer(concrete)
    entries: list[GazetteerEntry] = []
    for lineno, (name, code, kind) in csv_rows(path, ("name", "state_code", "kind")):
        if kind not in VALID_KINDS:
            raise MalformedCsv(f"{path}:{lineno}: unknown kind {kind!r}")
        if code not in STATE_CODES:
            raise MalformedCsv(f"{path}:{lineno}: unknown state code {code!r}")
        if not name:
            raise MalformedCsv(f"{path}:{lineno}: empty name")
        entries.append(GazetteerEntry(name=name, state_code=code, kind=kind))
    return Gazetteer(entries)


def resolve_location(
    post: Post, gazetteer: Gazetteer
) -> tuple[str | None, LocationSource]:
    """Metadata-first, then text; (None, NONE) when nothing matches."""
    if post.location_metadata:
        state = gazetteer.best_match(post.location_metadata)
        if state is not None:
            return state, LocationSource.METADATA
    state = gazetteer.best_match(post.text)
    if state is not None:
        return state, LocationSource.TEXT
    return None, LocationSource.NONE


@dataclass(frozen=True)
class LocatedPost:
    annotated: AnnotatedPost
    state: str | None
    source: LocationSource

    def __post_init__(self) -> None:
        if (self.state is None) != (self.source is LocationSource.NONE):
            raise ValueError("state and source must be absent together")


def locate_posts(
    annotated: Iterable[AnnotatedPost], gazetteer: Gazetteer
) -> list[LocatedPost]:
    out = []
    for item in annotated:
        state, source = resolve_location(item.post, gazetteer)
        out.append(LocatedPost(annotated=item, state=state, source=source))
    return out


@dataclass(frozen=True)
class StateMonthIndex:
    state: str
    month: date
    physical: float
    social: float
    post_count: int

    def __post_init__(self) -> None:
        if self.month.day != 1:
            raise ValueError("month must be a first-of-month date")
        if self.post_count < 1:
            raise ValueError("emitted cells need at least one post")
        if self.physical < 0 or self.social < 0:
            raise ValueError("composites must be nonnegative")


@dataclass
class SpatialReport:
    unlocated: int = 0
    filtered_out: int = 0
    irrelevant_skipped: int = 0
    suppressed_cells: list[tuple[str, date, int]] = field(default_factory=list)


def aggregate_state_month(
    located: Sequence[LocatedPost],
    config: IndexConfig,
    source_filter: SourceFilter = SourceFilter.BOTH,
    min_posts: int = 1,
) -> tuple[list[StateMonthIndex], SpatialReport]:
    """Monthly mean weekly domain composites per state.

    Each state group runs the full weekly index pipeline under config
    over its own post range; a month's value is the mean of the weekly
    composites (combined by config.composite_operator) of the windows
    whose start date falls inside it, and its post count is the number
    of that state's posts landing in those windows. Cells under
    min_posts are suppressed into the report.
    """
    report = SpatialReport()
    groups: dict[str, list[AnnotatedPost]] = {}
    for item in located:
        if item.source is LocationSource.NONE:
            report.unlocated += 1
            continue
        if source_filter is not SourceFilter.BOTH and item.source.value != source_filter.value:
            report.filtered_out += 1
            continue
        if not item.annotated.relevant:
            report.irrelevant_skipped += 1
            continue
        groups.setdefault(item.state, []).append(item.annotated)  # type: ignore[arg-type]
    rows: list[StateMonthIndex] = []
    for state in sorted(groups):
        members = groups[state]
        counts, _ = build_count_series(members, config)
        series = compute_impact_series(counts, config)
        monthly: dict[date, tuple[list[float], list[float], int]] = {}
        for idx, week in enumerate(series.weeks):
            month = week.replace(day=1)
            phys, soc, n_posts = monthly.setdefault(month, ([], [], 0))
            phys.append(series.domains[Domain.PHYSICAL][idx])
            soc.append(series.domains[Domain.SOCIAL][idx])
            monthly[month] = (phys, soc, n_posts + counts.windows[idx].total)
        for month in sorted(monthly):
            phys, soc, n_posts = monthly[month]
            if n_posts < max(min_posts, 1):
                report.suppressed_cells.append((state, month, n_posts))
                continue
            rows.append(
                StateMonthIndex(
                    state=state,
                    month=month,
                    physical=sum(phys) / len(phys),
                    social=sum(soc) / len(soc),
                    post_count=n_posts,
                )
            )
    return rows, report


def write_spatial_csv(
    rows: Sequence[StateMonthIndex],
    source_filter: SourceFilter,
    path: str | Path,
) -> None:
    """Write state,month,source,physical,social,post_count rows."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["state", "month", "source", "physical", "social", "post_count"])
        for row in rows:
            writer.writerow(
                [
                    row.state,
                    row.month.strftime("%Y-%m"),
                    source_filter.value,
                    "%.9f" % row.physical,
                    "%.9f" % row.social,
                    row.post_count,
                ]
            )
