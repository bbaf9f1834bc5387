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

A text is split into words only when it may hold the first word of a
name: one regex search, a tree of the case-sensitive names' first
words, scans the text as written, and one set check compares the
lowercased text's words with the first words of the other names.

The roll-up streams: locate_posts resolves each labelled post as it
arrives and keeps only how many posts share each (state, day,
category, source), so its memory grows with those keys, not with the
posts. aggregate_state_month adds those counts up per state and week,
then averages by state-month.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from importlib import resources
from itertools import groupby
from os.path import commonprefix
from pathlib import Path
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

from .core import Domain, ImpactCategory, IndexConfig, Post
from .errors import MalformedCsv
from .impact import compute_impact_series
from .ingestion import GAZETTEER_CSV, csv_rows, write_csv
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
# ASCII letters only, so digits and "_" separate words. Splitting on a
# captured run gives [separator, word, separator, ..., word, separator].
_WORDS = re.compile(r"[A-Za-z]+")
_FOLDED_WORDS = re.compile(r"[a-z]+")
_SPLIT_WORDS = re.compile(r"([A-Za-z]+)")
_SPLIT_FOLDED = re.compile(r"([a-z]+)")

# The only non-ASCII characters re.IGNORECASE equates with ASCII
# letters. After this translation lower() keeps every character's
# length and never produces an ASCII letter from a non-ASCII one.
_FOLD = str.maketrans({"\u0130": "i", "\u0131": "i", "\u017f": "s", "\u212a": "k"})

# A name's key maps to the least state code of its entries: the code a
# tie between them resolves to.
_Hits = dict[str, str]
_Candidates = list[tuple[int, int, str]]


def _first_words(index: _Hits) -> dict[str, int]:
    """Each first word of the names in index: the most words a name starting with it has."""
    most: dict[str, int] = {}
    for name in index:
        words = _WORDS.findall(name)
        most[words[0]] = max(most.get(words[0], 1), len(words))
    return most


def _tokenizable(name: str) -> bool:
    return name.isascii() and name[:1].isalpha() and name[-1:].isalpha()


def _alternation(words: Collection[str], depth: int = 0) -> str:
    """A regex matching exactly `words`, non-empty and all distinct.

    It is their radix tree: the branches at each node start with
    different letters, so a search follows at most one of them, and its
    cost does not grow with the number of words. Below 64 levels the
    words are listed flat, which keeps the pattern within re's nesting
    limit.
    """
    if len(words) == 1 or depth == 64:
        return "|".join(map(re.escape, sorted(words)))
    prefix = commonprefix(list(words))
    rests = {word[len(prefix):] for word in words}
    optional = "" in rests
    rests.discard("")
    by_letter: dict[str, list[str]] = {}
    for rest in rests:
        by_letter.setdefault(rest[0], []).append(rest)
    body = "|".join(_alternation(group, depth + 1) for _, group in sorted(by_letter.items()))
    return re.escape(prefix) + f"(?:{body})" + ("?" if optional else "")


class Gazetteer:
    """Token-indexed place index; resolution depends only on the entry list.

    Names are keyed by the text they match: lowercased for
    case-insensitive names, as written for abbreviations and
    word-collision cities. A text is matched by looking up the runs of
    consecutive letter runs, separators compared as written, that start
    with the first word of some name and are no longer in words than
    the longest such name. Names the letter-run
    scan cannot bound (non-ASCII, or starting or ending with a
    non-letter) keep a per-entry regex.
    """

    def __init__(self, entries: Sequence[GazetteerEntry]):
        if not entries:
            raise MalformedCsv("gazetteer has no entries")
        self.entries = tuple(entries)
        self._folded: _Hits = {}
        self._exact: _Hits = {}
        self._patterns: list[tuple[re.Pattern, GazetteerEntry]] = []
        for entry in self.entries:
            name = entry.name
            if not _tokenizable(name):
                flags = 0 if entry.kind == "abbrev" else re.IGNORECASE
                pattern = re.compile(
                    r"(?<![A-Za-z])" + re.escape(name) + r"(?![A-Za-z])", flags
                )
                self._patterns.append((pattern, entry))
                continue
            if entry.kind == "abbrev" or name in WORD_COLLISION_CITIES:
                index = self._exact
            else:
                index, name = self._folded, name.lower()
            index[name] = min(index.get(name, entry.state_code), entry.state_code)
        self._exact_first = _first_words(self._exact)
        self._folded_first = _first_words(self._folded)
        # Also finds a first word that ends a longer run ("AL" in
        # "FINAL"), and the split then decides: without a lookbehind, re
        # skips straight to the words' first letters.
        exact_start = _alternation(self._exact_first) if self._exact_first else "(?!)"
        self._exact_start = re.compile(exact_start + "(?![A-Za-z])")

    def best_match(self, text: str) -> str | None:
        """State code of the longest, earliest gazetteer hit, if any."""
        if not text:
            return None
        candidates: _Candidates = []
        if self._exact_start.search(text) is not None:
            parts = _SPLIT_WORDS.split(text)
            self._lookup(parts, self._exact, self._exact_first, candidates)
        # Only the _FOLD characters can add letters, and they are not ASCII.
        folded = text.lower() if text.isascii() else text.translate(_FOLD).lower()
        if not self._folded_first.keys().isdisjoint(_FOLDED_WORDS.findall(folded)):
            parts = _SPLIT_FOLDED.split(folded)
            self._lookup(parts, self._folded, self._folded_first, candidates)
        for pattern, entry in self._patterns:
            match = pattern.search(text)
            if match is not None:
                candidates.append((-len(entry.name), match.start(), entry.state_code))
        if not candidates:
            return None
        return min(candidates)[2]

    def _lookup(
        self, parts: list[str], index: _Hits, first: dict[str, int], candidates: _Candidates
    ) -> None:
        """Probe the word runs of split text `parts` that start with a name's first word."""
        for i in range(1, len(parts), 2):
            words = first.get(parts[i])
            if words is None:
                continue
            name = parts[i]
            for j in range(i, min(i + 2 * words, len(parts)), 2):
                if j > i:
                    name += parts[j - 1] + parts[j]
                code = index.get(name)
                if code is not None and (
                    name not in AMBIGUOUS_ABBREVS
                    or i > 1 and self._follows_capitalized(parts[i - 2], parts[i - 1])
                ):
                    candidates.append((-len(name), sum(map(len, parts[:i])), code))

    @staticmethod
    def _follows_capitalized(previous: str, separator: str) -> bool:
        """Whether previous + separator ends like r"[A-Z][A-Za-z]*(?:,\\s*|\\s+)"."""
        rest = separator[1:] if separator[:1] == "," else separator
        return not previous.islower() and (not rest or rest.isspace())


def load_gazetteer(path: str | Path | None = None) -> Gazetteer:
    """Load the place index; default is the bundled data file."""
    if path is None:
        ref = resources.files("disimpact").joinpath("data/gazetteer.csv")
        with resources.as_file(ref) as concrete:
            return load_gazetteer(concrete)
    entries: list[GazetteerEntry] = []
    for lineno, (name, code, kind) in csv_rows(path, GAZETTEER_CSV):
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


class Located(NamedTuple):
    """What the roll-up keys a labelled post by; state is None when unlocated."""

    state: str | None
    day: date
    category: ImpactCategory
    source: LocationSource


def locate_posts(
    labelled: Iterable[tuple[Post, ImpactCategory]], gazetteer: Gazetteer
) -> Counter[Located]:
    """Resolve each (post, category) as it arrives; how many posts share each Located."""
    return Counter(
        Located(state, post.created_date, category, source)
        for post, category in labelled
        for state, source in (resolve_location(post, gazetteer),)
    )


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
    """What aggregation left out, and how many state series' weights rest on the IQR stand-in."""

    unlocated: int = 0
    filtered_out: int = 0
    suppressed_cells: list[tuple[str, date, int]] = field(default_factory=list)
    zero_iqr_states: int = 0


def aggregate_state_month(
    located: Mapping[Located, int],
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
    min_posts are suppressed into the report. located maps each Located
    to its number of posts, as locate_posts returns it.
    """
    report = SpatialReport()
    groups: dict[str, Counter[tuple[date, ImpactCategory]]] = {}
    for (state, day, category, source), n in located.items():
        if state is None:
            report.unlocated += n
            continue
        if source_filter is not SourceFilter.BOTH and source.value != source_filter.value:
            report.filtered_out += n
            continue
        groups.setdefault(state, Counter())[day, category] += n
    rows: list[StateMonthIndex] = []
    for state in sorted(groups):
        counts, _ = build_count_series(groups[state], config)
        series = compute_impact_series(counts, config)
        report.zero_iqr_states += series.weights_use_fallback_iqr
        weekly = zip(
            counts.weeks,
            counts.windows,
            series.domains[Domain.PHYSICAL].windows,
            series.domains[Domain.SOCIAL].windows,
        )
        # Weeks ascend, so each month's weeks are consecutive.
        for month, cells in groupby(weekly, key=lambda cell: cell[0].replace(day=1)):
            _, windows, phys, soc = zip(*cells)
            n_posts = sum(map(sum, windows))
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
    source = source_filter.value
    write_csv(
        path,
        ("state", "month", "source", "physical", "social", "post_count"),
        (
            (r.state, r.month.strftime("%Y-%m"), source, r.physical, r.social, r.post_count)
            for r in rows
        ),
    )
