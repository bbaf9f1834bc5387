"""Tests for location resolution and state-month aggregation."""

import math
import random
import re
from collections import Counter
from datetime import date, timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ANCHOR, RESOLUTION_CASES, category, make_post

from disimpact import (
    Gazetteer,
    GazetteerEntry,
    IndexConfig,
    Located,
    LocationSource,
    MalformedCsv,
    SourceFilter,
    StateMonthIndex,
    aggregate_state_month,
    load_gazetteer,
    locate_posts,
    resolve_location,
    write_spatial_csv,
)
from disimpact.spatial import AMBIGUOUS_ABBREVS, WORD_COLLISION_CITIES

CONFIG = IndexConfig()


@pytest.fixture(scope="module")
def gazetteer() -> Gazetteer:
    return load_gazetteer()


def located(code, state, source, day=ANCHOR):
    return Located(state, day, category(code), LocationSource(source))


def labelled(posts, code=3):
    return [(post, category(code)) for post in posts]


class TestResolutionSuite:
    @pytest.mark.parametrize(
        "metadata,text,state,source",
        RESOLUTION_CASES,
        ids=[f"case{i:02d}" for i in range(1, len(RESOLUTION_CASES) + 1)],
    )
    def test_case(self, gazetteer, metadata, text, state, source):
        post = make_post(text=text, metadata=metadata or None)
        got_state, got_source = resolve_location(post, gazetteer)
        assert (got_state, got_source.value) == (state, source)

    def test_covers_fifty_cases(self):
        assert len(RESOLUTION_CASES) == 50

    def test_entry_order_does_not_matter(self, gazetteer):
        shuffled = list(gazetteer.entries)
        random.Random(41).shuffle(shuffled)
        reordered = Gazetteer(shuffled)
        for metadata, text, _, _ in RESOLUTION_CASES:
            post = make_post(text=text, metadata=metadata or None)
            assert resolve_location(post, reordered) == resolve_location(
                post, gazetteer
            )

    def test_resolution_is_deterministic(self, gazetteer):
        posts = [
            make_post(post_id=f"c{i}", text=text, metadata=metadata or None)
            for i, (metadata, text, _, _) in enumerate(RESOLUTION_CASES)
        ]
        assert locate_posts(labelled(posts), gazetteer) == locate_posts(
            labelled(posts), gazetteer
        )

    def test_empty_text_resolves_to_nothing(self, gazetteer):
        assert gazetteer.best_match("") is None


class RegexOracle:
    """The per-entry regex matcher that the token index replaced.

    Every entry is its own pattern, searched over the whole text; the
    hit with the longest name, then the earliest start, wins.
    """

    def __init__(self, entries):
        self.compiled = [(entry, self._compile(entry)) for entry in entries]

    @staticmethod
    def _compile(entry):
        escaped = re.escape(entry.name)
        if entry.kind == "abbrev":
            if entry.name in AMBIGUOUS_ABBREVS:
                return re.compile(
                    r"[A-Z][A-Za-z]*(?:,\s*|\s+)(" + escaped + r")(?![A-Za-z])"
                )
            return re.compile(r"(?<![A-Za-z])(" + escaped + r")(?![A-Za-z])")
        flags = 0 if entry.name in WORD_COLLISION_CITIES else re.IGNORECASE
        return re.compile(r"(?<![A-Za-z])(" + escaped + r")(?![A-Za-z])", flags)

    def best_match(self, text):
        if not text:
            return None
        candidates = []
        for entry, pattern in self.compiled:
            match = pattern.search(text)
            if match is not None:
                candidates.append(
                    (-len(entry.name), match.start(1), entry.state_code, entry.kind)
                )
        return min(candidates)[2] if candidates else None


BUNDLED = load_gazetteer()
CUSTOM = Gazetteer(
    list(BUNDLED.entries)
    + [
        GazetteerEntry("Cañon City", "CO", "city"),
        GazetteerEntry("Washington D.C.", "MD", "city"),
        GazetteerEntry("Route 66 Town", "AZ", "city"),
        GazetteerEntry("Springfield", "IL", "city"),
        GazetteerEntry("Springfield", "MO", "city"),
        # Case-sensitive names whose first words share a prefix.
        GazetteerEntry("CAL", "CA", "abbrev"),
        GazetteerEntry("Calif", "CA", "abbrev"),
        GazetteerEntry("NYC", "NY", "abbrev"),
    ]
)

# Characters re.IGNORECASE equates with ASCII letters (fold), letters
# whose case mapping is unusual, and Unicode whitespace.
FOLD_SWAPS = str.maketrans(
    {"i": "\u0131", "I": "\u0130", "s": "\u017f", "k": "\u212a"}
)
NOISE_WORDS = [
    "the", "storm", "flood", "Big", "Salem", "iPhone", "in", "or", "al",
    "\u0130", "\u0131", "\u017f", "\u212a", "σ", "ς", "Σ", "ñ", "Ñ", "ß",
    "Texas2024", "2024", "_", "Ohio_", "x",
]
SEPARATORS = [
    " ", "  ", ", ", ",", " , ", "-", ". ", "_", "7", "",
    "\x85", "\u00a0", "\u3000", "\x1c", "\n",
]
# What can stand between a word and an ambiguous code like "OR".
CODE_SEPARATORS = [
    " ", "  ", ",", ", ", ",  ", " ,", " , ", ",,", "\x85", "\u00a0",
    "\u3000", "\x1c", ", \u3000", "\t\n", "",
]


def _cased(name, how, bits):
    if how == "lower":
        return name.lower()
    if how == "upper":
        return name.upper()
    if how == "mixed":
        return "".join(
            c.upper() if bits >> (i % 32) & 1 else c.lower() for i, c in enumerate(name)
        )
    if how == "fold":
        return name.translate(FOLD_SWAPS)
    return name


def texts(gazetteer):
    names = sorted({entry.name for entry in gazetteer.entries})
    name = st.builds(
        _cased,
        st.sampled_from(names),
        st.sampled_from(["as written", "lower", "upper", "mixed", "fold"]),
        st.integers(0, 2**32 - 1),
    )
    coded = st.builds(
        "".join,
        st.tuples(
            st.sampled_from(NOISE_WORDS),
            st.sampled_from(CODE_SEPARATORS),
            st.sampled_from(sorted(AMBIGUOUS_ABBREVS)),
        ),
    )
    word = st.one_of(name, coded, st.sampled_from(NOISE_WORDS))
    pair = st.tuples(word, st.sampled_from(SEPARATORS)).map("".join)
    return st.lists(pair, max_size=8).map("".join)


ORACLES = {id(g): RegexOracle(g.entries) for g in (BUNDLED, CUSTOM)}


def _agrees(gazetteer, text):
    expected = ORACLES[id(gazetteer)].best_match(text)
    assert gazetteer.best_match(text) == expected, repr(text)


class TestRegexOracle:
    @settings(max_examples=300, deadline=None)
    @given(texts(BUNDLED))
    @example("iPhone, OR")
    @example("Salem,OR")
    @example("Salem , OR")
    @example("Salem\x85OR")
    @example("Salem\u3000OR")
    @example("Texas2024; Port St. Lucie; winston-salem")
    @example("KAN\u017fAS and \u0130llinois and \u0131owa and \u212aansas")
    # A code that ends a longer uppercase run, fold characters against a
    # code, a name-starting word in one case only.
    @example("ALLIANCE TX")
    @example("INFO, OR")
    @example("\u0130TX")
    @example("\u212aS")
    @example("NEW orleans")
    def test_bundled_gazetteer_matches_oracle(self, text):
        _agrees(BUNDLED, text)

    @settings(max_examples=300, deadline=None)
    @given(texts(CUSTOM))
    @example("cañon city vs CAÑON CITY, near washington d.c.")
    @example("route 66 town, Springfield MO")
    @example("Cal, CALIF, Calif NYCE NYC")
    @example("rain in CA and NY")
    def test_custom_gazetteer_matches_oracle(self, text):
        _agrees(CUSTOM, text)

    def test_first_words_nested_deeper_than_re_allows(self):
        # "X", "XX", ..., 1,000 X's: each first word extends the one before,
        # nesting deeper than re allows.
        chain = Gazetteer([GazetteerEntry("X" * k, "TX", "abbrev") for k in range(1, 1001)])
        assert chain.best_match("storm near " + "X" * 150 + ", roads out") == "TX"
        assert chain.best_match("X" * 1001) is None

    def test_bundled_names_all_use_the_token_index(self):
        assert BUNDLED._patterns == []

    def test_only_unbounded_names_keep_a_regex(self):
        kept = sorted(entry.name for _, entry in CUSTOM._patterns)
        assert kept == ["Cañon City", "Washington D.C."]


class TestLocatedPost:
    def test_sources_partition_the_locatable_posts(self, gazetteer):
        posts = [
            make_post(post_id=f"c{i}", text=text, metadata=metadata or None)
            for i, (metadata, text, _, _) in enumerate(RESOLUTION_CASES)
        ]
        out = locate_posts(labelled(posts), gazetteer)
        both = [p for p in out if p.source is not LocationSource.NONE]
        meta = [p for p in out if p.source is LocationSource.METADATA]
        text_only = [p for p in out if p.source is LocationSource.TEXT]
        assert len(both) == len(meta) + len(text_only)
        assert not (set(id(p) for p in meta) & set(id(p) for p in text_only))

    def test_posts_that_share_a_key_are_one_key_with_their_count(self, gazetteer):
        posts = [
            make_post(post_id=f"t{i}", text="roads flooded", hour=i, metadata="Tampa, FL")
            for i in range(5)
        ]
        tally = locate_posts(labelled(posts), gazetteer)
        assert tally == {located(3, "FL", "metadata"): 5}
        rows, _ = aggregate_state_month(tally, CONFIG)
        assert [(r.state, r.post_count) for r in rows] == [("FL", 5)]

    def test_the_tally_counts_what_resolve_location_gives_each_post(self, gazetteer):
        # Metadata that resolves, metadata that falls through to text
        # ("somewhere coastal"), none at all; two categories, some shared keys.
        metadata = ["Tampa, FL", "somewhere coastal", None, "Ohio", "Tampa, FL"]
        pairs = [
            (make_post(post_id=f"m{i}", text=f"roads flooded in Miami {i}", hour=i % 3,
                       metadata=metadata[i % 5]), category(3 + i % 2))
            for i in range(30)
        ]
        expected = Counter()
        for post, code in pairs:
            state, source = resolve_location(post, gazetteer)
            expected[Located(state, post.created_date, code, source)] += 1
        assert locate_posts(pairs, gazetteer) == expected
        assert sorted(expected.values()) != [1] * len(expected)


class TestGazetteerLoading:
    def test_bundled_index_loads(self, gazetteer):
        assert len(gazetteer.entries) > 300
        kinds = {e.kind for e in gazetteer.entries}
        assert kinds == {"state", "abbrev", "city"}

    def test_bad_header(self, tmp_path):
        path = tmp_path / "gaz.csv"
        path.write_text("place,code,type\nTampa,FL,city\n")
        with pytest.raises(MalformedCsv):
            load_gazetteer(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "gaz.csv"
        path.write_text("name,state_code,kind\nTampa,FL,village\n")
        with pytest.raises(MalformedCsv):
            load_gazetteer(path)

    def test_unknown_state_code(self, tmp_path):
        path = tmp_path / "gaz.csv"
        path.write_text("name,state_code,kind\nTampa,XX,city\n")
        with pytest.raises(MalformedCsv):
            load_gazetteer(path)

    def test_empty_name(self, tmp_path):
        path = tmp_path / "gaz.csv"
        path.write_text("name,state_code,kind\n,FL,city\n")
        with pytest.raises(MalformedCsv):
            load_gazetteer(path)

    def test_no_entries(self, tmp_path):
        path = tmp_path / "gaz.csv"
        path.write_text("name,state_code,kind\n")
        with pytest.raises(MalformedCsv):
            load_gazetteer(path)


class TestAggregation:
    def test_single_post_cell_values(self):
        rows, report = aggregate_state_month(Counter([located(3, "FL", "metadata")]), CONFIG)
        (row,) = rows
        # One window, degenerate spread: w = pi/2. The located category is
        # physical, so its domain picks up the extra mass.
        assert row.state == "FL"
        assert row.month == date(2024, 9, 1)
        assert row.post_count == 1
        assert row.physical == pytest.approx((7 / 13) * (math.pi / 2), abs=1e-12)
        assert row.social == pytest.approx((5 / 13) * (math.pi / 2), abs=1e-12)
        assert row.physical > row.social
        assert report.unlocated == 0

    def test_two_states_two_months(self):
        posts = (
            [
                located(3, "FL", "metadata", day=ANCHOR)
                for _ in range(3)
            ]
            + [
                located(2, "FL", "text", day=ANCHOR + timedelta(days=35))
                for _ in range(2)
            ]
            + [
                located(7, "NC", "metadata", day=ANCHOR)
                for _ in range(4)
            ]
        )
        rows, _ = aggregate_state_month(Counter(posts), CONFIG)
        assert [(r.state, r.month, r.post_count) for r in rows] == [
            ("FL", date(2024, 9, 1), 3),
            ("FL", date(2024, 10, 1), 2),
            ("NC", date(2024, 9, 1), 4),
        ]

    def test_monthly_value_is_the_mean_over_windows(self):
        posts = [
            located(3, "FL", "metadata", day=ANCHOR)
            for _ in range(3)
        ] + [
            located(3, "FL", "metadata", day=ANCHOR + timedelta(days=35))
        ]
        rows, _ = aggregate_state_month(Counter(posts), CONFIG)
        september = rows[0]
        # September spans windows starting 09-02 through 09-30.
        from disimpact import build_count_series, compute_impact_series, Domain

        resolved = IndexConfig(window_anchor=ANCHOR)
        counts, _ = build_count_series(
            Counter((p.day, p.category) for p in posts),
            resolved,
            ANCHOR,
            ANCHOR + timedelta(days=42),
        )
        series = compute_impact_series(counts, resolved)
        expected = sum(series.domains[Domain.PHYSICAL].windows[:5]) / 5
        assert september.month == date(2024, 9, 1)
        assert september.physical == pytest.approx(expected, abs=1e-12)

    def test_source_filter_metadata_only(self):
        posts = [
            located(3, "FL", "metadata"),
            located(3, "FL", "text"),
            located(3, "NC", "text"),
        ]
        rows, report = aggregate_state_month(
            Counter(posts), CONFIG, source_filter=SourceFilter.METADATA
        )
        assert [(r.state, r.post_count) for r in rows] == [("FL", 1)]
        assert report.filtered_out == 2

    def test_source_filter_with_no_matching_posts(self):
        posts = [located(3, "FL", "text") for _ in range(4)]
        rows, report = aggregate_state_month(
            Counter(posts), CONFIG, source_filter=SourceFilter.METADATA
        )
        assert rows == []
        assert report.filtered_out == 4

    def test_unlocated_are_counted(self):
        posts = [located(3, "FL", "metadata"), located(3, None, "none")]
        rows, report = aggregate_state_month(Counter(posts), CONFIG)
        assert report.unlocated == 1
        assert sum(r.post_count for r in rows) == 1

    def test_small_cells_are_suppressed(self):
        posts = [
            located(3, "FL", "metadata", day=ANCHOR) for _ in range(2)
        ]
        rows, report = aggregate_state_month(Counter(posts), CONFIG, min_posts=3)
        assert rows == []
        assert report.suppressed_cells == [("FL", date(2024, 9, 1), 2)]

    def test_population_conservation(self):
        rng = random.Random(23)
        posts = []
        for _ in range(60):
            roll = rng.random()
            if roll < 0.2:
                posts.append(located(3, None, "none"))
            else:
                state = rng.choice(["FL", "NC", "TX"])
                source = rng.choice(["metadata", "text"])
                day = ANCHOR + timedelta(days=7 * rng.randrange(6))
                posts.append(located(3, state, source, day=day))
        for source_filter in SourceFilter:
            rows, report = aggregate_state_month(
                Counter(posts), CONFIG, source_filter=source_filter
            )
            accounted = (
                sum(r.post_count for r in rows)
                + sum(n for _, _, n in report.suppressed_cells)
                + report.unlocated
                + report.filtered_out
            )
            assert accounted == len(posts)

    def test_empty_input(self):
        rows, report = aggregate_state_month(Counter(), CONFIG)
        assert rows == []
        assert report.unlocated == 0


class TestStateMonthIndex:
    def test_month_must_be_first_of_month(self):
        with pytest.raises(ValueError):
            StateMonthIndex(
                state="FL", month=date(2024, 9, 2), physical=1.0, social=1.0,
                post_count=1,
            )

    def test_post_count_must_be_positive(self):
        with pytest.raises(ValueError):
            StateMonthIndex(
                state="FL", month=date(2024, 9, 1), physical=1.0, social=1.0,
                post_count=0,
            )

    def test_composites_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            StateMonthIndex(
                state="FL", month=date(2024, 9, 1), physical=-0.1, social=1.0,
                post_count=1,
            )


class TestSpatialCsv:
    def test_format(self, tmp_path):
        rows = [
            StateMonthIndex(
                state="FL", month=date(2024, 9, 1), physical=0.5, social=0.25,
                post_count=3,
            ),
            StateMonthIndex(
                state="NC", month=date(2024, 10, 1), physical=1.0, social=2.0,
                post_count=7,
            ),
        ]
        path = tmp_path / "spatial.csv"
        write_spatial_csv(rows, SourceFilter.BOTH, path)
        assert path.read_text().splitlines() == [
            "state,month,source,physical,social,post_count",
            "FL,2024-09,both,0.500000000,0.250000000,3",
            "NC,2024-10,both,1.000000000,2.000000000,7",
        ]

    def test_filter_value_is_recorded(self, tmp_path):
        rows = [
            StateMonthIndex(
                state="FL", month=date(2024, 9, 1), physical=0.5, social=0.25,
                post_count=3,
            )
        ]
        path = tmp_path / "spatial.csv"
        write_spatial_csv(rows, SourceFilter.METADATA, path)
        assert ",metadata," in path.read_text().splitlines()[1]

    def test_empty_rows_leave_just_the_header(self, tmp_path):
        path = tmp_path / "spatial.csv"
        write_spatial_csv([], SourceFilter.TEXT, path)
        assert path.read_text().splitlines() == [
            "state,month,source,physical,social,post_count"
        ]
