"""Core value types: the impact-category taxonomy and shared records.

Everything here is an immutable value, safe to share between threads.
The eleven-category taxonomy (five physical, five social, plus Other)
and its 1-11 code numbering are fixed; every other module keys off it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from typing import NamedTuple

from .errors import EmptyInput, LengthMismatch, OutOfRange


class Domain(enum.Enum):
    PHYSICAL = "physical"
    SOCIAL = "social"
    NONE = "none"


class Platform(enum.Enum):
    """Source platform of a post. OTHER absorbs anything unrecognized."""

    REDDIT = "reddit"
    TIKTOK = "tiktok"
    YOUTUBE = "youtube"
    OTHER = "other"

    @classmethod
    def parse(cls, value: str) -> "Platform":
        try:
            return cls(value.strip().lower())
        except ValueError:
            return cls.OTHER


class DisasterTag(enum.Enum):
    HURRICANE = "hurricane"
    WILDFIRE = "wildfire"


@dataclass(frozen=True)
class ImpactCategory:
    """One of the eleven impact categories.

    Codes 1-5 are physical, 6-10 social, 11 is the Other bucket that
    belongs to neither domain.
    """

    code: int
    short_name: str
    title: str
    domain: Domain

    def __str__(self) -> str:
        return self.short_name

    def __hash__(self) -> int:
        # Categories key every count dict. The generated hash, over all four
        # fields and through the Domain enum's Python-level __hash__, took a
        # third of aggregate_state_month's time. Equal categories share a code.
        return self.code


CINJ = ImpactCategory(1, "CINJ", "Casualties & Injuries", Domain.PHYSICAL)
EVAC = ImpactCategory(2, "EVAC", "Evacuations & Displacement", Domain.PHYSICAL)
INFR = ImpactCategory(3, "INFR", "Infrastructure & Utility Damage", Domain.PHYSICAL)
ENVD = ImpactCategory(4, "ENVD", "Environmental Damage", Domain.PHYSICAL)
RSRC = ImpactCategory(5, "RSRC", "Resource Shortages", Domain.PHYSICAL)
PUBH = ImpactCategory(6, "PUBH", "Public Health", Domain.SOCIAL)
EMOT = ImpactCategory(7, "EMOT", "Emotional & Psychological Distress", Domain.SOCIAL)
BIAS = ImpactCategory(8, "BIAS", "Bias Narratives", Domain.SOCIAL)
ASST = ImpactCategory(9, "ASST", "Assistance & Recovery", Domain.SOCIAL)
SECO = ImpactCategory(10, "SECO", "Socioeconomic Disruption", Domain.SOCIAL)
OTHER = ImpactCategory(11, "OTHER", "Other / Not Relevant", Domain.NONE)

CATEGORIES: tuple[ImpactCategory, ...] = (
    CINJ, EVAC, INFR, ENVD, RSRC, PUBH, EMOT, BIAS, ASST, SECO, OTHER,
)

PHYSICAL_CATEGORIES: tuple[ImpactCategory, ...] = CATEGORIES[0:5]
SOCIAL_CATEGORIES: tuple[ImpactCategory, ...] = CATEGORIES[5:10]

_BY_CODE = {c.code: c for c in CATEGORIES}
_BY_SHORT_NAME = {c.short_name: c for c in CATEGORIES}


def category_from_code(code: int) -> ImpactCategory:
    """Return the category for an integer code 1-11.

    Raises OutOfRange for anything else (including non-integers).
    """
    if not isinstance(code, int) or isinstance(code, bool):
        raise OutOfRange(f"category code must be an integer, got {code!r}")
    cat = _BY_CODE.get(code)
    if cat is None:
        raise OutOfRange(f"category code must be in 1..11, got {code}")
    return cat


def category_from_short_name(name: str) -> ImpactCategory:
    cat = _BY_SHORT_NAME.get(name.strip().upper())
    if cat is None:
        raise OutOfRange(f"unknown category short name {name!r}")
    return cat


def domain_of(category: ImpactCategory) -> Domain:
    return category.domain


class Post(NamedTuple):
    """One social-media post, platform-agnostic: one valid posts.jsonl line.

    `text` is the pre-joined textual content (title + description);
    `media_refs` carries opaque URIs that are never fetched here.
    `platform` is the string as written (write_posts_jsonl normalizes
    it through Platform.parse). The posts.jsonl parser guarantees two
    things: `created_at` is in UTC, and `text` is scrubbed of handles.
    """

    id: str
    platform: str
    text: str
    created_at: datetime
    media_refs: tuple[str, ...] = ()
    location_metadata: str | None = None

    @property
    def created_date(self) -> date:
        return self.created_at.date()


class Label(NamedTuple):
    """What annotation decides about one post, by id; labels.csv lists the relevant.

    Irrelevant posts carry category OTHER by convention; their category
    never feeds counting, since labels.csv lists only relevant posts.
    """

    post_id: str
    category: ImpactCategory
    relevant: bool = True


# The one window length: the paper defines n_t(c), w_t and I_t(c) per
# week, and lead-lag validation pairs them with weekly external signals.
WEEK = timedelta(days=7)


@dataclass(frozen=True)
class WeeklySeries:
    """Contiguous weekly value series keyed by week-start dates."""

    weeks: tuple[date, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.weeks:
            raise EmptyInput("weekly series needs at least one week")
        if len(self.weeks) != len(self.values):
            raise LengthMismatch(
                f"{len(self.weeks)} weeks vs {len(self.values)} values"
            )
        for prev, cur in zip(self.weeks, self.weeks[1:]):
            if cur - prev != WEEK:
                raise ValueError(f"weeks must step by 7 days: {prev} -> {cur}")
        for value in self.values:
            if not math.isfinite(value):
                raise ValueError("series values must be finite")


# The numpy.percentile methods that impact.compute_iqr reproduces without numpy.
QUANTILE_METHODS = ("linear", "lower", "higher", "nearest", "midpoint")
# How the five member indices of a domain combine into its composite.
COMPOSITE_OPERATORS = ("sum", "mean")


@dataclass(frozen=True)
class IndexConfig:
    """Knobs for the impact-index stage.

    alpha is the additive-smoothing pseudo-count given to each of the
    11 categories (OTHER included). window_anchor = None means "derive
    the Monday on or before the earliest relevant post or range start".
    quantile_method sets how the IQR of the window totals is taken, and
    composite_operator whether a domain composite sums or averages its
    five member indices.
    """

    alpha: float = 0.5
    window_anchor: date | None = None
    quantile_method: str = "linear"
    composite_operator: str = "sum"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("alpha must be finite and > 0")
        if self.quantile_method not in QUANTILE_METHODS:
            raise OutOfRange(f"quantile_method must be one of {QUANTILE_METHODS}")
        if self.composite_operator not in COMPOSITE_OPERATORS:
            raise OutOfRange(f"composite_operator must be one of {COMPOSITE_OPERATORS}")
