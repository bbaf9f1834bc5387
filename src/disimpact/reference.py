"""Bundled reference category distributions for large collected corpora.

Two data files ship with the package, one per disaster type, each
holding the category counts observed on three platforms together with
the percentage printed alongside them in the source distribution
tables. They drive fixture tests and give a realistic single-window
input for the index math without any collection or inference.

The percentage column is copied as printed, not computed from the
counts: whole percents, each at least 1, summing to exactly 100 per
platform. Keeping that total means a printed value need not be its
share rounded to the nearest percent, and a row can sit more than a
point from its count's share; two wildfire rows do, for example
tiktok ENVD (31.12% printed as 30).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .core import CATEGORIES, DisasterTag, ImpactCategory, Platform
from .errors import MalformedCsv
from .ingestion import REFERENCE_CSV, csv_rows


@dataclass(frozen=True)
class ReferenceRow:
    """One platform's count for one category, as the source table prints it.

    ``published_pct`` is the printed whole percent, copied verbatim: at
    least 1, and summing to 100 over the platform's 11 rows, so it can
    differ from ``count``'s own share by a point or more.
    """

    platform: Platform
    category: ImpactCategory
    count: int
    published_pct: int


def load_reference_distribution(disaster: DisasterTag) -> list[ReferenceRow]:
    """Load the bundled distribution for one disaster type.

    Rows come back in file order: each platform lists all 11 categories.
    """
    name = f"data/{disaster.value}_category_counts.csv"
    ref = resources.files("disimpact").joinpath(name)
    with resources.as_file(ref) as concrete:
        return _parse(Path(concrete))


def _parse(path: Path) -> list[ReferenceRow]:
    return [ReferenceRow(*row) for _, row in csv_rows(path, REFERENCE_CSV)]


def counts_by_category(
    rows: list[ReferenceRow], platform: Platform
) -> dict[ImpactCategory, int]:
    """One platform's counts as a complete 11-category mapping."""
    out = {
        row.category: row.count for row in rows if row.platform is platform
    }
    missing = [c.short_name for c in CATEGORIES if c not in out]
    if missing:
        raise MalformedCsv(f"platform {platform.value} lacks {', '.join(missing)}")
    return out
