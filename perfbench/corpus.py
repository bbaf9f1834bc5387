"""Seeded synthetic corpus for the benchmark, with the expected result of every post.

The texts, location phrases, handles and record layout come from the
fixture templates in ``tests/fixtures/make_fixtures.py``, imported, not
copied. Each relevant template carries the category the offline mock
classifier must assign, so the relevant set, the labels, the weekly
counts and the state of every located post are known before the
program runs; the benchmark's output checks compare against them.
"""

from __future__ import annotations

import importlib.util
import json
import math
import random
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

# The paper's eleven impact categories, by code (README table).
SHORT_NAMES = (
    "CINJ", "EVAC", "INFR", "ENVD", "RSRC",
    "PUBH", "EMOT", "BIAS", "ASST", "SECO", "OTHER",
)

WEEKS = 26
# Two events: a sharp first landfall and a smaller second one, over a
# low background, so weekly volumes vary and the IQR is never zero.
WEEK_WEIGHTS = tuple(
    0.2 + 3.0 * math.exp(-(((k - 4) / 3) ** 2)) + 1.0 * math.exp(-(((k - 14) / 4) ** 2))
    for k in range(WEEKS)
)

# Shares follow the fixture mix.
IRRELEVANT_SHARE = 1 / 7
METADATA_SHARE = 0.30
UNRESOLVABLE_METADATA_SHARE = 0.08
UNRESOLVABLE_METADATA = "somewhere coastal"
TEXT_LOCATION_SHARE = 0.25
HANDLE_SHARE = 0.20
EMAIL_SHARE = 0.12
MEDIA_SHARE = 0.10

# The state each fixture location phrase names. A phrase missing here
# raises KeyError, so a template change cannot silently skew the checks.
METADATA_STATES = {
    "Tampa, FL": "FL",
    "Asheville, NC": "NC",
    "Savannah, Georgia": "GA",
    "Houston TX": "TX",
    "New Orleans, Louisiana": "LA",
    "Miami Beach, Florida": "FL",
}
TEXT_LOCATION_STATES = {
    "reports from North Carolina": "NC",
    "here in Tampa": "FL",
    "New Orleans checking in": "LA",
    "Asheville holding on": "NC",
    "Savannah neighbors out walking": "GA",
}

ANNOTATORS = ("a1", "a2", "a3")
ANNOTATED_SHARE = 0.05
UNANIMOUS_SHARE = 0.6
MAX_LAG = 3


def load_templates(root: Path):
    """Import the fixture generator module from a checkout root."""
    path = root / "tests" / "fixtures" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass(frozen=True)
class PostTruth:
    """What the program must conclude about one post."""

    relevant: bool
    code: int | None  # the mock's category; None when irrelevant
    week: int
    state: str | None  # metadata first, then text, as spatial resolves


@dataclass
class Corpus:
    """Paths of the generated inputs and everything the checks expect."""

    seed: int
    n_posts: int
    posts_path: Path
    groundtruth_path: Path
    annotations_path: Path
    labels_path: Path
    truth: dict[str, PostTruth] = field(default_factory=dict)
    anchor: str = ""
    unanimous_share: float = 0.0
    # sha256 of the prepared annotation cache a warm rerun must leave unchanged
    cache_sha256: str | None = None
    properties: dict = field(default_factory=dict)

    def expected_labels(self) -> set[tuple[str, int]]:
        return {(pid, t.code) for pid, t in self.truth.items() if t.relevant}

    def expected_counts(self) -> dict[str, list[int]]:
        """Window start -> 11 category counts, zero-filled between first and last."""
        weeks = [t.week for t in self.truth.values() if t.relevant]
        counts = {w: [0] * len(SHORT_NAMES) for w in range(min(weeks), max(weeks) + 1)}
        for t in self.truth.values():
            if t.relevant:
                counts[t.week][t.code - 1] += 1
        return {self.week_start(w): row for w, row in counts.items()}

    def expected_state_counts(self) -> dict[str, int]:
        """Relevant located posts per state."""
        out: dict[str, int] = {}
        for t in self.truth.values():
            if t.relevant and t.state is not None:
                out[t.state] = out.get(t.state, 0) + 1
        return out

    def week_start(self, week: int) -> str:
        return (date.fromisoformat(self.anchor) + timedelta(days=7 * week)).isoformat()


def generate(root: Path, seed: int, n_posts: int, out_dir: Path) -> Corpus:
    """Write posts.jsonl, groundtruth.csv, annotations.csv and labels.csv.

    The same seed and size give byte-identical files.
    """
    fx = load_templates(root)
    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = Corpus(
        seed=seed,
        n_posts=n_posts,
        posts_path=out_dir / "posts.jsonl",
        groundtruth_path=out_dir / "groundtruth.csv",
        annotations_path=out_dir / "annotations.csv",
        labels_path=out_dir / "labels.csv",
        anchor=fx.ANCHOR.isoformat(),
    )
    weekly_relevant = [0] * WEEKS
    text_chars = 0
    with_metadata = with_text_location = 0
    with corpus.posts_path.open("w", encoding="utf-8") as fh:
        for serial in range(1, n_posts + 1):
            post_id = f"b{serial:07d}"
            week = rng.choices(range(WEEKS), weights=WEEK_WEIGHTS)[0]
            day = fx.ANCHOR + timedelta(days=week * 7 + rng.randrange(7))
            relevant = rng.random() >= IRRELEVANT_SHARE
            if relevant:
                text, code = rng.choice(fx.RELEVANT_TEMPLATES)
                weekly_relevant[week] += 1
            else:
                text, code = rng.choice(fx.IRRELEVANT_TEMPLATES), None
            state = None
            roll = rng.random()
            metadata = None
            if roll < METADATA_SHARE:
                metadata = rng.choice(fx.METADATA_POOL)
                state = METADATA_STATES[metadata]
                with_metadata += 1
            elif roll < METADATA_SHARE + UNRESOLVABLE_METADATA_SHARE:
                metadata = UNRESOLVABLE_METADATA
            if rng.random() < TEXT_LOCATION_SHARE:
                phrase = rng.choice(fx.TEXT_LOCATION_POOL)
                text = f"{text}, {phrase}"
                with_text_location += 1
                if state is None:
                    state = TEXT_LOCATION_STATES[phrase]
            if rng.random() < HANDLE_SHARE:
                text = f"{rng.choice(fx.HANDLE_POOL)} {text}"
            if rng.random() < EMAIL_SHARE:
                text = f"{text}, reach me at help{serial}@coastline.org"
            record = fx._post_record(
                rng, post_id, day, text, metadata, rng.random() < MEDIA_SHARE
            )
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            text_chars += len(text)
            corpus.truth[post_id] = PostTruth(relevant, code, week, state)

    with corpus.groundtruth_path.open("w", encoding="utf-8", newline="") as fh:
        fh.write("week_start,value\n")
        for week in range(WEEKS):
            prior = weekly_relevant[week - 1] if week > 0 else 2
            fh.write(f"{corpus.week_start(week)},{prior * 1.5 + week * 0.3:.1f}\n")

    relevant_ids = [pid for pid, t in corpus.truth.items() if t.relevant]
    with corpus.labels_path.open("w", encoding="utf-8", newline="") as fh:
        fh.write("post_id,category_code\n")
        for pid in relevant_ids:
            fh.write(f"{pid},{corpus.truth[pid].code}\n")

    # Three annotators label a sample of relevant posts: unanimous with
    # the mock's code, or one annotator off by a different code.
    items = rng.sample(relevant_ids, max(1, int(len(relevant_ids) * ANNOTATED_SHARE)))
    unanimous = 0
    with corpus.annotations_path.open("w", encoding="utf-8", newline="") as fh:
        fh.write("post_id,annotator_id,category_code\n")
        for pid in items:
            codes = [corpus.truth[pid].code] * len(ANNOTATORS)
            if rng.random() < UNANIMOUS_SHARE:
                unanimous += 1
            else:
                odd = rng.randrange(len(ANNOTATORS))
                codes[odd] = rng.choice([c for c in range(1, 12) if c != codes[odd]])
            for annotator, code in zip(ANNOTATORS, codes):
                fh.write(f"{pid},{annotator},{code}\n")
    corpus.unanimous_share = unanimous / len(items)

    relevant_truth = [corpus.truth[pid] for pid in relevant_ids]
    corpus.properties = {
        "posts": n_posts,
        "relevant": len(relevant_ids),
        "weeks": WEEKS,
        "metadata_share": round(with_metadata / n_posts, 4),
        "text_location_share": round(with_text_location / n_posts, 4),
        "relevant_unlocated_share": round(
            sum(1 for t in relevant_truth if t.state is None) / max(1, len(relevant_truth)), 4
        ),
        "mean_text_chars": round(text_chars / n_posts, 1),
        "annotated_items": len(items),
        "posts_mb": round(corpus.posts_path.stat().st_size / 2**20, 2),
    }
    return corpus
