"""
Cleaning and labeling posts with the offline mock backend
=========================================================

"""

import json
import tempfile
from pathlib import Path

from disimpact import (
    ClientPolicy,
    DisasterTag,
    LoadReport,
    MockBackend,
    annotate_dataset,
    clean_dataset,
    iter_posts,
)

# A tiny feed: some posts describe hurricane impacts, some are noise,
# and one mentions a user handle that must never reach a backend.
feed = [
    ("r01", "hurricane helene update: two people died when the creek rose"),
    ("r02", "storm surge forced families to evacuate to the shelter"),
    ("r03", "power is still out across the county after the hurricane"),
    ("r04", "new pasta recipe dropped tonight"),
    ("r05", "thanks @mutualaid_tampa volunteers for relief supplies after the hurricane"),
    ("r06", "Miami Hurricanes win the season opener"),
]

# Scratch files live in a directory removed when the demo ends.
with tempfile.TemporaryDirectory(prefix="annotation_demo_") as tmp:
    workdir = Path(tmp)
    posts_path = workdir / "posts.jsonl"
    with posts_path.open("w", encoding="utf-8") as fh:
        for post_id, text in feed:
            fh.write(
                json.dumps(
                    {
                        "id": post_id,
                        "platform": "reddit",
                        "created_at": "2024-09-28T16:00:00Z",
                        "media_refs": [],
                        "text": text,
                    }
                )
                + "\n"
            )

    # Ingestion scrubs handles before anything else sees the text.
    posts = list(iter_posts(posts_path, LoadReport()))
    print("scrubbed:", next(p.text for p in posts if p.id == "r05"))
    print()

    # Stage one drops posts that are not about the disaster. The posts
    # are read once, as a stream, so any iterable will do: a list here.
    # keep gets each relevant post, in order, as its verdict comes in.
    backend = MockBackend()
    policy = ClientPolicy(max_in_flight=2)
    kept = []
    report = clean_dataset(
        posts, DisasterTag.HURRICANE, backend, policy, workdir / "cache.jsonl", keep=kept.append
    )
    print("cleaning kept", report.summary())
    for post in kept:
        print("  kept:", post.id, post.text[:46])
    print()

    # Stage two assigns one impact category per relevant post. One read
    # of the file takes each post in turn: its relevance, if that is
    # missing, then a relevant post's category. The loop keeps only
    # each post's id and verdicts. The cache holds the stage-one
    # verdicts already, so only the category calls are made.
    labels, run = annotate_dataset(
        iter_posts(posts_path, LoadReport()),
        DisasterTag.HURRICANE, backend, policy, workdir / "cache.jsonl",
    )
    print("labels (cache hits:", run.cache_hits, "):")
    for item in labels:
        label = item.category.short_name if item.relevant else "-"
        print(f"  {item.post_id}  relevant={item.relevant!s:5}  {label}")
