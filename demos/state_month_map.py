"""
Rolling labeled posts up into state-by-month impact cells
=========================================================

"""

from datetime import date, datetime, timezone

from disimpact import (
    IndexConfig,
    Post,
    SourceFilter,
    aggregate_state_month,
    category_from_code,
    load_gazetteer,
    locate_posts,
    resolve_location,
)


def post(post_id, day, text, metadata=None):
    return Post(
        id=post_id,
        platform="reddit",
        text=text,
        created_at=datetime(day.year, day.month, day.day, 12, tzinfo=timezone.utc),
        media_refs=(),
        location_metadata=metadata,
    )


# Labeled posts from two storm months. Some carry profile location
# metadata, some only mention a place in the text, one has neither.
labeled = [
    (post("f1", date(2024, 9, 12), "roads flooded downtown", "Tampa, FL"), 3),
    (post("f2", date(2024, 9, 13), "shelter lines in Tampa keep growing"), 2),
    (post("f3", date(2024, 9, 20), "power crews from Georgia heading south", "Orlando, FL"), 3),
    (post("f4", date(2024, 10, 10), "still no water pressure", "Tampa, FL"), 5),
    (post("n1", date(2024, 9, 14), "creek over its banks near Asheville"), 3),
    (post("n2", date(2024, 9, 16), "donations pouring into western North Carolina"), 9),
    (post("x1", date(2024, 9, 15), "thinking of everyone affected"), 7),
]

# Location resolution prefers profile metadata and falls back to the
# post text; posts mentioning no known place stay unlocated.
gazetteer = load_gazetteer()
for p, _ in labeled:
    state, source = resolve_location(p, gazetteer)
    print(f"{p.id}: state={state}  via={source.value}")
print()

# locate_posts counts the labelled posts by (state, day, category,
# source) as it locates them, which is all the roll-up below reads.
located = locate_posts(
    [(p, category_from_code(code)) for p, code in labeled], gazetteer
)

# Aggregate into state-month cells, bucketing each post by the month
# its posting week starts in; each cell averages the weekly domain
# composites of the posts that landed in it.
rows, report = aggregate_state_month(located, IndexConfig(), SourceFilter.BOTH)
print("state  month    posts  physical  social")
for cell in rows:
    print(
        f"{cell.state:>5}  {cell.month.strftime('%Y-%m')}  {cell.post_count:5d}"
        f"  {cell.physical:8.4f}  {cell.social:6.4f}"
    )
print(f"unlocated posts: {report.unlocated}")
