"""Output checks: compare what one pass wrote against the corpus's expected results.

Each check belongs to the command whose output it reads. A command
fails when it exits nonzero or any of its checks fails; the benchmark's
error rate is failed commands over commands run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from corpus import MAX_LAG, SHORT_NAMES, Corpus

# index.csv prints each value with 9 decimals, so each of the 11
# printed indices and the printed w may each be off by half a unit in
# the last place; the 1e-9 sum tolerance is widened by that rounding.
INDEX_SUM_TOLERANCE = 1e-9 + 12 * 0.5e-9


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows(path: Path) -> list[list[str]]:
    with path.open("r", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def check_clean(out: Path, corpus: Corpus) -> str | None:
    kept = []
    with (out / "posts_clean.jsonl").open("r", encoding="utf-8") as fh:
        for line in fh:
            kept.append(json.loads(line)["id"])
    expected = [pid for pid, t in corpus.truth.items() if t.relevant]
    if kept != expected:
        return f"kept {len(kept)} posts, expected {len(expected)} relevant in order"
    return None


def check_labels(out: Path, corpus: Corpus) -> str | None:
    rows = _rows(out / "labels.csv")
    got = {(pid, int(code)) for pid, code in rows}
    expected = corpus.expected_labels()
    if len(rows) != len(got) or got != expected:
        return (
            f"{len(rows)} label rows; {len(got - expected)} unexpected, "
            f"{len(expected - got)} missing"
        )
    return None


def check_counts(out: Path, corpus: Corpus) -> str | None:
    got: dict[str, list[int]] = {}
    totals: dict[str, int] = {}
    for start, short, count, total in _rows(out / "counts.csv"):
        got.setdefault(start, [0] * len(SHORT_NAMES))[SHORT_NAMES.index(short)] = int(count)
        totals[start] = int(total)
    expected = corpus.expected_counts()
    if got != expected:
        wrong = sorted(set(got) ^ set(expected)) or [
            w for w in expected if got[w] != expected[w]
        ]
        return f"counts differ in {len(wrong)} windows, first {wrong[0]}"
    bad_totals = [w for w, row in expected.items() if totals[w] != sum(row)]
    if bad_totals:
        return f"window totals differ, first {bad_totals[0]}"
    return None


def check_index(out: Path, corpus: Corpus) -> str | None:
    windows: dict[str, list[tuple[float, float]]] = {}
    for start, _short, _n, _total, _p, w, index in _rows(out / "index.csv"):
        windows.setdefault(start, []).append((float(w), float(index)))
    if list(windows) != list(corpus.expected_counts()):
        return f"{len(windows)} index windows, expected {len(corpus.expected_counts())}"
    for start, points in windows.items():
        if len(points) != len(SHORT_NAMES):
            return f"window {start} has {len(points)} categories"
        w = points[0][0]
        if any(not 0.0 < index < math.pi for _, index in points):
            return f"window {start} has an index outside (0, pi)"
        if abs(sum(index for _, index in points) - w) > INDEX_SUM_TOLERANCE:
            return f"window {start} indices do not sum to w"
    return None


def check_leadlag(out: Path, corpus: Corpus) -> str | None:
    rows = _rows(out / "leadlag.csv")
    if len(rows) != 2 * MAX_LAG + 1:
        return f"{len(rows)} lead-lag rows, expected {2 * MAX_LAG + 1}"
    return None


def check_agreement(out: Path, corpus: Corpus) -> str | None:
    report = json.loads((out / "agreement.json").read_text(encoding="utf-8"))
    if abs(report["consistency"] - corpus.unanimous_share) > 1e-9:
        return f"consistency {report['consistency']} != {corpus.unanimous_share}"
    return None


def check_spatial(out: Path, corpus: Corpus) -> str | None:
    got: dict[str, int] = {}
    for state, _month, _source, _phys, _soc, count in _rows(out / "spatial.csv"):
        got[state] = got.get(state, 0) + int(count)
    if got != corpus.expected_state_counts():
        return f"state post counts {got} != {corpus.expected_state_counts()}"
    return None


def check_chart(out: Path, corpus: Corpus) -> str | None:
    if not (out / "chart.svg").read_text(encoding="utf-8").lstrip().startswith("<svg"):
        return "chart.svg is not an SVG document"
    return None


def check_cache_unchanged(out: Path, corpus: Corpus) -> str | None:
    """A warm rerun may read the prepared cache, never change it."""
    if corpus.cache_sha256 is None:
        return None
    if sha256_of(out / "annotation_cache.jsonl") != corpus.cache_sha256:
        return "the annotation cache changed"
    return None


CHECKS = {
    "clean": (check_clean,),
    "annotate": (check_labels, check_cache_unchanged),
    "counts": (check_counts,),
    "index": (check_index,),
    "validate": (check_leadlag,),
    "agreement": (check_agreement,),
    "spatial": (check_spatial,),
    "chart": (check_chart,),
}


def check_pass(
    commands: list[str], exit_codes: list[int], stderr: list[str], out: Path, corpus: Corpus
) -> dict[str, list[str]]:
    """Failures by command, each naming its check; a command absent from the result passed."""
    failures: dict[str, list[str]] = {}
    for command, code, err in zip(commands, exit_codes, stderr):
        if code != 0:
            failures[command] = [f"exit_code: {command} exited {code}: {err.strip()[-500:]}"]
            continue
        for check in CHECKS[command]:
            try:
                problem = check(out, corpus)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problem = f"{type(exc).__name__}: {exc}"
            if problem is not None:
                failures.setdefault(command, []).append(f"{check.__name__}: {problem}")
    return failures
