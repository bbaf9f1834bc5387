"""Annotation-verification statistics.

    Consistency = (# items on which every annotator agrees) / N
    Fleiss kappa = (Pbar - Pbar_e) / (1 - Pbar_e)
    Cohen kappa  = (P_o - P_e) / (1 - P_e)

All three are label-renaming invariant, so the functions accept any
hashable labels (category values, booleans, strings).

The degenerate case Pbar_e = 1 (every assignment landed in a single
category) leaves the chance correction 0/0; observed agreement is then
necessarily perfect, and kappa is reported as 1 with a degeneracy flag.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable, Sequence

from .errors import (
    DegenerateExpected,
    EmptyTable,
    EvenRaterCount,
    LengthMismatch,
    MalformedCsv,
)
from .ingestion import ANNOTATIONS_CSV, csv_rows

Label = Hashable


@dataclass(frozen=True)
class AgreementTable:
    """Complete item x annotator label matrix."""

    items: tuple[str, ...]
    annotator_ids: tuple[str, ...]
    labels: tuple[tuple[Label, ...], ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.items):
            raise ValueError("one label row per item required")
        width = len(self.annotator_ids)
        for row in self.labels:
            if len(row) != width:
                raise ValueError("matrix must be complete: one label per annotator")

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def n_raters(self) -> int:
        return len(self.annotator_ids)


def _require_table(table: AgreementTable) -> None:
    if table.n_items < 1 or table.n_raters < 2:
        raise EmptyTable("need at least 1 item and 2 annotators")


def consistency(table: AgreementTable) -> float:
    """Fraction of items on which all annotators gave the same label."""
    _require_table(table)
    unanimous = sum(1 for row in table.labels if len(set(row)) == 1)
    return unanimous / table.n_items


@dataclass(frozen=True)
class KappaDetail:
    value: float
    observed: float
    expected: float
    degenerate: bool


def _kappa(observed: float, expected: float) -> KappaDetail:
    """Chance-corrected agreement; expected agreement of 1 is the degenerate case."""
    if expected < 1.0:
        return KappaDetail((observed - expected) / (1.0 - expected), observed, expected, False)
    if observed < 1.0:
        raise DegenerateExpected("expected agreement is 1 but observed is not")
    return KappaDetail(1.0, observed, expected, True)


def _fleiss_detail(table: AgreementTable) -> KappaDetail:
    if table.n_items < 2 or table.n_raters < 2:
        raise EmptyTable("Fleiss kappa needs >= 2 items and >= 2 raters")
    n = table.n_raters
    per_item = []
    pooled: Counter[Label] = Counter()
    for row in table.labels:
        tally = Counter(row)
        pooled.update(tally)
        per_item.append(sum(k * (k - 1) for k in tally.values()) / (n * (n - 1)))
    total = table.n_items * n
    p_e = sum((k / total) ** 2 for k in pooled.values())
    return _kappa(sum(per_item) / len(per_item), p_e)


def fleiss_kappa(table: AgreementTable) -> float:
    """Multi-rater chance-corrected agreement over a complete table."""
    return _fleiss_detail(table).value


def _cohen_detail(a: Sequence[Label], b: Sequence[Label]) -> KappaDetail:
    if len(a) != len(b):
        raise LengthMismatch(f"label lists differ in length: {len(a)} vs {len(b)}")
    if not a:
        raise EmptyTable("Cohen kappa needs at least one item")
    n = len(a)
    p_o = sum(1 for x, y in zip(a, b) if x == y) / n
    count_a = Counter(a)
    count_b = Counter(b)
    p_e = sum(count_a[label] * count_b.get(label, 0) for label in count_a) / (n * n)
    return _kappa(p_o, p_e)


def cohen_kappa(a: Sequence[Label], b: Sequence[Label]) -> float:
    """Two-rater chance-corrected agreement."""
    return _cohen_detail(a, b).value


@dataclass(frozen=True)
class ConsensusItem:
    item: str
    label: Label | None
    resolved: bool


def human_consensus(table: AgreementTable) -> list[ConsensusItem]:
    """Strict-majority label per item; full splits stay unresolved.

    Requires an odd rater count so a strict majority is well defined.
    """
    _require_table(table)
    if table.n_raters % 2 == 0:
        raise EvenRaterCount("majority consensus needs an odd number of raters")
    out: list[ConsensusItem] = []
    for item, row in zip(table.items, table.labels):
        label, count = Counter(row).most_common(1)[0]
        if count * 2 > table.n_raters:
            out.append(ConsensusItem(item=item, label=label, resolved=True))
        else:
            out.append(ConsensusItem(item=item, label=None, resolved=False))
    return out


def load_annotations_csv(path: str | Path) -> AgreementTable:
    """Build a table from annotations.csv (ANNOTATIONS_CSV).

    Items keep first-appearance order; annotator columns are sorted by id.
    The matrix must come out complete.
    """
    cells: dict[tuple[str, str], Label] = {}
    annotators: set[str] = set()
    for lineno, (item, annotator, label) in csv_rows(path, ANNOTATIONS_CSV):
        if (item, annotator) in cells:
            raise MalformedCsv(f"{path}:{lineno}: duplicate cell {item}/{annotator}")
        cells[(item, annotator)] = label
        annotators.add(annotator)
    # A dict keeps insertion order, so the items come in first-appearance order.
    items = tuple(dict.fromkeys(item for item, _ in cells))
    annotator_ids = tuple(sorted(annotators))
    rows = []
    for item in items:
        row_labels = []
        for annotator in annotator_ids:
            if (item, annotator) not in cells:
                raise MalformedCsv(
                    f"{path}: incomplete matrix, {item} missing label from {annotator}"
                )
            row_labels.append(cells[(item, annotator)])
        rows.append(tuple(row_labels))
    return AgreementTable(
        items=items, annotator_ids=annotator_ids, labels=tuple(rows)
    )


def agreement_report(
    human: AgreementTable, model_labels: dict[str, Label] | None = None
) -> dict:
    """Assemble the verification report.

    Human-vs-model numbers compare the majority consensus with the model
    label over resolved items only; full-split items are excluded and
    counted in n_unresolved.
    """
    fleiss = _fleiss_detail(human)
    report: dict = {
        "consistency": consistency(human),
        "fleiss_kappa": fleiss.value,
        "fleiss_degenerate": fleiss.degenerate,
        "n_items": human.n_items,
    }
    if model_labels is not None:
        consensus = human_consensus(human)
        resolved = [c for c in consensus if c.resolved and c.item in model_labels]
        report["n_unresolved"] = sum(1 for c in consensus if not c.resolved)
        if resolved:
            human_side = [c.label for c in resolved]
            model_side = [model_labels[c.item] for c in resolved]
            matches = sum(1 for h, m in zip(human_side, model_side) if h == m)
            cohen = _cohen_detail(human_side, model_side)
            report["human_mllm_consistency"] = matches / len(resolved)
            report["cohen_kappa"] = cohen.value
            report["cohen_degenerate"] = cohen.degenerate
        else:
            report["human_mllm_consistency"] = None
            report["cohen_kappa"] = None
            report["cohen_degenerate"] = False
    return report
