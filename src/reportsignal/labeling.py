"""Rank-based labels from event-window returns.

Training labels never come from the report text: (report, stock) pairs
are ranked by their three-day excess return around the release; the
top and the bottom ``LABEL_SHARE`` (3/10, floored exactly) become
positive and negative, the middle neutral.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .corpus import write_csv_rows

POSITIVE = "positive"
NEUTRAL = "neutral"
NEGATIVE = "negative"
LABELS = (POSITIVE, NEUTRAL, NEGATIVE)


@dataclass(frozen=True)
class LabeledReport:
    report_id: str
    stock_id: str
    window_return: float
    label: str


# The share of the pool labeled positive, and again negative.
LABEL_SHARE = Fraction(3, 10)


def assign_labels(pool: Iterable[tuple[str, str, float]]) -> list[LabeledReport]:
    """Label a pool of (report_id, stock_id, window_return) triples.

    The pool is sorted by window_return descending, ties broken by
    report_id then stock_id ascending, so the ranking is total and
    deterministic. The first floor(LABEL_SHARE * n) entries become
    positive, as many at the end negative, the rest neutral; the floor
    is exact rational arithmetic, so float rounding never moves a
    boundary (0.3 * 10 is 2.999... in binary). Returns the labeled
    entries in rank order.
    """
    entries = list(pool)
    n_cut = int(LABEL_SHARE * len(entries))
    entries.sort(key=lambda e: (-e[2], e[0], e[1]))
    labels = [POSITIVE] * n_cut + [NEUTRAL] * (len(entries) - 2 * n_cut) + [NEGATIVE] * n_cut
    return [LabeledReport(rid, sid, float(ret), label) for (rid, sid, ret), label in zip(entries, labels)]


LABELS_HEADER = ("report_id", "stock_id", "window_return", "label")


def write_labels(labels: Iterable[LabeledReport], path) -> None:
    write_csv_rows(
        path,
        LABELS_HEADER,
        ([item.report_id, item.stock_id, repr(item.window_return), item.label] for item in labels),
    )
