"""Rank-based labels from event-window returns.

Training labels never come from the report text: (report, stock) pairs
are ranked by their three-day excess return around the release and the
top/bottom slices become positive/negative, the middle neutral.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .corpus import write_csv_rows
from .errors import ArgumentError

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


def _slice_size(q, n: int) -> int:
    # floor(q * n) computed in exact rational arithmetic: float rounding
    # must not decide slice sizes (0.3 * 10 is 2.999... in binary).
    frac = q if isinstance(q, Fraction) else Fraction(str(q))
    if not (0 <= frac <= 1):
        raise ArgumentError(f"quantile {q} outside [0, 1]")
    return int(frac * n)


def assign_labels(
    pool: Iterable[tuple[str, str, float]],
    upper_quantile=0.3,
    lower_quantile=0.3,
) -> list[LabeledReport]:
    """Label a pool of (report_id, stock_id, window_return) triples.

    The pool is sorted by window_return descending, ties broken by
    report_id then stock_id ascending, so the ranking is total and
    deterministic. The first floor(upper_quantile * n) entries become
    positive, the last floor(lower_quantile * n) negative, the rest
    neutral. Returns the labeled entries in rank order.
    """
    entries = list(pool)
    if not entries:
        raise ArgumentError("cannot label an empty pool")
    n_pos = _slice_size(upper_quantile, len(entries))
    n_neg = _slice_size(lower_quantile, len(entries))
    if n_pos + n_neg > len(entries):
        raise ArgumentError(
            f"quantiles {upper_quantile}+{lower_quantile} overlap on a pool of {len(entries)}"
        )
    entries.sort(key=lambda e: (-e[2], e[0], e[1]))
    out = []
    for rank, (report_id, stock_id, ret) in enumerate(entries):
        if rank < n_pos:
            label = POSITIVE
        elif rank >= len(entries) - n_neg:
            label = NEGATIVE
        else:
            label = NEUTRAL
        out.append(LabeledReport(report_id, stock_id, float(ret), label))
    return out


LABELS_HEADER = ("report_id", "stock_id", "window_return", "label")


def write_labels(labels: Iterable[LabeledReport], path) -> None:
    write_csv_rows(
        path,
        LABELS_HEADER,
        ([item.report_id, item.stock_id, repr(item.window_return), item.label] for item in labels),
    )
