"""Sentiment scoring of segmented report text.

Two scorers share one output type. The lexicon scorer counts tokens per
word class and pushes the counts through a temperature softmax, so every
report gets a point on the probability simplex; a report with no lexicon
hit scores the uninformative (1/3, 1/3, 1/3). External model scores are
ingested from CSV and renormalised onto the simplex. The majority rule
is the blunt classifier used for group comparisons: positive hits versus
negative hits, neutral words ignored.

Lexicon (``word,label``) and score (``report_id,pos,neu,neg``) files are
CSV with a header, opened and framed by ``corpus.read_csv_rows``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date as Date
from typing import Iterable, Mapping

from .corpus import RowReject, SegmentDictionary, read_csv_rows, write_csv_rows
from .errors import ArgumentError, DataError, DomainError, SchemaError
from .labeling import NEGATIVE, NEUTRAL, POSITIVE

WORD_CLASSES = (POSITIVE, NEUTRAL, NEGATIVE)
SIMPLEX_TOL = 1e-9

LEXICON_HEADER = ("word", "label")
SCORES_HEADER = ("report_id", "pos", "neu", "neg")


@dataclass(frozen=True)
class SentimentScore:
    """A point on the (pos, neu, neg) probability simplex for one report."""

    report_id: str
    pos: float
    neu: float
    neg: float

    def __post_init__(self):
        parts = (self.pos, self.neu, self.neg)
        # a chained comparison fails on NaN and on either infinity
        if not (0.0 <= self.pos <= 1.0 and 0.0 <= self.neu <= 1.0 and 0.0 <= self.neg <= 1.0):
            raise DomainError(f"score components outside [0, 1]: {parts}")
        if abs(sum(parts) - 1.0) > SIMPLEX_TOL:
            raise DomainError(f"score components sum to {sum(parts)!r}, not 1")


class SentimentLexicon:
    """word -> sentiment class, doubling as the segmentation dictionary."""

    def __init__(self, entries: Mapping[str, str] | Iterable[tuple[str, str]]):
        items = entries.items() if isinstance(entries, Mapping) else entries
        mapping: dict[str, str] = {}
        for word, label in items:
            if label not in WORD_CLASSES:
                raise DataError(f"lexicon word {word!r} has unknown class {label!r}")
            if not word:
                raise DataError("lexicon contains an empty word")
            if mapping.get(word, label) != label:
                raise DataError(f"lexicon word {word!r} listed under two classes")
            mapping[word] = label
        self._classes = mapping

    def __len__(self) -> int:
        return len(self._classes)

    def __contains__(self, word: str) -> bool:
        return word in self._classes

    def words(self, label: str) -> list[str]:
        return sorted(w for w, c in self._classes.items() if c == label)

    def counts(self, tokens: Iterable[str]) -> tuple[int, int, int]:
        """(positive, neutral, negative) hit counts over a token stream."""
        pos = neu = neg = 0
        for token in tokens:
            cls = self._classes.get(token)
            if cls == POSITIVE:
                pos += 1
            elif cls == NEUTRAL:
                neu += 1
            elif cls == NEGATIVE:
                neg += 1
        return pos, neu, neg

    def segment_dictionary(self) -> SegmentDictionary:
        return SegmentDictionary(sorted(self._classes))


def load_lexicon(path) -> SentimentLexicon:
    """Load a word,label CSV into a lexicon (fatal on any bad row)."""
    entries = []
    for line_no, row in read_csv_rows(path, LEXICON_HEADER):
        if len(row) != 2:
            raise SchemaError(f"{path} line {line_no}: expected 2 fields")
        entries.append((row[0].strip(), row[1].strip()))
    return SentimentLexicon(entries)


def lexicon_score(
    tokens: Iterable[str],
    lexicon: SentimentLexicon,
    temperature: float = 1.0,
    report_id: str = "",
) -> SentimentScore:
    """Softmax of class hit counts scaled by 1/temperature.

    softmax((pos, neu, neg) / temperature); zero hits across the board
    degenerate to the uniform score. Lower temperatures sharpen the
    distribution toward the argmax class.
    """
    if not (temperature > 0.0) or not math.isfinite(temperature):
        raise ArgumentError(f"temperature must be positive and finite, got {temperature}")
    counts = lexicon.counts(tokens)
    if counts == (0, 0, 0):
        third = 1.0 / 3.0
        return SentimentScore(report_id, third, third, third)
    top = max(counts)
    exps = [math.exp((c - top) / temperature) for c in counts]
    total = math.fsum(exps)
    pos, neu, neg = (e / total for e in exps)
    return SentimentScore(report_id, pos, neu, neg)


def classify_majority(tokens: Iterable[str], lexicon: SentimentLexicon) -> str:
    """Sign of (positive hits - negative hits); neutral words never vote."""
    pos, _, neg = lexicon.counts(tokens)
    if pos > neg:
        return POSITIVE
    if neg > pos:
        return NEGATIVE
    return NEUTRAL


def load_external_scores(
    source,
    known_ids: Iterable[str],
    sum_tolerance: float = 1e-6,
    max_error_rate: float = 0.1,
) -> tuple[list[SentimentScore], list[RowReject]]:
    """Ingest model-produced scores from a report_id,pos,neu,neg CSV.

    Rows are rejected when the id is unknown or repeated, a component is
    not a number or lies outside [0, 1] beyond ``sum_tolerance``, or the
    components miss summing to 1 by more than ``sum_tolerance``. Accepted
    rows are renormalised so downstream code sees exact simplex points.
    A reject share above ``max_error_rate`` is fatal.
    """
    known = set(known_ids)
    scores: list[SentimentScore] = []
    rejects: list[RowReject] = []
    seen: set[str] = set()
    for line_no, row in read_csv_rows(source, SCORES_HEADER):
        reason = None
        if len(row) != 4:
            reason = f"expected 4 fields, got {len(row)}"
        else:
            report_id = row[0].strip()
            try:
                parts = [float(x) for x in row[1:4]]
            except ValueError:
                parts = []
                reason = "non-numeric score component"
            if reason is None:
                total = math.fsum(parts)
                if report_id not in known:
                    reason = f"unknown report_id {report_id!r}"
                elif report_id in seen:
                    reason = f"duplicate report_id {report_id!r}"
                elif any(
                    not math.isfinite(p) or p < -sum_tolerance or p > 1.0 + sum_tolerance
                    for p in parts
                ):
                    reason = f"component outside [0, 1]: {row[1:4]}"
                elif abs(total - 1.0) > sum_tolerance:
                    reason = f"components sum to {total!r}"
        if reason is not None:
            rejects.append(RowReject(line_no, reason))
            continue
        seen.add(report_id)
        clipped = [min(max(p, 0.0), 1.0) for p in parts]
        norm = math.fsum(clipped)
        scores.append(
            SentimentScore(report_id, clipped[0] / norm, clipped[1] / norm, clipped[2] / norm)
        )
    total_rows = len(scores) + len(rejects)
    if total_rows and len(rejects) / total_rows > max_error_rate:
        raise DataError(
            f"score reject rate {len(rejects) / total_rows:.3f} exceeds {max_error_rate:.3f}"
        )
    return scores, rejects


def write_scores(scores: Iterable[SentimentScore], path) -> None:
    write_csv_rows(path, SCORES_HEADER, ([s.report_id, repr(s.pos), repr(s.neu), repr(s.neg)] for s in scores))


@dataclass(frozen=True)
class DailySentiment:
    """Mean score across all (report, stock) rows tied to one trading day."""

    date: Date
    mean_pos: float
    mean_neu: float
    mean_neg: float
    n_rows: int


def daily_average_sentiment(
    entries: Iterable[tuple[Date, SentimentScore]],
) -> list[DailySentiment]:
    """Average scores by day; each supplied (day, score) row counts once.

    Callers expand multi-stock reports into one row per cited stock
    before averaging, so a report citing two stocks weighs twice.
    """
    grouped: dict[Date, list[SentimentScore]] = {}
    for day, score in entries:
        grouped.setdefault(day, []).append(score)
    out = []
    for day in sorted(grouped):
        scores = grouped[day]
        n = len(scores)
        out.append(
            DailySentiment(
                day,
                math.fsum(s.pos for s in scores) / n,
                math.fsum(s.neu for s in scores) / n,
                math.fsum(s.neg for s in scores) / n,
                n,
            )
        )
    return out
