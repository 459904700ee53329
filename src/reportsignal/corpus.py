"""Analyst-report corpus: parsing and cleaning, plus the opening of every
input and output file and the framing of every CSV file.

Every input file is opened by its path through ``open_input``. CSV inputs
are framed by ``read_csv_rows`` (header check, line numbers, blank rows,
``csv`` errors); one-value-per-line inputs with ``#`` comments are read by
``read_lines``. Each reader keeps its own row checks and rejects. Every
output file is opened through ``open_output`` (UTF-8 text with ``\n`` line
ends, or bytes), which writes ``<path>.tmp`` and moves it into place, so an
output appears whole or not at all; ``remove_output`` removes the report a
previous run left, so a verb that fails leaves none. A verb's summary goes
to standard output last, through ``write_stdout``, which reports a failed
write as ``open_output`` does. ``write_csv_rows`` writes the CSV outputs
(csv quoting, one header row) from cells the callers format. The exception
is ``synthkit.write_dataset``'s ``bars.csv`` and ``indices.csv``, whose
cells (ids, ISO dates, float reprs) never need quoting: it formats their
lines itself; on the 1x ``bars.csv`` (63.6k rows, 2-CPU x86-64) that took
0.26-0.37 s against 0.41-0.55 s through ``write_csv_rows``, for the same
bytes.

Corpus files are UTF-8 CSV (a leading byte-order mark is allowed) with the
exact header

    report_id,title,abstract,stock_codes,release_date

where ``stock_codes`` holds one or more exchange codes joined by ``;``
(e.g. ``600519.SH;000001.SZ``), none twice, and ``release_date`` is ISO
``YYYY-MM-DD``, the one date form every input takes (``parse_date``).
Parsing is strict about the header (fatal) and lenient about rows: bad
rows are collected as rejects and the parse only fails once the reject
share exceeds ``max_error_rate``.

Cleaning normalises whitespace, drops control characters, and cuts
boilerplate risk-warning tails; ``sentiment`` counts the lexicon hits of
the cleaned text.

Layout. Reports in memory are ``ReportColumns``: ids, titles and
abstracts as ``TextColumn``s, each one string cut into each report's text
by int64 offsets (compressed sparse rows), release dates as day
ordinals, each cited code once in ``stocks``, and all citations as
positions there, one flat array cut by int64 offsets the same way.
``ReportColumns.pairs`` is the one expansion of reports into the (report,
cited stock) pairs that every artifact and ``CorpusIndex`` observe. Each
pair is dated on the trading day that ``TradingCalendar.locate`` gives
its release ordinal (the release date when it trades, else the next
trading day), so the label pool, the panel, the majority samples and the
daily series align alike.
"""

from __future__ import annotations

import csv
import errno
import operator
import os
import re
import sys
import unicodedata
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from datetime import date as Date
from functools import cache
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigurationError, DataError, SchemaError

CORPUS_HEADER = ("report_id", "title", "abstract", "stock_codes", "release_date")

# Exchange code: numeric ticker, a dot, and an upper-case venue suffix.
_STOCK_CODE_RE = re.compile(r"^[0-9]{1,6}\.[A-Z]{1,4}$")
_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")

# Unicode categories removed outright during cleaning: control and format
# characters (zero-width joiners and friends).
_STRIP_CATEGORIES = ("Cc", "Cf")


@dataclass(frozen=True, eq=False)
class TextColumn:
    """Texts packed as one string: text ``i`` is
    ``text[offsets[i]:offsets[i + 1]]``, with ``offsets`` int64 and one
    longer than the column. Reads like a list of ``str``: ``len``,
    integer indexing and iteration, plus ``take``."""

    text: str
    offsets: np.ndarray

    @classmethod
    def pack(cls, texts: Iterable[str]) -> TextColumn:
        """The column of ``texts``, in order."""
        texts = list(texts)
        lengths = np.fromiter(map(len, texts), np.int64, len(texts))
        return cls("".join(texts), np.concatenate(([0], lengths.cumsum())))

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, index: int) -> str:
        """Text ``index``, counted from the end when negative, as in a list."""
        i = range(len(self))[operator.index(index)]
        return self.text[self.offsets[i] : self.offsets[i + 1]]

    def __iter__(self) -> Iterator[str]:
        return self.take(range(len(self)))

    def take(self, positions) -> Iterator[str]:
        """The texts at ``positions`` (integers, indexed as in a list), in
        order. Their offsets are gathered once; each text is cut out as the
        iterator reaches it."""
        positions = np.asarray(positions, dtype=np.intp)
        starts, ends = memoryview(self.offsets[:-1][positions]), memoryview(self.offsets[1:][positions])
        return map(self.text.__getitem__, map(slice, starts, ends))


@dataclass(frozen=True, eq=False)
class ReportColumns:
    """Reports as columns; report ``i`` has id ``ids[i]``, title
    ``titles[i]`` and abstract ``abstracts[i]``, is released on ordinal
    ``days[i]`` and cites the stocks at ``cited[offsets[i]:offsets[i + 1]]``
    in ``stocks``."""

    ids: TextColumn
    titles: TextColumn
    abstracts: TextColumn
    days: np.ndarray
    stocks: list[str]
    cited: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def pairs(self, start: Date, end: Date) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (report, cited stock) pairs of the reports released in
        [start, end], in report order and each report's citation order:
        each pair's report position, stock position and release ordinal."""
        report = np.repeat(np.arange(len(self)), np.diff(self.offsets))
        keep = ((self.days >= start.toordinal()) & (self.days <= end.toordinal()))[report]
        return report[keep], self.cited[keep], self.days[report[keep]]


@dataclass(frozen=True)
class RowReject:
    """A corpus/score/market row that failed validation, with its line number."""

    line: int
    reason: str


@dataclass
class ParseResult:
    records: ReportColumns
    rejects: list[RowReject] = field(default_factory=list)

    @property
    def error_rate(self) -> float:
        total = len(self.records) + len(self.rejects)
        return len(self.rejects) / total if total else 0.0


@contextmanager
def open_input(path):
    """Open an input file as UTF-8 text with an optional leading byte-order
    mark; a byte sequence that is not UTF-8 raises DataError naming the file."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as stream:
            yield stream
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text ({exc.reason})") from None


def read_csv_rows(path, header: tuple[str, ...]):
    """Yield ``(line_no, row)`` for each non-blank row of a CSV input.

    The first row must match ``header`` once each cell is stripped; an
    empty file or another header raises SchemaError. Rows are numbered
    from 2, blank rows counted but not yielded. Text the csv module cannot
    frame strictly (a quote left open to the end of the file, text after a
    closing quote, a field over its 131,072-character limit) raises
    DataError naming the file and the line.
    """
    expected = ",".join(header)
    with open_input(path) as stream:
        reader = csv.reader(stream, strict=True)
        try:
            actual = next(reader, None)
            if actual is None:
                raise SchemaError(f"{path} is empty, expected header {expected}")
            if tuple(h.strip() for h in actual) != header:
                raise SchemaError(f"{path} header {actual!r} does not match {expected}")
            for line_no, row in enumerate(reader, start=2):
                if row:
                    yield line_no, row
        except csv.Error as exc:
            raise DataError(f"{path} line {reader.line_num}: malformed CSV ({exc})") from None


def read_lines(path) -> list[str]:
    """Stripped lines of a one-value-per-line input, without blank lines
    and '#' comment lines."""
    with open_input(path) as stream:
        lines = [raw.strip() for raw in stream.read().splitlines()]
    return [line for line in lines if line and not line.startswith("#")]


@contextmanager
def open_output(path, mode: str = "w"):
    """Open ``path`` for writing (``mode`` "w" as UTF-8 text, "wb" as bytes)
    through ``<path>.tmp``, which replaces ``path`` once the block ends
    cleanly and is removed otherwise. An OSError becomes a ConfigurationError."""
    temp = f"{path}.tmp"
    try:
        with open(temp, mode, **({} if "b" in mode else {"encoding": "utf-8", "newline": ""})) as stream:
            yield stream
        os.replace(temp, path)
    except OSError as exc:
        raise _unwritable(path, exc) from None
    finally:
        with suppress(OSError):
            os.remove(temp)


def remove_output(path) -> None:
    """Remove the file a previous run left at ``path``, if any; an OSError
    becomes the ConfigurationError that ``open_output`` raises."""
    try:
        os.remove(path)
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise _unwritable(path, exc) from None


def _unwritable(path, exc: OSError) -> ConfigurationError:
    return ConfigurationError(f"cannot write {path}: {exc.strerror or exc}")


def write_text(path, text: str) -> None:
    with open_output(path) as stream:
        stream.write(text)


def write_stdout(text: str) -> None:
    """Write ``text`` to standard output and flush it; an OSError becomes
    the ConfigurationError that ``open_output`` raises. When the reader of
    a pipe has gone, standard output is first pointed at the null device,
    so the interpreter's last flush writes nowhere."""
    try:
        if sys.stdout is None:  # standard output was closed at start
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        if exc.errno == errno.EPIPE:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise _unwritable("standard output", exc) from None


def write_csv_rows(path, header: tuple[str, ...], rows: Iterable) -> None:
    """Write ``header`` and then each row to a CSV file through ``open_output``."""
    with open_output(path) as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def parse_date(text: str) -> Date:
    """``text`` as a ``YYYY-MM-DD`` date in ASCII digits. Other forms, which
    ``date.fromisoformat`` takes from Python 3.11 on (20210104, 2021-W01-1),
    raise the ValueError it gives them on Python 3.10."""
    if not _DATE_RE.fullmatch(text):
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return Date.fromisoformat(text)


def _codes_or_reason(text: str) -> tuple[str | None, tuple[str, ...]]:
    """Why a ``stock_codes`` text is rejected (None if it is not), and its codes."""
    codes = tuple(c.strip() for c in text.split(";") if c.strip())
    if not codes:
        return "no stock codes", codes
    if bad := [c for c in codes if not _STOCK_CODE_RE.match(c)]:
        return f"malformed stock code {bad[0]!r}", codes
    if again := [c for i, c in enumerate(codes) if c in codes[:i]]:
        return f"duplicate stock code {again[0]!r}", codes
    return None, codes


def _day_or_reason(text: str) -> tuple[str | None, int]:
    """Why a ``release_date`` text is rejected (None if it is not), and its ordinal."""
    try:
        return None, parse_date(text.strip()).toordinal()
    except ValueError:
        return f"unparseable release_date {text!r}", 0


def parse_corpus(path, max_error_rate: float = 0.1) -> ParseResult:
    """Parse a corpus file into validated records, stocks in first-cited order.

    Rows with the wrong field count, an empty report_id, malformed or
    repeated stock codes, or an unparseable date are rejected individually;
    each distinct ``stock_codes`` and ``release_date`` text is checked once.
    A wrong header, a duplicate report_id, or a reject share above
    ``max_error_rate`` aborts the parse.
    """
    ids: dict[str, None] = {}  # in file order
    titles, abstracts, days, cited, offsets, positions = [], [], [], [], [0], {}
    rejects: list[RowReject] = []
    codes_of, day_of = cache(_codes_or_reason), cache(_day_or_reason)
    for line_no, row in read_csv_rows(path, CORPUS_HEADER):
        if len(row) != len(CORPUS_HEADER):
            reason = f"expected {len(CORPUS_HEADER)} fields, got {len(row)}"
        else:
            report_id, title, abstract, codes_raw, date_raw = row
            report_id = report_id.strip()
            if not report_id:
                reason = "empty report_id"
            else:
                reason, codes = codes_of(codes_raw)
                if reason is None:
                    reason, day = day_of(date_raw)
        if reason is not None:
            rejects.append(RowReject(line_no, reason))
            continue
        if report_id in ids:
            raise DataError(f"duplicate report_id {report_id!r} at line {line_no}")
        ids[report_id] = None
        titles.append(title)
        abstracts.append(abstract)
        days.append(day)
        for code in codes:
            cited.append(positions.setdefault(code, len(positions)))
        offsets.append(len(cited))

    # each column packed in turn, its list freed before the next is packed
    ids = TextColumn.pack(ids)
    titles = TextColumn.pack(titles)
    abstracts = TextColumn.pack(abstracts)
    days, cited, offsets = np.array(days, np.int64), np.array(cited, np.intp), np.array(offsets, np.int64)
    records = ReportColumns(ids, titles, abstracts, days, list(positions), cited, offsets)
    result = ParseResult(records, rejects)
    if result.error_rate > max_error_rate:
        raise DataError(
            f"corpus reject rate {result.error_rate:.3f} exceeds {max_error_rate:.3f} "
            f"({len(rejects)} of {len(records) + len(rejects)} rows)"
        )
    return result


def serialize_corpus(reports: ReportColumns, path) -> None:
    """Write reports back out in the corpus CSV format (round-trips with parse)."""
    names = [reports.stocks[stock] for stock in reports.cited.tolist()]
    bounds = reports.offsets.tolist()
    codes = (";".join(names[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
    days = (Date.fromordinal(day).isoformat() for day in reports.days.tolist())
    write_csv_rows(path, CORPUS_HEADER, zip(reports.ids, reports.titles, reports.abstracts, codes, days))


def load_risk_warning_patterns(path) -> tuple[str, ...]:
    """Read boilerplate tail markers, one per line; '#' lines are comments."""
    return tuple(read_lines(path))


def clean_text(
    raw: str,
    risk_warning_patterns: Iterable[str] = (),
    tail_fraction: float = 0.25,
) -> str:
    """Normalise report text and strip boilerplate risk-warning tails.

    Control/format characters become spaces, runs of whitespace collapse
    to single spaces, and the text is trimmed. Then, repeatedly, the
    earliest risk-warning marker that starts inside the trailing
    ``tail_fraction`` of the text is found and everything from it onward
    is removed. The function is idempotent: cleaning a cleaned text is a
    no-op.
    """
    # Cc and Cf characters are never printable, so a printable text has none.
    if not raw.isprintable():
        raw = "".join(" " if unicodedata.category(ch) in _STRIP_CATEGORIES else ch for ch in raw)
    text = " ".join(raw.split())

    patterns = [p for p in risk_warning_patterns if p]
    while patterns and text:
        gate = int(len(text) * (1.0 - tail_fraction))
        cut = None
        for pattern in patterns:
            idx = text.find(pattern, gate)
            if idx != -1 and (cut is None or idx < cut):
                cut = idx
        if cut is None:
            break
        text = text[:cut].rstrip()
    return text


class CorpusIndex:
    """Each (cited stock, report) pair as one packed key, stock position
    times 2**32 plus release-day ordinal, sorted: the reports of a stock in
    a window of days are one contiguous run of keys."""

    def __init__(self, reports: ReportColumns):
        _, stocks, days = reports.pairs(Date.min, Date.max)
        self.keys = np.sort(self.keys_of(stocks, days))

    @staticmethod
    def keys_of(stocks: np.ndarray, days: np.ndarray) -> np.ndarray:
        """The keys of (stock position, day ordinal) rows. Ordinals stay far
        below 2**32, so a key minus a window of days never reaches another
        stock's keys."""
        return np.asarray(stocks, dtype=np.int64) << 32 | np.asarray(days, dtype=np.int64)
