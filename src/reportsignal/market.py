"""Daily market data: trading calendar, per-stock OHLCV bars, index levels,
and industry membership.

File formats (CSV with header, except the calendar; files are opened and
framed by ``corpus.read_csv_rows`` and ``corpus.read_lines``, which also
handle a leading byte-order mark):

    bars:     stock_id,date,open,high,low,close,volume
    indices:  index_id,date,level
    industry: stock_id,industry_index_id,sector_name
    calendar: one ISO date per line, ascending; '#' lines are comments

Layout. Market data has one form in memory: dense (id x trading-day)
grids of raw values with a ``present`` mask, ``BarGrid`` for bars' open/
high/low/close/volume and ``IndexGrid`` for index levels. Row i holds the
i-th id's values at their calendar positions, absent cells hold 0.0, and
a last, empty row stands for an unknown id. ``load_market`` scatters the
rows it accepts into grids (``_scatter``, the only scatter); ``synthkit.
generate`` fills its grids in place; the snapshot keeps them verbatim;
``BarStore`` and ``IndexStore`` check their shape and hold them as they
are. A date becomes a calendar position one way, ``TradingCalendar.
locate`` (the first trading day on or after it). Nothing derived is
precomputed per cell but the running volume sums and bar counts that
make a trailing volume window two lookups. The metric kernels in
``metrics`` gather the cells they need by (row, day) arrays.

Loading. ``load_market`` reads bars.csv ``BAR_BLOCK_ROWS`` rows at a
time: each block becomes columns, prices convert with
``np.array(column, dtype=float)`` (which calls ``float()`` on every
string), dates once per distinct text. One ordered table of array masks
holds the bar rules (empty stock_id, then price, then volume, then the
high/low bracket), and a row that breaks any is rejected for the first.
Only a block with a row that does not read (wrong width, a field that
does not parse) goes row by row to find it. Rejects come in line order:
first those of parsing and bar rules, then those of calendar days and
duplicates.

Snapshot. ``write_snapshot`` saves a loaded market as ``market.npz``
(day ordinals, the bar and index grids verbatim, ids and industry rows)
plus ``market.json``, holding the sha256 of each market file, of the
code they pass through (this module and the ``corpus`` readers it calls),
and of the npz. ``read_snapshot`` hands the grids to the store
constructors while the manifest matches, and otherwise says why not, so
the caller parses the files. It hashes and loads the npz through one open
file, safe since ``write_snapshot`` only ever replaces the npz whole.

Fence. Each store accepts an optional ``fence`` date; as a calendar
position it is one column bound, and a kernel row whose first failing
read lies left of it raises, which is how the analysis stage proves it
never touches pre-test history beyond its declared lookback.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import operator
import os
import zipfile
from dataclasses import dataclass, field
from datetime import date as Date, timedelta
from itertools import islice
from pathlib import Path
from typing import Iterable

import numpy as np

from .corpus import RowReject, open_input, read_csv_rows, read_lines
from .errors import ConfigurationError, DataError, MappingError, SchemaError

SSE = "SSE"
SZSE = "SZSE"
CSI500 = "CSI500"
VIX = "VIX"

BARS_HEADER = ("stock_id", "date", "open", "high", "low", "close", "volume")
INDICES_HEADER = ("index_id", "date", "level")
INDUSTRY_HEADER = ("stock_id", "industry_index_id", "sector_name")
# Bars are parsed this many rows at a time. Each csv row is a list, which
# the cyclic garbage collector tracks; a block this small is freed before
# its first generation (700 containers by default) fills, so no collection
# runs while bars.csv loads. 8,192-row blocks made 315 collections at 1x.
BAR_BLOCK_ROWS = 512
# Calendar days of history before the first event: the long recommendation
# count window of ``metrics``, which the calendar must cover.
LONG_COUNT_WINDOW = 90


class TradingCalendar:
    """Ascending list of trading days; ``locate`` turns dates, as day
    ordinals, into calendar positions."""

    def __init__(self, dates: Iterable[Date]):
        ds = list(dates)
        if not ds:
            raise DataError("trading calendar is empty")
        for a, b in zip(ds, ds[1:]):
            if a >= b:
                raise DataError(f"calendar dates not strictly increasing at {a} -> {b}")
        self.dates: tuple[Date, ...] = tuple(ds)
        self.ordinals = np.array([d.toordinal() for d in ds], dtype=np.int64)

    def __len__(self) -> int:
        return len(self.dates)

    def first(self) -> Date:
        return self.dates[0]

    def last(self) -> Date:
        return self.dates[-1]

    def locate(self, days: np.ndarray) -> np.ndarray:
        """Position of the first trading day on or after each day ordinal;
        ``len(self)`` where there is none."""
        return np.searchsorted(self.ordinals, days)

    def positions(self, days: np.ndarray) -> np.ndarray:
        """Position of each day ordinal, or -1 where it is no trading day."""
        at = self.locate(days)
        return np.where(self.ordinals[np.minimum(at, len(self) - 1)] == days, at, -1)

    def require_coverage(self, first_event: Date, last_event: Date) -> None:
        """Fail unless the calendar starts at least ``LONG_COUNT_WINDOW``
        calendar days before the first event and holds a trading day after
        the last event's release trading day."""
        need_start = first_event - timedelta(days=LONG_COUNT_WINDOW)
        if self.first() > need_start:
            raise ConfigurationError(
                f"calendar starts {self.first()}, but needs to start on or before "
                f"{need_start} ({LONG_COUNT_WINDOW} days before first event {first_event})"
            )
        if int(self.locate(last_event.toordinal())) + 1 >= len(self):
            raise ConfigurationError(
                f"calendar ends {self.last()}, too early for event {last_event} plus 1 trading day(s)"
            )


class _DayGrid:
    """Values keyed by (id, trading day), held in dense (id x day) arrays.

    Row ``rows[id]`` holds one id's values at their calendar positions and
    ``present`` marks the cells that hold one; the other cells hold 0.0.
    One extra row at the end stays empty, so row -1 stands for an unknown
    id and a gather needs no special case for it. A read of a day before
    ``fence`` (a date, or None) is refused; as a calendar position the
    fence is one column bound, ``fence_position()``.
    """

    data = "market"

    def __init__(self, calendar: TradingCalendar, ids: Iterable[str], present: np.ndarray, *grids: np.ndarray):
        self.calendar = calendar
        self.fence: Date | None = None
        self.rows = {key: i for i, key in enumerate(ids)}
        shape = (len(self.rows) + 1, len(calendar))
        if any(grid.shape != shape for grid in (present, *grids)):
            raise ValueError(f"{self.data} grids must be {shape[0]} x {shape[1]}: one row per id and one empty")
        self.present = present

    def row(self, key: str) -> int:
        return self.rows.get(key, -1)

    def rows_of(self, keys: Iterable[str]) -> np.ndarray:
        get = self.rows.get
        return np.array([get(key, -1) for key in keys], dtype=np.intp)

    def has(self, rows, days: np.ndarray) -> np.ndarray:
        """Whether each (row, day) cell holds a value; a day off the calendar holds none."""
        inside = (days >= 0) & (days < self.present.shape[1])
        return inside & self.take(self.present, rows, days)

    def take(self, grid: np.ndarray, rows, days: np.ndarray) -> np.ndarray:
        """``grid`` at each (row, day), with days clipped onto the calendar."""
        return grid[rows, np.minimum(np.maximum(days, 0), self.present.shape[1] - 1)]

    def fence_position(self) -> int:
        """Calendar position of the fence: reads of earlier days cross it."""
        return 0 if self.fence is None else int(self.calendar.locate(self.fence.toordinal()))

    def fence_error(self, day: int) -> DataError:
        return DataError(
            f"read of {self.data} data on {self.calendar.dates[day]} crosses the fence at {self.fence}"
        )


@dataclass(frozen=True, eq=False)
class BarGrid:
    """Bars as (stock x trading-day) grids with one last, empty row (module
    docstring, Layout); ``len()`` counts the bars."""

    ids: list[str]
    present: np.ndarray
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray

    def __len__(self) -> int:
        return int(np.count_nonzero(self.present))


class BarStore(_DayGrid):
    """Raw open/high/low/close/volume per (stock, trading day), holding the
    arrays of a ``BarGrid`` laid out on ``calendar``."""

    def __init__(self, bars: BarGrid, calendar: TradingCalendar):
        prices = (bars.open, bars.high, bars.low, bars.close, bars.volume)
        super().__init__(calendar, bars.ids, bars.present, *prices)
        self.open, self.high, self.low, self.close, self.volume = prices
        # Running sums along each row: absent cells hold 0.0 and adding
        # 0.0 leaves a sum's bits alone, so a window's sum is the one the
        # stock's own bars give (NaN-filled cells would poison it).
        # Column j sums the days before j.
        self.volume_sums = np.zeros((self.present.shape[0], self.present.shape[1] + 1))
        np.cumsum(self.volume, axis=1, out=self.volume_sums[:, 1:])
        self.bar_counts = np.zeros(self.volume_sums.shape, dtype=np.int32)
        np.cumsum(self.present, axis=1, out=self.bar_counts[:, 1:])


@dataclass(frozen=True, eq=False)
class IndexGrid:
    """Index levels as a dense (index x trading-day) array, laid out as a
    ``BarGrid``."""

    ids: list[str]
    present: np.ndarray
    levels: np.ndarray


class IndexStore(_DayGrid):
    """Index levels per (index, trading day), holding the arrays of an
    ``IndexGrid`` laid out on ``calendar``."""

    data = "index"

    def __init__(self, levels: IndexGrid, calendar: TradingCalendar):
        super().__init__(calendar, levels.ids, levels.present, levels.levels)
        self.levels = levels.levels


class IndustryMap:
    """stock_id -> (industry index, sector name)."""

    def __init__(self, rows: Iterable[tuple[str, str, str]]):
        self._map: dict[str, tuple[str, str]] = {}
        for stock_id, index_id, sector in rows:
            self._map[stock_id] = (index_id, sector)

    def sector(self, stock_id: str) -> str:
        try:
            sector = self._map[stock_id][1]
        except KeyError:
            raise MappingError(f"no industry mapping for stock {stock_id}")
        return sector if sector else "Other"


@dataclass
class MarketData:
    """Bundle of all market-side stores sharing one calendar.

    ``industry_rows`` gives, per bar-store row, the index-store row of the
    stock's industry index (-1 when the stock is unmapped or the index
    unknown) and ``mapped`` whether the stock has an industry row.
    """

    calendar: TradingCalendar
    bars: BarStore
    indices: IndexStore
    industry: IndustryMap
    industry_rows: np.ndarray = field(init=False, repr=False)
    mapped: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        links = [self.industry._map.get(stock_id) for stock_id in self.bars.rows] + [None]
        self.mapped = np.array([link is not None for link in links])
        self.industry_rows = np.array(
            [-1 if link is None else self.indices.row(link[0]) for link in links], dtype=np.intp
        )

    def set_fence(self, fence: Date | None) -> None:
        self.bars.fence = fence
        self.indices.fence = fence


def load_calendar(path) -> TradingCalendar:
    dates = []
    for line in read_lines(path):
        try:
            dates.append(Date.fromisoformat(line))
        except ValueError:
            raise DataError(f"calendar file {path}: unparseable date {line!r}")
    return TradingCalendar(dates)


@dataclass
class MarketLoadResult:
    market: MarketData
    bar_rejects: list[RowReject]
    index_rejects: list[RowReject]
    n_bars: int
    n_index_rows: int


def _parse_error(row: list[str]) -> str | None:
    """Why a bar row does not read on its own (its width, or a field that
    does not parse), or None when it reads."""
    if len(row) != len(BARS_HEADER):
        return f"expected {len(BARS_HEADER)} fields, got {len(row)}"
    try:
        Date.fromisoformat(row[1].strip())
        for text in row[2:]:
            float(text)
    except ValueError as exc:
        return f"unparseable bar row: {exc}"
    return None


class _BarReader:
    """Reads bars.csv a block of rows at a time into columns.

    A block converts each price column with ``np.array(column, dtype=float)``,
    which calls ``float()`` on every string, and each date text once, then
    rejects the rows that break a bar rule. A block with a row of the wrong
    width or a field that does not parse first runs ``_parse_error`` on
    every row and converts only the rows that read.
    """

    def __init__(self):
        self.stock_codes: dict[str, int] = {}
        self.date_codes: dict[str, int] = {}  # raw date text -> day code
        self.day_codes: dict[Date, int] = {}
        self.rejects: list[RowReject] = []
        # (line numbers, stock codes, date codes, *prices) of accepted rows
        self.blocks: list[tuple] = [(np.zeros(0, dtype=np.intp),) * 3 + (np.zeros(0),) * 5]

    def read(self, path) -> None:
        rows = read_csv_rows(path, BARS_HEADER)
        while block := list(islice(rows, BAR_BLOCK_ROWS)):
            try:
                self._block(block)
            except ValueError:
                self._block(self._parsed(block))
        self.rejects.sort(key=lambda reject: reject.line)

    def _parsed(self, block: list[tuple[int, list[str]]]) -> list[tuple[int, list[str]]]:
        """The rows of ``block`` that read on their own; the others become
        rejects."""
        survivors = []
        for line_no, row in block:
            reason = _parse_error(row)
            if reason is not None:
                self.rejects.append(RowReject(line_no, reason))
            else:
                survivors.append((line_no, row))
        return survivors

    def _codes(self, codes: dict, texts, new_code) -> np.ndarray:
        """Code of each text in ``codes``; ``new_code(text)`` makes the
        missing ones, once per distinct text."""
        for text in dict.fromkeys(texts):
            if text not in codes:
                codes[text] = new_code(text)
        return np.fromiter(map(codes.__getitem__, texts), np.intp, len(texts))

    def _day_code(self, text: str) -> int:
        return self.day_codes.setdefault(Date.fromisoformat(text.strip()), len(self.day_codes))

    def _block(self, block: list[tuple[int, list[str]]]) -> None:
        """Convert and check a block; raises ValueError when a row has the
        wrong width or a field does not parse."""
        if not block:
            return
        line_nos, rows = zip(*block)
        if set(map(len, rows)) != {len(BARS_HEADER)}:
            raise ValueError("a row of the wrong width")
        columns = list(zip(*rows))
        prices = [np.array(column, dtype=float) for column in columns[2:]]
        dates = self._codes(self.date_codes, columns[1], self._day_code)
        stock_ids = list(map(str.strip, columns[0]))
        stocks = self._codes(self.stock_codes, stock_ids, lambda _: len(self.stock_codes))
        o, h, l, c, v = prices
        # The bar rules, each a mask over the block, in the order they are
        # tried: a row that breaks several is rejected for the first.
        rules = {
            "empty stock_id": np.fromiter(map(operator.not_, stock_ids), bool, len(stock_ids)),
            "non-positive or non-finite price": np.logical_or.reduce(
                [~np.isfinite(p) | (p <= 0.0) for p in (o, h, l, c)]
            ),
            "negative or non-finite volume": ~np.isfinite(v) | (v < 0.0),
            "high/low do not bracket open/close": (h < o) | (h < c) | (l > o) | (l > c),
        }
        reasons = np.select(list(rules.values()), list(rules), "")
        keep = reasons == ""
        line_nos = np.array(line_nos)
        self.rejects += map(RowReject, line_nos[~keep].tolist(), reasons[~keep].tolist())
        self.blocks.append((line_nos[keep], stocks[keep], dates[keep], *(p[keep] for p in prices)))

    def columns(self) -> tuple[np.ndarray, ...]:
        """Line numbers, stock codes, date codes and the five prices of every
        accepted row, in line order."""
        return tuple(np.concatenate(part) for part in zip(*self.blocks))


def _scatter(ids: list[str], calendar: TradingCalendar, rows, days, *columns: np.ndarray) -> list:
    """The fields of a ``BarGrid`` or ``IndexGrid``: ``ids``, the ``present``
    mask of the (row, day) cells, and one grid per column of their values."""
    shape = (len(ids) + 1, len(calendar))
    grids = [np.zeros(shape, dtype=bool)] + [np.zeros(shape) for _ in columns]
    for grid, values in zip(grids, (True, *columns)):
        grid[rows, days] = values
    return [ids, *grids]


def load_market(
    bars_path,
    indices_path,
    industry_path,
    calendar_path=None,
    infer_calendar: bool = False,
) -> MarketLoadResult:
    """Load all market files and assemble a MarketData bundle.

    The calendar comes either from ``calendar_path`` or, with
    ``infer_calendar``, from the union of bar dates. Invalid bar/index
    rows are rejected row by row and reported; structural problems
    (missing files, bad headers, no calendar source) are fatal.
    """
    if calendar_path is None and not infer_calendar:
        raise ConfigurationError("no calendar file given and calendar inference disabled")

    reader = _BarReader()
    reader.read(bars_path)
    line_nos, stocks, date_codes, *prices = reader.columns()
    dates = list(reader.day_codes)

    if calendar_path is not None:
        calendar = load_calendar(calendar_path)
    else:
        calendar = TradingCalendar(sorted(dates[code] for code in np.unique(date_codes).tolist()))

    # Calendar checks and duplicates come after every parse/check reject,
    # each in line order; the first bar of a (stock, day) wins.
    days = calendar.positions(np.array([d.toordinal() for d in dates], dtype=np.int64))[date_codes]
    off_calendar = days < 0
    cell = np.where(off_calendar, -1, stocks * len(calendar) + days)
    duplicate = ~off_calendar
    duplicate[np.unique(cell, return_index=True)[1]] = False
    ids = list(reader.stock_codes)
    bar_rejects = reader.rejects
    for i in np.flatnonzero(off_calendar | duplicate).tolist():
        d = dates[date_codes[i]]
        reason = f"{d} is not a trading day" if off_calendar[i] else f"duplicate bar for {ids[stocks[i]]} on {d}"
        bar_rejects.append(RowReject(int(line_nos[i]), reason))
    keep = ~(off_calendar | duplicate)
    bars = BarGrid(*_scatter(ids, calendar, stocks[keep], days[keep], *(column[keep] for column in prices)))

    # each accepted index row's id, day ordinal and level
    index_ids: list[str] = []
    index_ordinals: list[int] = []
    levels: list[float] = []
    index_rejects: list[RowReject] = []
    seen_index: set[tuple[str, Date]] = set()
    for line_no, row in read_csv_rows(indices_path, INDICES_HEADER):
        if len(row) != len(INDICES_HEADER):
            index_rejects.append(RowReject(line_no, f"expected 3 fields, got {len(row)}"))
            continue
        index_id = row[0].strip()
        try:
            d = Date.fromisoformat(row[1].strip())
            level = float(row[2])
        except ValueError as exc:
            index_rejects.append(RowReject(line_no, f"unparseable index row: {exc}"))
            continue
        if not index_id:
            index_rejects.append(RowReject(line_no, "empty index_id"))
            continue
        if not math.isfinite(level) or (index_id != VIX and level <= 0.0):
            index_rejects.append(RowReject(line_no, f"invalid level {row[2]} for {index_id}"))
            continue
        key = (index_id, d)
        if key in seen_index:
            index_rejects.append(RowReject(line_no, f"duplicate level for {index_id} on {d}"))
            continue
        seen_index.add(key)
        index_ids.append(index_id)
        index_ordinals.append(d.toordinal())
        levels.append(level)
    # Levels dated off the calendar are never read: they are dropped, not
    # rejected, and an index keeps a row only with a level on the calendar.
    index_days = calendar.positions(np.array(index_ordinals, dtype=np.int64))
    kept = np.flatnonzero(index_days >= 0)
    index_codes: dict[str, int] = {}
    indices = np.array([index_codes.setdefault(index_ids[i], len(index_codes)) for i in kept.tolist()], dtype=np.intp)
    index_levels = IndexGrid(*_scatter(list(index_codes), calendar, indices, index_days[kept], np.array(levels)[kept]))

    industry_rows: list[tuple[str, str, str]] = []
    mapped: set[str] = set()
    for line_no, row in read_csv_rows(industry_path, INDUSTRY_HEADER):
        if len(row) != len(INDUSTRY_HEADER):
            raise SchemaError(f"{industry_path} line {line_no}: expected 3 fields, got {len(row)}")
        stock_id, index_id = row[0].strip(), row[1].strip()
        if stock_id in mapped:
            raise DataError(f"{industry_path} line {line_no}: second industry row for {stock_id}")
        if index_id == VIX:
            # The fear gauge is quoted in points and may go non-positive,
            # so it has no log return to measure a stock against.
            raise DataError(f"{industry_path} line {line_no}: {stock_id} maps to {VIX}, not an industry index")
        mapped.add(stock_id)
        industry_rows.append((stock_id, index_id, row[2].strip()))

    market = MarketData(
        calendar=calendar,
        bars=BarStore(bars, calendar),
        indices=IndexStore(index_levels, calendar),
        industry=IndustryMap(industry_rows),
    )
    return MarketLoadResult(market, bar_rejects, index_rejects, len(bars), len(index_ids))


SNAPSHOT = "market.npz"
MANIFEST = "market.json"
SNAPSHOT_FORMAT = 2
HASH_CHUNK = 1 << 20  # bytes of a file hashed at a time


def _sha256(path, extra: bytes = b"") -> str:
    """sha256 of a file's bytes followed by ``extra``."""
    with open(path, "rb") as stream:
        return _digest(stream, extra)


def _digest(stream, extra: bytes = b"") -> str:
    """sha256 of the rest of an open binary file, a chunk at a time, then ``extra``."""
    digest = hashlib.sha256()
    while chunk := stream.read(HASH_CHUNK):
        digest.update(chunk)
    digest.update(extra)
    return digest.hexdigest()


def _snapshot_key(bars_path, indices_path, industry_path, calendar_path=None, infer_calendar=False) -> dict:
    """What a loaded market depends on: the market files, how the calendar
    is found, and the code that parses and checks them."""
    return {
        "format_version": SNAPSHOT_FORMAT,
        "bars": _sha256(bars_path),
        "indices": _sha256(indices_path),
        "industry": _sha256(industry_path),
        "calendar": None if calendar_path is None else _sha256(calendar_path),
        "infer_calendar": infer_calendar,
        # this module and the corpus readers the market files pass through
        "code": _sha256(__file__, "".join(map(inspect.getsource, (open_input, read_csv_rows, read_lines))).encode()),
    }


def write_snapshot(market: MarketData, out_dir, **files) -> None:
    """Save ``market``, just loaded by ``load_market(**files)``, in
    ``out_dir``: the npz first, moved into place whole, then the manifest."""
    out_dir, bars, indices = Path(out_dir), market.bars, market.indices
    # Strings travel as JSON text, since numpy's string arrays drop trailing NULs.
    industry_rows = [(stock_id, *link) for stock_id, link in market.industry._map.items()]
    names = json.dumps([list(bars.rows), list(indices.rows), industry_rows]).encode("utf-8")
    with open(out_dir / (SNAPSHOT + ".tmp"), "wb") as stream:
        np.savez(
            stream,
            calendar=market.calendar.ordinals,
            names=np.frombuffer(names, np.uint8),
            bar_present=bars.present,
            **{name: getattr(bars, name) for name in BARS_HEADER[2:]},
            index_present=indices.present,
            levels=indices.levels,
        )
    os.replace(stream.name, out_dir / SNAPSHOT)
    manifest = _snapshot_key(**files) | {"npz": _sha256(out_dir / SNAPSHOT)}
    (out_dir / MANIFEST).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _snapshot_market(stream) -> MarketData:
    with np.load(stream, allow_pickle=False) as data:
        bar_ids, index_ids, industry_rows = json.loads(data["names"].tobytes())
        calendar = TradingCalendar(map(Date.fromordinal, data["calendar"].tolist()))
        bars = BarGrid(bar_ids, data["bar_present"], *(data[name] for name in BARS_HEADER[2:]))
        levels = IndexGrid(index_ids, data["index_present"], data["levels"])
        return MarketData(calendar, BarStore(bars, calendar), IndexStore(levels, calendar), IndustryMap(industry_rows))


def read_snapshot(out_dir, **files) -> tuple[MarketData | None, str]:
    """The market that ``load_market(**files)`` would give, from the
    snapshot in ``out_dir``, or None when it has none for today's files and
    code; and where the market comes from: "snapshot", or why the files
    are to be parsed ("csv: ...").

    The npz is hashed and then loaded through one open file, never held
    whole. The bytes loaded are the bytes hashed: ``write_snapshot`` moves
    a new npz into place (``os.replace``) and never writes into an old one.
    """
    out_dir = Path(out_dir)
    try:
        manifest = json.loads((out_dir / MANIFEST).read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None, "csv: no snapshot"
    except (OSError, ValueError):
        manifest = None
    try:
        if isinstance(manifest, dict):
            changed = [name for name, value in _snapshot_key(**files).items() if manifest.get(name) != value]
            if changed:
                return None, f"csv: stale snapshot ({', '.join(changed)})"
            with open(out_dir / SNAPSHOT, "rb") as stream:
                if _digest(stream) == manifest.get("npz"):
                    stream.seek(0)
                    return _snapshot_market(stream), "snapshot"
    except (OSError, ValueError, KeyError, zipfile.BadZipFile):
        pass
    return None, "csv: unreadable snapshot"
