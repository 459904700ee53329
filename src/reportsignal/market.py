"""Daily market data: trading calendar, per-stock OHLCV bars, index levels,
and industry membership.

File formats (CSV with header, except the calendar; files are opened and
framed by ``corpus.read_csv_rows`` and ``corpus.read_lines``, which also
handle a leading byte-order mark):

    bars:     stock_id,date,open,high,low,close,volume
    indices:  index_id,date,level
    industry: stock_id,industry_index_id,sector_name
    calendar: one ISO date per line, ascending; '#' lines are comments

Stores are immutable after loading. Each store accepts an optional
``fence`` date; once set, any read of an observation dated before the
fence raises, which is how the analysis stage proves it never touches
pre-test history beyond its declared lookback.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from datetime import date as Date, timedelta
from typing import Iterable, NamedTuple

import numpy as np

from .corpus import RowReject, read_csv_rows, read_lines
from .errors import (
    CalendarRangeError,
    ConfigurationError,
    DataError,
    GapError,
    HistoryError,
    MappingError,
    SchemaError,
)

SSE = "SSE"
SZSE = "SZSE"
CSI500 = "CSI500"
VIX = "VIX"

BARS_HEADER = ("stock_id", "date", "open", "high", "low", "close", "volume")
INDICES_HEADER = ("index_id", "date", "level")
INDUSTRY_HEADER = ("stock_id", "industry_index_id", "sector_name")


class DailyBar(NamedTuple):
    """One stock-day OHLCV observation, an immutable NamedTuple.

    Prices must be positive, volume non-negative, and the high/low must
    bracket both open and close.
    """

    stock_id: str
    date: Date
    open: float
    high: float
    low: float
    close: float
    volume: float

    def check(self) -> str | None:
        """Return a reason string if the bar violates its invariants, else None."""
        prices = (self.open, self.high, self.low, self.close)
        if any(not math.isfinite(p) for p in prices) or min(prices) <= 0.0:
            return "non-positive or non-finite price"
        if not math.isfinite(self.volume) or self.volume < 0.0:
            return "negative or non-finite volume"
        if self.high < max(self.open, self.close) or self.low > min(self.open, self.close):
            return "high/low do not bracket open/close"
        return None


class TradingCalendar:
    """Ascending list of trading days with O(1) date->position lookup."""

    def __init__(self, dates: Iterable[Date]):
        ds = list(dates)
        if not ds:
            raise DataError("trading calendar is empty")
        for a, b in zip(ds, ds[1:]):
            if a >= b:
                raise DataError(f"calendar dates not strictly increasing at {a} -> {b}")
        self.dates: tuple[Date, ...] = tuple(ds)
        self._pos = {d: i for i, d in enumerate(self.dates)}

    def __len__(self) -> int:
        return len(self.dates)

    def __contains__(self, d: Date) -> bool:
        return d in self._pos

    def first(self) -> Date:
        return self.dates[0]

    def last(self) -> Date:
        return self.dates[-1]

    def index(self, d: Date) -> int:
        try:
            return self._pos[d]
        except KeyError:
            raise CalendarRangeError(f"{d} is not a trading day on this calendar")

    def shift(self, d: Date, offset: int) -> Date:
        """Trading day ``offset`` steps from trading day ``d`` (negative = back)."""
        i = self.index(d) + offset
        if not (0 <= i < len(self.dates)):
            raise CalendarRangeError(
                f"shift of {d} by {offset} trading days leaves the calendar"
            )
        return self.dates[i]

    def next(self, d: Date) -> Date:
        """First trading day strictly after ``d`` (d need not be a trading day)."""
        i = bisect_right(self.dates, d)
        if i == len(self.dates):
            raise CalendarRangeError(f"no trading day after {d} on this calendar")
        return self.dates[i]

    def align(self, d: Date) -> Date:
        """Map an arbitrary date onto the calendar: d itself when it is a
        trading day, otherwise the next one."""
        return d if d in self._pos else self.next(d)

    def require_coverage(
        self,
        first_event: Date,
        last_event: Date,
        lookback_days: int = 90,
        post_trading_days: int = 1,
    ) -> None:
        """Fail unless the calendar spans the event range plus margins.

        The calendar must start at least ``lookback_days`` calendar days
        before the first event and contain ``post_trading_days`` trading
        days after the last event's release trading day.
        """
        need_start = first_event - timedelta(days=lookback_days)
        if self.first() > need_start:
            raise ConfigurationError(
                f"calendar starts {self.first()}, but needs to start on or before "
                f"{need_start} ({lookback_days} days before first event {first_event})"
            )
        try:
            anchor = self.align(last_event)
            self.shift(anchor, post_trading_days)
        except CalendarRangeError:
            raise ConfigurationError(
                f"calendar ends {self.last()}, too early for event {last_event} "
                f"plus {post_trading_days} trading day(s)"
            )


class _StockSeries:
    """Column arrays for one stock, positions aligned with its bar dates."""

    __slots__ = ("dates", "calpos", "open", "high", "low", "close", "volume", "vol_prefix", "pos")

    def __init__(self, bars: list[DailyBar], calendar: TradingCalendar):
        bars.sort(key=lambda b: b.date)
        self.dates = [b.date for b in bars]
        self.pos = {d: i for i, d in enumerate(self.dates)}
        self.calpos = np.array([calendar.index(d) for d in self.dates], dtype=np.int64)
        self.open = np.array([b.open for b in bars])
        self.high = np.array([b.high for b in bars])
        self.low = np.array([b.low for b in bars])
        self.close = np.array([b.close for b in bars])
        self.volume = np.array([b.volume for b in bars])
        # Prefix sums make any mean-volume window a two-element difference.
        self.vol_prefix = np.concatenate(([0.0], np.cumsum(self.volume)))


class BarStore:
    """Per-stock daily bars with gap-aware series lookups."""

    def __init__(self, bars: Iterable[DailyBar], calendar: TradingCalendar):
        self.calendar = calendar
        self.fence: Date | None = None
        grouped: dict[str, list[DailyBar]] = {}
        for bar in bars:
            grouped.setdefault(bar.stock_id, []).append(bar)
        self._series = {sid: _StockSeries(blist, calendar) for sid, blist in grouped.items()}

    def _fence_check(self, earliest: Date) -> None:
        if self.fence is not None and earliest < self.fence:
            raise DataError(
                f"read of market data on {earliest} crosses the fence at {self.fence}"
            )

    def _series_for(self, stock_id: str) -> _StockSeries:
        series = self._series.get(stock_id)
        if series is None:
            raise GapError(stock_id, None, f"no bars at all for stock {stock_id}")
        return series

    def bar(self, stock_id: str, d: Date) -> DailyBar:
        self._fence_check(d)
        series = self._series_for(stock_id)
        i = series.pos.get(d)
        if i is None:
            raise GapError(stock_id, d)
        return DailyBar(
            stock_id,
            d,
            float(series.open[i]),
            float(series.high[i]),
            float(series.low[i]),
            float(series.close[i]),
            float(series.volume[i]),
        )

    def close_log_return(self, stock_id: str, d: Date) -> float:
        """ln(close_d / close_prev) where prev is the previous trading day.

        Raises GapError when either bar is missing, i.e. the stock's bar
        on the trading day immediately before ``d`` must exist.
        """
        series = self._series_for(stock_id)
        i = series.pos.get(d)
        if i is None:
            raise GapError(stock_id, d)
        prev = self.calendar.shift(d, -1)  # raises if d opens the calendar
        if i == 0 or series.calpos[i - 1] != series.calpos[i] - 1:
            raise GapError(stock_id, prev)
        self._fence_check(series.dates[i - 1])
        return math.log(series.close[i] / series.close[i - 1])

    def volume(self, stock_id: str, d: Date) -> float:
        self._fence_check(d)
        series = self._series_for(stock_id)
        i = series.pos.get(d)
        if i is None:
            raise GapError(stock_id, d)
        return float(series.volume[i])

    def mean_volume_before(self, stock_id: str, d: Date, window: int) -> float:
        """Mean volume over the ``window`` trading days strictly before ``d``.

        The window must be complete: the stock needs a bar on every one
        of those trading days, otherwise HistoryError is raised.
        """
        series = self._series_for(stock_id)
        i = series.pos.get(d)
        if i is None:
            raise GapError(stock_id, d)
        if i < window or series.calpos[i - window] != series.calpos[i] - window:
            raise HistoryError(
                f"{stock_id}: fewer than {window} consecutive bars before {d}"
            )
        self._fence_check(series.dates[i - window])
        total = float(series.vol_prefix[i] - series.vol_prefix[i - window])
        return total / window


class IndexStore:
    """Dated level series for market/industry indices and the fear gauge."""

    def __init__(self, rows: Iterable[tuple[str, Date, float]], calendar: TradingCalendar):
        self.calendar = calendar
        self.fence: Date | None = None
        self._levels: dict[str, dict[Date, float]] = {}
        for index_id, d, level in rows:
            self._levels.setdefault(index_id, {})[d] = level

    def __contains__(self, index_id: str) -> bool:
        return index_id in self._levels

    def _fence_check(self, earliest: Date) -> None:
        if self.fence is not None and earliest < self.fence:
            raise DataError(
                f"read of index data on {earliest} crosses the fence at {self.fence}"
            )

    def level(self, index_id: str, d: Date) -> float:
        self._fence_check(d)
        series = self._levels.get(index_id)
        if series is None:
            raise GapError(index_id, None, f"unknown index {index_id}")
        level = series.get(d)
        if level is None:
            raise GapError(index_id, d)
        return level

    def log_return(self, index_id: str, d: Date) -> float:
        """ln(level_d / level_prev) over the previous trading day."""
        return self.change(index_id, d, "logdiff")

    def change(self, index_id: str, d: Date, mode: str = "diff") -> float:
        """Day-over-day change of a level series.

        mode 'diff' is the arithmetic first difference, 'logdiff' the log
        difference; indices quoted in points (the fear gauge) default to
        'diff'.
        """
        prev = self.calendar.shift(d, -1)
        a = self.level(index_id, prev)
        b = self.level(index_id, d)
        if mode == "diff":
            return b - a
        if mode == "logdiff":
            return math.log(b / a)
        raise ConfigurationError(f"unknown change mode {mode!r}")


class IndustryMap:
    """stock_id -> (industry index, sector name)."""

    def __init__(self, rows: Iterable[tuple[str, str, str]]):
        self._map: dict[str, tuple[str, str]] = {}
        for stock_id, index_id, sector in rows:
            self._map[stock_id] = (index_id, sector)

    def __contains__(self, stock_id: str) -> bool:
        return stock_id in self._map

    def __len__(self) -> int:
        return len(self._map)

    def industry_index(self, stock_id: str) -> str:
        try:
            return self._map[stock_id][0]
        except KeyError:
            raise MappingError(f"no industry mapping for stock {stock_id}")

    def sector(self, stock_id: str) -> str:
        try:
            sector = self._map[stock_id][1]
        except KeyError:
            raise MappingError(f"no industry mapping for stock {stock_id}")
        return sector if sector else "Other"


@dataclass
class MarketData:
    """Bundle of all market-side stores sharing one calendar."""

    calendar: TradingCalendar
    bars: BarStore
    indices: IndexStore
    industry: IndustryMap

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

    raw_bars: list[tuple[int, DailyBar]] = []
    bar_rejects: list[RowReject] = []
    for line_no, row in read_csv_rows(bars_path, BARS_HEADER):
        if len(row) != len(BARS_HEADER):
            bar_rejects.append(RowReject(line_no, f"expected {len(BARS_HEADER)} fields, got {len(row)}"))
            continue
        try:
            bar = DailyBar(
                row[0].strip(),
                Date.fromisoformat(row[1].strip()),
                float(row[2]),
                float(row[3]),
                float(row[4]),
                float(row[5]),
                float(row[6]),
            )
        except ValueError as exc:
            bar_rejects.append(RowReject(line_no, f"unparseable bar row: {exc}"))
            continue
        if not bar.stock_id:
            bar_rejects.append(RowReject(line_no, "empty stock_id"))
            continue
        problem = bar.check()
        if problem is not None:
            bar_rejects.append(RowReject(line_no, problem))
            continue
        raw_bars.append((line_no, bar))

    if calendar_path is not None:
        calendar = load_calendar(calendar_path)
    else:
        dates = sorted({bar.date for _, bar in raw_bars})
        calendar = TradingCalendar(dates)

    bars: list[DailyBar] = []
    seen_bar: set[tuple[str, Date]] = set()
    for line_no, bar in raw_bars:
        if bar.date not in calendar:
            bar_rejects.append(RowReject(line_no, f"{bar.date} is not a trading day"))
            continue
        key = (bar.stock_id, bar.date)
        if key in seen_bar:
            bar_rejects.append(RowReject(line_no, f"duplicate bar for {bar.stock_id} on {bar.date}"))
            continue
        seen_bar.add(key)
        bars.append(bar)

    index_rows: list[tuple[str, Date, float]] = []
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
        index_rows.append((index_id, d, level))

    industry_rows: list[tuple[str, str, str]] = []
    mapped: set[str] = set()
    for line_no, row in read_csv_rows(industry_path, INDUSTRY_HEADER):
        if len(row) != len(INDUSTRY_HEADER):
            raise SchemaError(f"{industry_path} line {line_no}: expected 3 fields, got {len(row)}")
        stock_id = row[0].strip()
        if stock_id in mapped:
            raise DataError(f"{industry_path} line {line_no}: second industry row for {stock_id}")
        mapped.add(stock_id)
        industry_rows.append((stock_id, row[1].strip(), row[2].strip()))

    market = MarketData(
        calendar=calendar,
        bars=BarStore(bars, calendar),
        indices=IndexStore(index_rows, calendar),
        industry=IndustryMap(industry_rows),
    )
    return MarketLoadResult(market, bar_rejects, index_rejects, len(bars), len(index_rows))
