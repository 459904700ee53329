"""The row-at-a-time market layer that the dense (stock x trading-day)
stores, the gather kernels and the columnar panel replaced, kept verbatim
as the reference their results must match: the ``TradingCalendar`` with
its date-keyed ``index``, ``shift`` and ``align`` and their
``CalendarRangeError`` (``load_calendar`` reads the package's calendar
file into it), the ``DailyBar`` value with
its scalar bar rules (``check``), the bar loader, the per-stock series
store, the index store, the scalar ``garman_klass`` formula and the four
metric functions, the bisect ``CorpusIndex`` and the scalar
``recommendation_counts``, the ``PanelRow`` value with its row checks and
the ``MajoritySample`` value, the panel and majority build functions, and
the label-pool loop of ``cli.cmd_label``. They run on ``ReportRecord``
values, one per report, the corpus form that ``corpus.ReportColumns``
replaced; ``records_of`` and ``columns_of`` convert between the two. Also
the one-pass ``write_panel`` of an ``econometrics.PanelBuildResult``,
which the block writer replaced.

Two deliberate changes from the old code: ``build_majority_samples`` counts
"no tokens" once per (report, stock) pair, not once per report, so its
pairs equal samples plus drops; and it takes each report's (positive,
neutral, negative) lexicon hits, as the majority rule does, instead of its
tokens and the lexicon.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import date as Date, timedelta
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from reportsignal.corpus import ReportColumns, RowReject, TextColumn, read_csv_rows, write_csv_rows
from reportsignal.econometrics import NUM_SCALE, PANEL_HEADER, RANGE_SCALE
from reportsignal import market
from reportsignal.errors import (
    ConfigurationError,
    DataError,
    DomainError,
    SchemaError,
)
from reportsignal.market import (
    BARS_HEADER,
    CSI500,
    INDICES_HEADER,
    INDUSTRY_HEADER,
    LONG_COUNT_WINDOW,
    SSE,
    SZSE,
    VIX,
    IndustryMap,
)
from reportsignal.metrics import SHORT_COUNT_WINDOW, VOLUME_WINDOW
from reportsignal.sentiment import SentimentScore, classify_majority


class CalendarRangeError(DataError):
    """A date falls outside the span of the trading calendar."""


class MappingError(DataError):
    """A stock has no industry mapping."""


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
        self.ordinals = np.array([d.toordinal() for d in ds], dtype=np.int64)
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

    def locate(self, days: np.ndarray) -> np.ndarray:
        """Position of ``align(d)`` for each day ordinal; ``len(self)`` where
        no trading day is on or after it."""
        return np.searchsorted(self.ordinals, days)

    def align(self, d: Date) -> Date:
        """Map an arbitrary date onto the calendar: d itself when it is a
        trading day, otherwise the next one."""
        i = int(self.locate(d.toordinal()))
        if i == len(self.dates):
            raise CalendarRangeError(f"no trading day after {d} on this calendar")
        return self.dates[i]

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


def load_calendar(path) -> TradingCalendar:
    """The calendar file read by the package, as this module's calendar."""
    return TradingCalendar(market.load_calendar(path).dates)


@dataclass(frozen=True)
class ReportRecord:
    """One analyst report as parsed from a corpus file."""

    report_id: str
    title: str
    abstract: str
    stock_codes: tuple[str, ...]
    release_date: Date


def records_of(reports: ReportColumns) -> list[ReportRecord]:
    """One ``ReportRecord`` per report of ``reports``, in order."""
    codes = [reports.stocks[stock] for stock in reports.cited.tolist()]
    bounds = reports.offsets.tolist()
    return [
        ReportRecord(report_id, title, abstract, tuple(codes[lo:hi]), Date.fromordinal(day))
        for report_id, title, abstract, lo, hi, day in zip(
            reports.ids, reports.titles, reports.abstracts, bounds, bounds[1:], reports.days.tolist()
        )
    ]


def columns_of(records: Iterable[ReportRecord]) -> ReportColumns:
    """The ``ReportColumns`` of ``records``, in order, with the cited codes
    in first-cited order as the stock table."""
    records = list(records)
    positions: dict[str, int] = {}
    cited = [positions.setdefault(code, len(positions)) for record in records for code in record.stock_codes]
    return ReportColumns(
        TextColumn.pack(record.report_id for record in records),
        TextColumn.pack(record.title for record in records),
        TextColumn.pack(record.abstract for record in records),
        np.array([record.release_date.toordinal() for record in records], dtype=np.int64),
        list(positions),
        np.array(cited, dtype=np.intp),
        np.cumsum([0] + [len(record.stock_codes) for record in records], dtype=np.int64),
    )


class CorpusIndex:
    """Per-stock sorted release dates, for counting reports in date windows."""

    def __init__(self, records: Iterable[ReportRecord]):
        by_stock: dict[str, list[Date]] = {}
        n = 0
        for record in records:
            n += 1
            for sid in record.stock_codes:
                by_stock.setdefault(sid, []).append(record.release_date)
        for dates in by_stock.values():
            dates.sort()
        self._dates = by_stock
        self.n_records = n

    def count_between(self, stock_id: str, first: Date, last: Date) -> int:
        """Number of reports citing ``stock_id`` with release date in [first, last]."""
        if first > last:
            return 0
        dates = self._dates.get(stock_id)
        if not dates:
            return 0
        return bisect_right(dates, last) - bisect_left(dates, first)


def recommendation_counts(
    index: CorpusIndex,
    stock_id: str,
    d: Date,
    short_window: int = SHORT_COUNT_WINDOW,
    long_window: int = LONG_COUNT_WINDOW,
) -> tuple[int, int]:
    """Report counts for a stock over trailing calendar-day windows.

    Returns (short, long) counts of reports released within
    [d - short_window, d - 1] and [d - long_window, d - 1], inclusive on
    both ends; day ``d`` itself is excluded.
    """
    yesterday = d - timedelta(days=1)
    short = index.count_between(stock_id, d - timedelta(days=short_window), yesterday)
    long = index.count_between(stock_id, d - timedelta(days=long_window), yesterday)
    return short, long



@dataclass(frozen=True)
class PanelRow:
    """One (report, stock) regression observation.

    Lagged fields are measured on the release trading day, outcome fields
    on the following trading day; range values are scaled by 100 and the
    citation counts by 1/100.
    """

    report_id: str
    stock_id: str
    outcome_date: Date
    pos_lag: float
    neg_lag: float
    range_lag: float
    retex_lag: float
    dvol_lag: float
    outcome_range: float
    outcome_retex: float
    outcome_dvol: float
    szse_lag: float
    sse_lag: float
    csi500_lag: float
    vix_lag: float
    num90_lag: float
    num7_lag: float

    def __post_init__(self):
        if self.pos_lag + self.neg_lag > 1.0 + 1e-9:
            raise DataError(
                f"row {self.report_id}/{self.stock_id}: pos+neg = {self.pos_lag + self.neg_lag}"
            )
        for name, value in self.__dict__.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise DataError(f"row {self.report_id}/{self.stock_id}: {name} not finite")



@dataclass
class PanelBuildResult:
    rows: list[PanelRow]
    drops: dict[str, int]
    n_flagged_negative_range: int
    n_pairs: int

    @property
    def n_dropped(self) -> int:
        return sum(self.drops.values())



def write_panel(panel, path) -> None:
    """Write the panel as CSV, each float as its shortest round-trip ``repr``,
    formatted column by column as the rows are written."""
    columns = [panel.report_ids, panel.stock_ids, map(Date.isoformat, panel.outcome_dates)]
    columns += [map(repr, column) for column in panel.rows.T.tolist()]
    write_csv_rows(path, PANEL_HEADER, zip(*columns))



@dataclass(frozen=True)
class MajoritySample:
    """Release-day measurements for one (report, stock), with its
    majority-rule class; here t is the release trading day itself."""

    report_id: str
    stock_id: str
    majority_class: str
    ret_ex_t: float
    ret_ex_prev: float
    ret_ex_next: float
    ret_ex_3day: float
    dvolume: float
    range_x100: float

    def variable(self, name: str) -> float:
        return {
            "ret_ex[t]": self.ret_ex_t,
            "ret_ex[t-1]": self.ret_ex_prev,
            "ret_ex[t+1]": self.ret_ex_next,
            "ret_ex[3day]": self.ret_ex_3day,
            "dvolume": self.dvolume,
            "range": self.range_x100,
        }[name]



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


class GapError(DataError):
    """A required observation is missing from a series."""

    def __init__(self, series: str, date, message: str | None = None):
        self.series = series
        self.date = date
        super().__init__(message or f"missing observation for {series} on {date}")


class HistoryError(DataError):
    """Not enough lookback history to compute a windowed quantity."""


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


def garman_klass(o: float, h: float, l: float, c: float) -> float:
    """Range-based variance estimate from open, high, low and close prices.

    With u = ln(h/o), d = ln(l/o), cc = ln(c/o):

        0.511 (u - d)^2 - 0.019 (cc (u + d) - 2 u d) - 0.383 cc^2

    A flat bar (o = h = l = c) gives exactly 0.0. The estimator can go
    slightly negative on unusual bars; values are returned as-is and only
    flagged downstream. Prices must be positive.
    """
    u = math.log(h / o)
    d = math.log(l / o)
    cc = math.log(c / o)
    return 0.511 * (u - d) ** 2 - 0.019 * (cc * (u + d) - 2.0 * u * d) - 0.383 * cc**2


def garman_klass_range(bar: DailyBar) -> float:
    """Garman-Klass estimate for one bar; a non-positive price raises."""
    if min(bar.open, bar.high, bar.low, bar.close) <= 0.0:
        raise DomainError(f"non-positive price in bar {bar.stock_id} {bar.date}")
    return garman_klass(bar.open, bar.high, bar.low, bar.close)


def industry_index(industry: IndustryMap, stock_id: str) -> str:
    """The industry index ``stock_id`` maps to."""
    try:
        return industry._map[stock_id][0]
    except KeyError:
        raise MappingError(f"no industry mapping for stock {stock_id}")


def excess_return(market: MarketData, stock_id: str, d: Date) -> float:
    """Close-to-close log return of the stock minus its industry index."""
    r_stock = market.bars.close_log_return(stock_id, d)
    index_id = industry_index(market.industry, stock_id)
    r_industry = market.indices.log_return(index_id, d)
    return r_stock - r_industry


def delta_volume(market: MarketData, stock_id: str, d: Date, window: int = VOLUME_WINDOW) -> float:
    """ln(volume_d / mean volume over the ``window`` trading days before d).

    The window must be completely populated; a zero volume on day ``d``
    or a zero window mean has no defined log ratio and raises.
    """
    v = market.bars.volume(stock_id, d)
    mean = market.bars.mean_volume_before(stock_id, d, window)
    if v <= 0.0 or mean <= 0.0:
        raise DomainError(f"{stock_id} {d}: log volume ratio undefined (v={v}, mean={mean})")
    return math.log(v / mean)


def label_window_return(market: MarketData, stock_id: str, release_day: Date) -> float:
    """Mean excess return over the release trading day and its neighbours.

    ``release_day`` must be a trading day; the window is the three
    trading days {release_day - 1, release_day, release_day + 1}.
    """
    total = 0.0
    for offset in (-1, 0, 1):
        day = market.calendar.shift(release_day, offset)
        total += excess_return(market, stock_id, day)
    return total / 3.0


def build_panel(
    records: Iterable[ReportRecord],
    scores: Mapping[str, SentimentScore],
    market: MarketData,
    corpus_index: CorpusIndex,
    start: Date | None = None,
    end: Date | None = None,
    vix_mode: str = "diff",
) -> PanelBuildResult:
    """Assemble the regression panel from reports in [start, end].

    Every (report, cited stock) pair becomes one row; a report citing two
    stocks yields two rows sharing one score. Pairs missing any input —
    score, industry mapping, market observations, volume history — are
    dropped and tallied by reason, never imputed. An empty result is
    fatal.
    """
    calendar = market.calendar
    rows: list[PanelRow] = []
    drops: dict[str, int] = {}
    flagged = 0
    n_pairs = 0

    def drop(reason: str) -> None:
        drops[reason] = drops.get(reason, 0) + 1

    for record in records:
        if start is not None and record.release_date < start:
            continue
        if end is not None and record.release_date > end:
            continue
        score = scores.get(record.report_id)
        for stock_id in record.stock_codes:
            n_pairs += 1
            if score is None:
                drop("no score")
                continue
            try:
                s_day = calendar.align(record.release_date)
            except CalendarRangeError:
                drop("release date beyond calendar")
                continue
            try:
                t_day = calendar.shift(s_day, 1)
            except CalendarRangeError:
                drop("no outcome trading day")
                continue
            try:
                range_lag = garman_klass_range(market.bars.bar(stock_id, s_day))
                retex_lag = excess_return(market, stock_id, s_day)
                dvol_lag = delta_volume(market, stock_id, s_day)
                outcome_range = garman_klass_range(market.bars.bar(stock_id, t_day))
                outcome_retex = excess_return(market, stock_id, t_day)
                outcome_dvol = delta_volume(market, stock_id, t_day)
                szse = market.indices.log_return(SZSE, s_day)
                sse = market.indices.log_return(SSE, s_day)
                csi500 = market.indices.log_return(CSI500, s_day)
                vix = market.indices.change(VIX, s_day, vix_mode)
            except MappingError:
                drop("no industry mapping")
                continue
            except HistoryError:
                drop("insufficient history")
                continue
            except (GapError, CalendarRangeError):
                drop("missing market data")
                continue
            except DomainError:
                drop("volume domain")
                continue
            num7, num90 = recommendation_counts(corpus_index, stock_id, t_day)
            if range_lag < 0.0 or outcome_range < 0.0:
                flagged += 1
            rows.append(
                PanelRow(
                    report_id=record.report_id,
                    stock_id=stock_id,
                    outcome_date=t_day,
                    pos_lag=score.pos,
                    neg_lag=score.neg,
                    range_lag=range_lag * RANGE_SCALE,
                    retex_lag=retex_lag,
                    dvol_lag=dvol_lag,
                    outcome_range=outcome_range * RANGE_SCALE,
                    outcome_retex=outcome_retex,
                    outcome_dvol=outcome_dvol,
                    szse_lag=szse,
                    sse_lag=sse,
                    csi500_lag=csi500,
                    vix_lag=vix,
                    num90_lag=num90 * NUM_SCALE,
                    num7_lag=num7 * NUM_SCALE,
                )
            )
    return PanelBuildResult(rows, drops, flagged, n_pairs)


def build_majority_samples(
    records: Iterable[ReportRecord],
    hits_by_report: Mapping[str, tuple[int, int, int]],
    market: MarketData,
    start: Date | None = None,
    end: Date | None = None,
) -> tuple[list[MajoritySample], dict[str, int]]:
    """Join majority classes to release-day metrics for each (report, stock).

    ``hits_by_report`` holds the lexicon hits of the cleaned text; pairs with
    missing market data are dropped and tallied, like panel rows.
    """
    calendar = market.calendar
    samples: list[MajoritySample] = []
    drops: dict[str, int] = {}

    def drop(reason: str) -> None:
        drops[reason] = drops.get(reason, 0) + 1

    for record in records:
        if start is not None and record.release_date < start:
            continue
        if end is not None and record.release_date > end:
            continue
        hits = hits_by_report.get(record.report_id)
        if hits is None:
            for _stock_id in record.stock_codes:
                drop("no tokens")
            continue
        cls = classify_majority(hits)
        for stock_id in record.stock_codes:
            try:
                s_day = calendar.align(record.release_date)
                prev_day = calendar.shift(s_day, -1)
                next_day = calendar.shift(s_day, 1)
                sample = MajoritySample(
                    report_id=record.report_id,
                    stock_id=stock_id,
                    majority_class=cls,
                    ret_ex_t=excess_return(market, stock_id, s_day),
                    ret_ex_prev=excess_return(market, stock_id, prev_day),
                    ret_ex_next=excess_return(market, stock_id, next_day),
                    ret_ex_3day=label_window_return(market, stock_id, s_day),
                    dvolume=delta_volume(market, stock_id, s_day),
                    range_x100=garman_klass_range(market.bars.bar(stock_id, s_day)) * RANGE_SCALE,
                )
            except MappingError:
                drop("no industry mapping")
                continue
            except HistoryError:
                drop("insufficient history")
                continue
            except (GapError, CalendarRangeError):
                drop("missing market data")
                continue
            except DomainError:
                drop("volume domain")
                continue
            samples.append(sample)
    return samples, drops


def label_pool(records: Iterable[ReportRecord], market: MarketData, train_start: Date, train_end: Date):
    """The (report, stock, window return) pool and drops of ``cli.cmd_label``."""
    pool: list[tuple[str, str, float]] = []
    drops: dict[str, int] = {}

    def drop(reason: str) -> None:
        drops[reason] = drops.get(reason, 0) + 1

    for record in records:
        if not (train_start <= record.release_date <= train_end):
            continue
        for stock_id in record.stock_codes:
            try:
                release_day = market.calendar.align(record.release_date)
            except CalendarRangeError:
                drop("release date beyond calendar")
                continue
            try:
                window_return = label_window_return(market, stock_id, release_day)
            except CalendarRangeError:
                drop("label window outside calendar")
            except MappingError:
                drop("no industry mapping")
            except (GapError, HistoryError):
                drop("missing market data")
            except DomainError:
                drop("bad market data")
            else:
                pool.append((record.report_id, stock_id, window_return))
    return pool, drops
