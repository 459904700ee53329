"""Stock-day performance metrics, computed by gather.

All metrics return natural (unscaled) units; any presentation scaling
happens in the regression panel builder, not here.

    excess_return     r_stock - r_industry, both close-to-close log returns
    delta_volume      ln(volume_t / mean volume of the previous 60 trading days)
    garman_klass_range
                      0.511 (u - d)^2 - 0.019 (c (u + d) - 2 u d) - 0.383 c^2
                      with u = ln(H/O), d = ln(L/O), c = ln(C/O)
    label_window_return
                      mean excess return over the release trading day and
                      its two neighbours
    index_change      day-over-day change of an index level

Every kernel takes the market bundle and two equal-length integer arrays,
``stocks`` (bar-store rows, -1 for a stock without bars) and ``days``
(calendar positions), and returns a ``Gathered``: one value and one
status per (stock, day) row. The kernel gathers the raw inputs of all
rows, runs its checks as array masks, and computes the metric only on
the rows whose status is OK, a column at a time: numpy's ``+ - * /``
round as Python's do, but every log and square goes through libm
(``math.log``, ``pow``), as numpy's own can differ in the last bit.
``_libm`` maps the libm function over a column ``BLOCK`` values at a
time, so a long column never becomes a Python float per value all at
once (about 2 MB of them for the 63.6k bars of a generated 1x dataset).

Status codes, each the first failing check in the order a read of that
one row would meet them:

    OK            the value is the metric
    GAP           a bar or index level the metric needs is missing
    OFF_CALENDAR  a day the metric needs lies outside the calendar
    NO_MAPPING    the stock has no industry row
    HISTORY       the volume window before the day is incomplete
    DOMAIN        a non-positive price or volume, so the log is undefined
    FENCE         a bar read crosses the store's fence
    INDEX_FENCE   an index read crosses the fence

A FENCE or INDEX_FENCE row's value is the calendar position of the read
that crossed; every other failed row's value is NaN. Callers that read
several kernels per row combine them with ``first_failure``, which also
raises the fence error when a crossing is a row's first failure, and
count drops with ``tally``.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import repeat
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import CorpusIndex
from .errors import DomainError
from .market import LONG_COUNT_WINDOW, MarketData

VOLUME_WINDOW = 60
SHORT_COUNT_WINDOW = 7
CHANGE_MODES = ("diff", "logdiff")  # index_change's modes
# How many values (``_libm``) or panel rows (``write_panel``) become
# Python objects at a time.
BLOCK = 4096

# The two fence codes come last: ``status >= FENCE`` picks both.
OK, GAP, OFF_CALENDAR, NO_MAPPING, HISTORY, DOMAIN, FENCE, INDEX_FENCE = range(8)


class Gathered(NamedTuple):
    """A kernel's result: ``values`` and ``status`` per row (module docstring)."""

    values: np.ndarray
    status: np.ndarray


def _merge(*parts: Gathered) -> Gathered:
    """Each row takes the status and value of the first part that failed
    on it; rows where every part is OK get OK and NaN."""
    values = np.full(len(parts[0].status), math.nan)
    status = np.full(len(values), OK, dtype=np.int8)
    for part in reversed(parts):
        failed = part.status != OK
        values[failed] = part.values[failed]
        status[failed] = part.status[failed]
    return Gathered(values, status)


def _checked(checks: Sequence[tuple[np.ndarray, int]], crossed, fn: Callable, *columns) -> Gathered:
    """Status from ``checks``, (failed mask, code) pairs in read order, then
    ``fn`` over the OK rows of the ``columns`` arrays; fence rows carry ``crossed``."""
    status = np.full(len(checks[0][0]), OK, dtype=np.int8)
    for failed, code in reversed(checks):
        status[failed] = code
    values = np.where(status >= FENCE, crossed, math.nan)
    ok = status == OK
    with np.errstate(all="ignore"):  # overflow stays silent, as with Python floats
        values[ok] = fn(*(column[ok] for column in columns))
    return Gathered(values, status)


def _libm(fn: Callable, a: np.ndarray, *args: float) -> np.ndarray:
    """``fn(x, *args)`` (``math.exp``, ``math.log``, ``pow``) for each x of
    the 1-D array ``a``, ``BLOCK`` values at a time."""
    if a.size <= BLOCK:
        return np.fromiter(map(fn, a.tolist(), *map(repeat, args)), float, count=a.size)
    out = np.empty(a.size)
    for at in range(0, a.size, BLOCK):
        out[at : at + BLOCK] = _libm(fn, a[at : at + BLOCK], *args)
    return out


def _log_ratio(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _libm(math.log, a / b)


def garman_klass(o: np.ndarray, h: np.ndarray, l: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Range-based variance estimate from open, high, low and close prices.

    With u = ln(h/o), d = ln(l/o), cc = ln(c/o), element by element:

        0.511 (u - d)^2 - 0.019 (cc (u + d) - 2 u d) - 0.383 cc^2

    A flat bar (o = h = l = c) gives exactly 0.0. The estimator can go
    slightly negative on unusual bars; values are returned as-is and only
    flagged downstream. Prices must be positive.
    """
    u, d, cc = _log_ratio(h, o), _log_ratio(l, o), _log_ratio(c, o)
    return 0.511 * _libm(pow, u - d, 2.0) - 0.019 * (cc * (u + d) - 2.0 * u * d) - 0.383 * _libm(pow, cc, 2.0)


def garman_klass_range(market: MarketData, stocks: np.ndarray, days: np.ndarray) -> Gathered:
    """Garman-Klass estimate of each (stock, day) bar; DOMAIN on a non-positive price."""
    bars = market.bars
    o, h, l, c = (bars.take(grid, stocks, days) for grid in (bars.open, bars.high, bars.low, bars.close))
    checks = [
        (days < bars.fence_position(), FENCE),
        (~bars.has(stocks, days), GAP),
        ((o <= 0.0) | (h <= 0.0) | (l <= 0.0) | (c <= 0.0), DOMAIN),
    ]
    return _checked(checks, days, garman_klass, o, h, l, c)


def index_change(market: MarketData, rows, days: np.ndarray, mode: str) -> Gathered:
    """Day-over-day change of an index level; ``rows`` are index-store rows
    (-1 for an unknown index), one per day or one for all.

    mode 'diff' is the arithmetic first difference, 'logdiff' the log
    difference; the run's ``vix_mode`` picks it for the fear gauge.
    Under 'logdiff', a level <= 0 on a row whose reads succeed raises
    DomainError naming the index and the date.
    """
    indices = market.indices
    prev = days - 1
    checks = [
        (days < 1, OFF_CALENDAR),
        (prev < indices.fence_position(), INDEX_FENCE),
        (~indices.has(rows, prev), GAP),
        (~indices.has(rows, days), GAP),
    ]
    now, before = indices.take(indices.levels, rows, days), indices.take(indices.levels, rows, prev)
    if mode == "logdiff":
        # Only the fear gauge may hold a level <= 0, and that has no log change.
        read = ~np.logical_or.reduce([failed for failed, _ in checks])
        bad = np.flatnonzero(read & (np.minimum(now, before) <= 0.0))
        if bad.size:
            i = bad[0]
            index_id = list(indices.rows)[np.broadcast_to(rows, days.shape)[i]]
            day = indices.calendar.dates[prev[i] if before[i] <= 0.0 else days[i]]
            raise DomainError(f"{index_id} level on {day} is not positive, so its 'logdiff' change is undefined")
    return _checked(checks, prev, _log_ratio if mode == "logdiff" else np.subtract, now, before)


def excess_return(market: MarketData, stocks: np.ndarray, days: np.ndarray) -> Gathered:
    """Close-to-close log return of each stock minus its industry index.

    The stock needs bars on the day and on the trading day before it.
    """
    bars = market.bars
    prev = days - 1
    stock = _checked(
        [
            (~bars.has(stocks, days), GAP),
            (days < 1, OFF_CALENDAR),
            (~bars.has(stocks, prev), GAP),
            (prev < bars.fence_position(), FENCE),
        ],
        prev,
        _log_ratio,
        bars.take(bars.close, stocks, days),
        bars.take(bars.close, stocks, prev),
    )
    mapped = market.mapped[stocks]
    industry = index_change(market, market.industry_rows[stocks], days, "logdiff")
    merged = _merge(stock, Gathered(np.full(len(days), math.nan), np.where(mapped, OK, NO_MAPPING)), industry)
    ok = merged.status == OK
    merged.values[ok] = stock.values[ok] - industry.values[ok]
    return merged


def delta_volume(
    market: MarketData, stocks: np.ndarray, days: np.ndarray, window: int = VOLUME_WINDOW
) -> Gathered:
    """ln(volume_d / mean volume over the ``window`` trading days before d).

    The window must be completely populated (HISTORY otherwise); a zero
    volume on day ``d`` or a zero window mean has no defined log ratio
    (DOMAIN).
    """
    bars = market.bars
    fence = bars.fence_position()
    start = days - window
    volume = bars.take(bars.volume, stocks, days)
    mean = (bars.take(bars.volume_sums, stocks, days) - bars.take(bars.volume_sums, stocks, start)) / window
    n_bars = bars.take(bars.bar_counts, stocks, days) - bars.take(bars.bar_counts, stocks, start)
    checks = [
        (days < fence, FENCE),
        (~bars.has(stocks, days), GAP),
        ((start < 0) | (n_bars < window), HISTORY),
        (start < fence, FENCE),
        ((volume <= 0.0) | (mean <= 0.0), DOMAIN),
    ]
    return _checked(checks, np.where(days < fence, days, start), _log_ratio, volume, mean)


def recommendation_counts(
    index: CorpusIndex, positions: np.ndarray, days: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Report counts for each (stock position, day ordinal d) row over
    trailing calendar-day windows.

    Returns the integer arrays (short, long) of reports citing the stock
    released within [d - 7, d - 1] and [d - 90, d - 1], inclusive on both
    ends; day ``d`` itself is excluded.
    """
    keys = index.keys_of(positions, days)
    before = np.searchsorted(index.keys, keys)
    short = before - np.searchsorted(index.keys, keys - SHORT_COUNT_WINDOW)
    long = before - np.searchsorted(index.keys, keys - LONG_COUNT_WINDOW)
    return short, long


def label_window_return(market: MarketData, stocks: np.ndarray, days: np.ndarray) -> Gathered:
    """Mean excess return over each release trading day and its neighbours,
    the three trading days {day - 1, day, day + 1}, summed in that order."""
    nan = np.full(len(days), math.nan)
    before = excess_return(market, stocks, days - 1)
    on = excess_return(market, stocks, days)
    after = excess_return(market, stocks, days + 1)
    merged = _merge(
        Gathered(nan, np.where(days < 1, OFF_CALENDAR, OK)),
        before,
        on,
        Gathered(nan, np.where(days + 1 >= len(market.calendar), OFF_CALENDAR, OK)),
        after,
    )
    ok = merged.status == OK
    merged.values[ok] = (0.0 + before.values[ok] + on.values[ok] + after.values[ok]) / 3.0
    return merged


def first_failure(market: MarketData, *parts: Gathered) -> np.ndarray:
    """Per row, the status of the first part that failed on it, in the
    order given (OK where none did).

    A row whose first failure is a read across the fence is where a walk
    through the rows would have stopped: the first such row raises that
    read's DataError.
    """
    merged = _merge(*parts)
    crossed = np.flatnonzero(merged.status >= FENCE)
    if crossed.size:
        row = crossed[0]
        store = market.bars if merged.status[row] == FENCE else market.indices
        raise store.fence_error(int(merged.values[row]))
    return merged.status


def judged(drops: Sequence[tuple[np.ndarray, str]]) -> np.ndarray:
    """Whether each pair is in none of the ``drops`` masks, so the kernels judge it."""
    return ~np.logical_or.reduce([mask for mask, _ in drops])


def tally(drops: Sequence[tuple[np.ndarray, str]], status: np.ndarray, names: Mapping[int, str]) -> dict[str, int]:
    """Drop counts by reason, keyed in the order the pairs first show them.

    ``drops`` holds (mask over the pairs, reason) in priority order: a pair
    takes the reason of the first mask it is in, before any kernel ran.
    The ``judged`` pairs take ``names[status]`` in turn, and OK pairs are
    not dropped.
    """
    reasons = list(dict.fromkeys([reason for _, reason in drops] + list(names.values())))
    kernel = {code: reasons.index(name) for code, name in names.items()}
    codes = np.full(len(drops[0][0]), -1)
    for mask, reason in reversed(drops):
        codes[mask] = reasons.index(reason)
    codes[judged(drops)] = [kernel.get(code, -1) for code in status.tolist()]
    return {reasons[i]: n for i, n in Counter(codes[codes >= 0].tolist()).items()}
