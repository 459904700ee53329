"""Stock-day performance metrics.

All metrics are pure functions over the market stores and return natural
(unscaled) units; any presentation scaling happens in the regression
panel builder, not here.

    excess_return     r_stock - r_industry, both close-to-close log returns
    delta_volume      ln(volume_t / mean volume of the previous 60 trading days)
    garman_klass_range
                      0.511 (u - d)^2 - 0.019 (c (u + d) - 2 u d) - 0.383 c^2
                      with u = ln(H/O), d = ln(L/O), c = ln(C/O)
    label_window_return
                      mean excess return over the release trading day and
                      its two neighbours
"""

from __future__ import annotations

import math
from datetime import date as Date, timedelta

from .corpus import CorpusIndex
from .errors import DomainError
from .market import DailyBar, MarketData

VOLUME_WINDOW = 60
SHORT_COUNT_WINDOW = 7
LONG_COUNT_WINDOW = 90


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


def excess_return(market: MarketData, stock_id: str, d: Date) -> float:
    """Close-to-close log return of the stock minus its industry index."""
    r_stock = market.bars.close_log_return(stock_id, d)
    index_id = market.industry.industry_index(stock_id)
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
