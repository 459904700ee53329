"""Unit tests for the stock-day performance metrics."""

import math
import random
from datetime import date as Date, timedelta

import numpy as np
import pytest

from tests.helpers import bar_grid, flat_bar, gather, index_grid, ranges_of, weekdays
from tests.reference_market import ReportRecord, columns_of
from reportsignal.corpus import CorpusIndex
from reportsignal.market import (
    BarStore,
    IndexStore,
    IndustryMap,
    MarketData,
    TradingCalendar,
)
from reportsignal.metrics import (
    BLOCK,
    DOMAIN,
    GAP,
    HISTORY,
    OFF_CALENDAR,
    OK,
    _libm,
    delta_volume,
    excess_return,
    label_window_return,
    recommendation_counts,
)

D0 = Date(2021, 3, 1)  # a Monday


def bar(o, h, l, c, d=D0, sid="600000.SH", volume=1e6):
    return (sid, d, o, h, l, c, volume)


@pytest.mark.parametrize("size", [1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
@pytest.mark.parametrize("fn, args", [(math.exp, ()), (math.log, ()), (pow, (2.0,))], ids=["exp", "log", "square"])
def test_libm_blocks_keep_every_bit(size, fn, args):
    """_libm maps ``fn`` over ``BLOCK`` values at a time; each value is what
    ``fn`` gives it alone, across the block seams too."""
    a = np.random.default_rng(size).uniform(0.01, 20.0, size)
    expected = [fn(x, *args) for x in a.tolist()]
    assert _libm(fn, a, *args).tobytes() == np.array(expected).tobytes()


def test_garman_klass_known_values():
    # Both values cross-checked against a 50-digit evaluation of the
    # range formula before being frozen here.
    got = ranges_of([bar(100.0, 102.0, 99.0, 101.0), bar(100.0, 100.0, 98.0, 98.0)])
    assert got.status.tolist() == [OK, OK]
    assert got.values[0] == pytest.approx(0.000408075810603265, rel=1e-12)
    assert got.values[1] == pytest.approx(4.44882827423516e-05, rel=1e-12)


def test_garman_klass_flat_bar_is_exactly_zero():
    assert ranges_of([flat_bar("600000.SH", D0)]).values[0] == 0.0


def test_garman_klass_rejects_non_positive_prices():
    got = ranges_of([bar(0.0, 1.0, 0.0, 1.0, volume=1.0)])
    assert got.status.tolist() == [DOMAIN]
    assert math.isnan(got.values[0])


def test_garman_klass_lower_bound_on_valid_bars():
    """On any bar with high/low bracketing open/close the estimate is at
    least 0.109 c^2 (the boundary minimum of the quadratic), hence never
    negative."""
    rng = random.Random(4)
    bars = []
    for _ in range(2000):
        o = math.exp(rng.uniform(-1.0, 5.0))
        c = o * math.exp(rng.uniform(-0.2, 0.2))
        h = max(o, c) * math.exp(rng.uniform(0.0, 0.1))
        l = min(o, c) * math.exp(-rng.uniform(0.0, 0.1))
        bars.append(bar(o, h, l, c))
    for (_, _, o, _, _, c, _), gk in zip(bars, ranges_of(bars).values.tolist()):
        cc = math.log(c / o) ** 2
        assert gk >= 0.109 * cc - 1e-15 * max(1.0, cc)
        assert gk >= -1e-15


def make_market(closes, index_levels, volumes=None):
    """One stock, one industry index, bars on consecutive weekdays."""
    days = weekdays(D0, len(closes))
    volumes = volumes or [1e6] * len(closes)
    cal = TradingCalendar(days)
    bars = [
        ("600000.SH", d, c, c, c, c, v)
        for d, c, v in zip(days, closes, volumes)
    ]
    rows = [("IND01", d, lvl) for d, lvl in zip(days, index_levels)]
    market = MarketData(
        cal,
        BarStore(bar_grid(bars, cal), cal),
        IndexStore(index_grid(rows, cal), cal),
        IndustryMap([("600000.SH", "IND01", "Bank")]),
    )
    return market, days


def test_excess_return_subtracts_industry_index():
    market, days = make_market([100.0, 110.0], [1000.0, 1045.1])
    got = gather(excess_return, market, "600000.SH", [1])[0][0]
    assert got == pytest.approx(math.log(110.0 / 100.0) - math.log(1045.1 / 1000.0), rel=1e-14)


def test_excess_return_needs_previous_bar():
    market, days = make_market([100.0, 110.0, 120.0], [1000.0] * 3)
    assert gather(excess_return, market, "600000.SH", [0, 1])[1] == [OFF_CALENDAR, OK]


def test_delta_volume_log_ratio_to_window_mean():
    market, days = make_market(
        [100.0] * 4, [1000.0] * 4, volumes=[10.0, 20.0, 30.0, 60.0]
    )
    got = gather(delta_volume, market, "600000.SH", [3], 3)[0][0]
    assert got == pytest.approx(math.log(60.0 / 20.0), rel=1e-14)


def test_delta_volume_requires_complete_window():
    market, days = make_market([100.0] * 3, [1000.0] * 3)
    assert gather(delta_volume, market, "600000.SH", [2], 5)[1] == [HISTORY]


def test_delta_volume_rejects_zero_volume_day():
    market, days = make_market(
        [100.0] * 3, [1000.0] * 3, volumes=[10.0, 10.0, 0.0]
    )
    assert gather(delta_volume, market, "600000.SH", [2], 2)[1] == [DOMAIN]


def record(rid, d, codes=("600000.SH",)):
    return ReportRecord(rid, "t", "a", tuple(codes), d)


def test_recommendation_counts_inclusive_calendar_windows():
    """Short window is [d-7, d-1], long is [d-90, d-1]; day d itself and
    anything one day beyond the cut never count. Two stocks with adjacent
    codes are cited on the same days, one report on each day citing both
    and one only the second, so no key of one stock counts for the other."""
    d = Date(2021, 6, 15)
    a, b = "600000.SH", "600001.SH"
    days_before = (0, 1, 7, 8, 90, 91)
    records = [record(f"ab{k}", d - timedelta(days=k), (a, b)) for k in days_before]
    records += [record(f"b{k}", d - timedelta(days=k), (b,)) for k in days_before]
    index = CorpusIndex(columns_of(records))
    assert index.codes == {a: 0, b: 1}
    table = [
        # stock, day, reports in [day-7, day-1], in [day-90, day-1]
        (a, d, 2, 4),  # d-1, d-7; and d-8, d-90
        (b, d, 4, 8),
        (a, d - timedelta(days=1), 2, 4),  # d-7, d-8; d-90, d-91
        (b, d + timedelta(days=1), 4, 8),  # d, d-1; d-7, d-8
        (a, d + timedelta(days=90), 0, 1),  # d only
        (b, d - timedelta(days=92), 0, 0),
        ("999999.SZ", d, 0, 0),  # a stock no report cites
    ]
    short, long = recommendation_counts(index, [row[0] for row in table], [row[1].toordinal() for row in table])
    assert short.dtype.kind == long.dtype.kind == "i"
    assert list(zip(short.tolist(), long.tolist())) == [row[2:] for row in table]


def test_recommendation_counts_unknown_stock_is_zero():
    index = CorpusIndex(columns_of([record("r1", Date(2021, 6, 15))]))
    short, long = recommendation_counts(index, ["000001.SZ"], [Date(2021, 6, 20).toordinal()])
    assert (short.tolist(), long.tolist()) == ([0], [0])


def test_label_window_return_is_three_day_mean():
    market, days = make_market(
        [100.0, 101.0, 103.0, 106.0, 110.0], [1000.0] * 5
    )
    got = gather(label_window_return, market, "600000.SH", [2])[0][0]
    returns = gather(excess_return, market, "600000.SH", [1, 2, 3])[0]
    assert got == sum(returns) / 3.0


def test_label_window_return_needs_room_on_both_sides():
    market, days = make_market([100.0, 101.0, 103.0], [1000.0] * 3)
    # no day after dates[2]; dates[0] has a day before it but no return there
    assert gather(label_window_return, market, "600000.SH", [2, 1, 0])[1] == [OFF_CALENDAR, OFF_CALENDAR, OFF_CALENDAR]
    # a stock without bars is missing its bar on dates[0] before it misses the day before it
    assert gather(label_window_return, market, "000001.SZ", [1])[1] == [GAP]
