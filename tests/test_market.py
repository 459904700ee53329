"""Unit tests for calendar, bar/index stores, and market file loading."""

import hashlib
import math
import re
from datetime import date as Date
from pathlib import Path

import numpy as np
import pytest

from reportsignal import corpus as corpus_module, market as market_module
from reportsignal.config import RunConfig
from reportsignal.econometrics import OTHER_SECTOR, canonical_sector
from reportsignal.errors import ConfigurationError, DataError, SchemaError
from reportsignal.market import (
    BAR_BLOCK_ROWS,
    HASH_CHUNK,
    BarStore,
    IndexStore,
    IndustryMap,
    MarketData,
    TradingCalendar,
    _BarReader,
    _sha256,
    _snapshot_key,
    load_calendar,
    load_market,
)
from reportsignal.metrics import (
    FENCE,
    GAP,
    HISTORY,
    INDEX_FENCE,
    OFF_CALENDAR,
    OK,
    delta_volume,
    excess_return,
    first_failure,
    garman_klass_range,
    index_change,
)
from tests.helpers import bar_grid, gather, index_grid, weekdays

MONDAY = Date(2019, 3, 4)


def calendar_of(count=10):
    return TradingCalendar(weekdays(MONDAY, count))


def test_calendar_rejects_unsorted_or_empty_dates():
    with pytest.raises(DataError):
        TradingCalendar([])
    with pytest.raises(DataError):
        TradingCalendar([MONDAY, MONDAY])
    with pytest.raises(DataError):
        TradingCalendar([Date(2019, 3, 5), MONDAY])


def test_calendar_lookup():
    cal = calendar_of(10)
    assert len(cal) == 10
    assert cal.first() == MONDAY
    assert cal.last() == Date(2019, 3, 15)
    assert cal.ordinals.tolist() == [d.toordinal() for d in cal.dates]


def test_calendar_locate_and_positions():
    cal = calendar_of(10)
    saturday = Date(2019, 3, 9)
    days = [MONDAY, Date(2019, 3, 6), saturday, Date(2019, 3, 3), Date(2019, 3, 11), cal.last(), Date(2019, 3, 16)]
    ordinals = np.array([d.toordinal() for d in days])
    # the position of the first trading day on or after each day ordinal,
    # len(cal) past the last day
    assert cal.locate(ordinals).tolist() == [0, 2, 5, 0, 5, 9, 10]
    assert int(cal.locate(saturday.toordinal())) == 5
    # exact positions: -1 for a weekend, and before or after the calendar
    assert cal.positions(ordinals).tolist() == [0, 2, -1, -1, 5, 9, -1]
    assert cal.positions(np.zeros(0, dtype=np.int64)).tolist() == []


def test_calendar_coverage_requirements():
    cal = TradingCalendar(weekdays(Date(2019, 1, 1), 80))
    cal.require_coverage(Date(2019, 4, 1), Date(2019, 4, 10))
    with pytest.raises(ConfigurationError):
        cal.require_coverage(Date(2019, 3, 1), Date(2019, 4, 10))
    with pytest.raises(ConfigurationError):
        cal.require_coverage(Date(2019, 4, 1), cal.last())


@pytest.mark.parametrize(
    "last_event, covered",
    [
        pytest.param(Date(2019, 4, 19), True, id="day-before-last"),
        pytest.param(Date(2019, 4, 22), False, id="last-day"),
        pytest.param(Date(2019, 4, 20), False, id="weekend-before-last-day"),
        pytest.param(Date(2019, 4, 13), True, id="weekend-before-a-day-with-a-next"),
        pytest.param(Date(2019, 4, 23), False, id="after-the-calendar"),
    ],
)
def test_coverage_needs_a_trading_day_after_the_last_event(last_event, covered):
    """The last event aligns to its trading day, which needs one more
    trading day after it on the calendar (2019-01-01 .. Monday 2019-04-22)."""
    cal = TradingCalendar(weekdays(Date(2019, 1, 1), 80))
    assert cal.last() == Date(2019, 4, 22)
    if covered:
        cal.require_coverage(Date(2019, 4, 1), last_event)
        return
    text = f"calendar ends 2019-04-22, too early for event {last_event} plus 1 trading day(s)"
    with pytest.raises(ConfigurationError, match=f"^{re.escape(text)}$"):
        cal.require_coverage(Date(2019, 4, 1), last_event)


def test_coverage_needs_the_lookback_before_the_first_event():
    cal = TradingCalendar(weekdays(Date(2019, 1, 1), 80))
    cal.require_coverage(Date(2019, 4, 1), Date(2019, 4, 10))
    text = (
        "calendar starts 2019-01-01, but needs to start on or before 2018-12-31 "
        "(90 days before first event 2019-03-31)"
    )
    with pytest.raises(ConfigurationError, match=f"^{re.escape(text)}$"):
        cal.require_coverage(Date(2019, 3, 31), Date(2019, 4, 10))


def market_with_closes(closes, stock_id="600000.SH", skip=()):
    """One stock on a flat industry index, its bars on consecutive weekdays
    except the positions in ``skip``; volumes are 1000, 2000, ..."""
    cal = calendar_of(len(closes))
    bars = [
        (stock_id, d, c, c * 1.01, c * 0.99, c, 1000.0 * (i + 1))
        for i, (d, c) in enumerate(zip(cal.dates, closes))
        if i not in skip
    ]
    levels = index_grid([("IND01", d, 1000.0) for d in cal.dates], cal)
    bar_store = BarStore(bar_grid(bars, cal), cal)
    return cal, MarketData(cal, bar_store, IndexStore(levels, cal), IndustryMap([(stock_id, "IND01", "Bank")]))


def test_bar_store_lookup_and_gaps():
    cal, market = market_with_closes([100, 101, 102], skip=(1,))
    store = market.bars
    row = store.row("600000.SH")
    assert store.close[row, 2] == 102
    assert store.volume[row, 0] == 1000.0
    assert store.has(row, np.arange(-1, 4)).tolist() == [False, True, False, True, False]
    assert store.row("000001.SZ") == -1
    assert not store.has(-1, np.arange(3)).any()


def test_close_log_return_requires_consecutive_bars():
    cal, market = market_with_closes([100, 110, 105, 99], skip=(2,))
    values, status = gather(excess_return, market, "600000.SH", [1, 3, 0])
    assert values[0] == math.log(110 / 100) - math.log(1000.0 / 1000.0)
    # the bar before dates[3] is missing, so no return there; no trading
    # day at all before the calendar start
    assert status == [OK, GAP, OFF_CALENDAR]


def test_mean_volume_needs_a_complete_window():
    cal, market = market_with_closes([100] * 6)
    # volumes are 1000, 2000, ..., mean of the 3 before dates[4] is 3000
    values, status = gather(delta_volume, market, "600000.SH", [4, 2], 3)
    assert values[0] == math.log(5000.0 / 3000.0)
    assert status == [OK, HISTORY]
    cal2, gappy = market_with_closes([100] * 6, skip=(2,))
    assert gather(delta_volume, gappy, "600000.SH", [4], 3)[1] == [HISTORY]


def test_bar_store_fence_blocks_early_reads():
    cal, market = market_with_closes([100, 101, 102, 103])
    market.set_fence(cal.dates[1])
    assert market.bars.fence_position() == 1
    values, status = gather(garman_klass_range, market, "600000.SH", [1, 0])
    assert status == [OK, FENCE] and values[1] == 0
    # the return at dates[1] needs the bar at dates[0], behind the fence
    values, status = gather(excess_return, market, "600000.SH", [1, 2])
    assert status == [FENCE, OK] and values[0] == 0
    assert values[1] == math.log(102 / 101)
    assert gather(delta_volume, market, "600000.SH", [2], 2)[1] == [FENCE]
    # a crossing raises once it is a row's first failure
    stocks = market.bars.rows_of(["600000.SH"] * 2)
    with pytest.raises(DataError, match=f"read of market data on {cal.dates[0]} crosses the fence"):
        first_failure(market, excess_return(market, stocks, np.array([2, 1])))
    missing = garman_klass_range(market, market.bars.rows_of(["000001.SZ"] * 2), np.array([1, 1]))
    assert first_failure(market, missing, excess_return(market, stocks, np.array([1, 1]))).tolist() == [GAP, GAP]


def test_index_store_changes():
    cal = calendar_of(3)
    rows = [
        ("CSI500", cal.dates[0], 5000.0),
        ("CSI500", cal.dates[1], 5100.0),
        ("VIX", cal.dates[0], 18.0),
        ("VIX", cal.dates[1], 21.5),
    ]
    store = IndexStore(index_grid(rows, cal), cal)
    market = MarketData(cal, BarStore(bar_grid([], cal), cal), store, IndustryMap([]))
    assert store.row("VIX") == 1 and store.row("DAX") == -1
    assert store.levels[store.row("CSI500"), 1] == 5100.0
    csi500, vix = store.row("CSI500"), store.row("VIX")
    days = np.array([1, 2, 0])
    assert index_change(market, csi500, days, "logdiff").values[0] == math.log(5100 / 5000)
    assert index_change(market, vix, days, RunConfig.vix_mode).values[0] == 3.5
    assert index_change(market, csi500, days, "logdiff").status.tolist() == [OK, GAP, OFF_CALENDAR]
    assert index_change(market, store.row("DAX"), days, "diff").status.tolist() == [GAP, GAP, OFF_CALENDAR]
    store.fence = cal.dates[1]
    changed = index_change(market, csi500, days[:1], "logdiff")
    assert changed.status.tolist() == [INDEX_FENCE]
    with pytest.raises(DataError, match="read of index data on .* crosses the fence"):
        first_failure(market, changed)


def test_industry_map_defaults_blank_sectors_to_other():
    imap = IndustryMap(
        [("600000.SH", "IND01", "Bank"), ("000001.SZ", "IND02", "")]
    )
    assert imap._map == {"600000.SH": ("IND01", "Bank"), "000001.SZ": ("IND02", "")}
    assert imap.sector("600000.SH") == "Bank"
    assert imap.sector("000001.SZ") == ""
    assert canonical_sector(imap.sector("000001.SZ")) == OTHER_SECTOR


def write_market_files(tmp_path, bar_lines, index_lines, industry_lines, calendar=None):
    bars = tmp_path / "bars.csv"
    bars.write_text(
        "stock_id,date,open,high,low,close,volume\n" + "".join(bar_lines),
        encoding="utf-8",
    )
    indices = tmp_path / "indices.csv"
    indices.write_text(
        "index_id,date,level\n" + "".join(index_lines), encoding="utf-8"
    )
    industry = tmp_path / "industry.csv"
    industry.write_text(
        "stock_id,industry_index_id,sector_name\n" + "".join(industry_lines),
        encoding="utf-8",
    )
    calendar_path = None
    if calendar is not None:
        calendar_path = tmp_path / "calendar.txt"
        calendar_path.write_text(
            "# trading days\n" + "".join(f"{d}\n" for d in calendar), encoding="utf-8"
        )
    return bars, indices, industry, calendar_path


def test_load_market_with_explicit_calendar(tmp_path):
    days = weekdays(MONDAY, 3)
    bars, indices, industry, calendar = write_market_files(
        tmp_path,
        [f"600000.SH,{d},100,101,99,100.5,1e6\n" for d in days],
        [f"CSI500,{d},5000\n" for d in days],
        ["600000.SH,IND01,Bank\n"],
        calendar=days,
    )
    result = load_market(bars, indices, industry, calendar)
    assert not result.bar_rejects and not result.index_rejects
    assert result.n_bars == 3 and result.n_index_rows == 3
    assert result.market.calendar.dates == tuple(days)
    bars = result.market.bars
    assert bars.volume[bars.row("600000.SH"), 0] == 1e6
    assert result.market.industry.sector("600000.SH") == "Bank"


def test_load_market_can_infer_the_calendar_from_bars(tmp_path):
    days = weekdays(MONDAY, 3)
    bars, indices, industry, _ = write_market_files(
        tmp_path,
        [f"600000.SH,{d},100,101,99,100.5,1e6\n" for d in days],
        [f"CSI500,{d},5000\n" for d in days],
        ["600000.SH,IND01,Bank\n"],
    )
    result = load_market(bars, indices, industry, None)
    assert result.market.calendar.dates == tuple(days)


def test_load_market_rejects_bad_bar_rows(tmp_path):
    days = weekdays(MONDAY, 3)
    good = f"600000.SH,{days[0]},100,101,99,100.5,1e6\n"
    bad_rows = [
        f"600000.SH,{days[1]},100,101,99\n",              # field count
        f"600000.SH,{days[1]},abc,101,99,100.5,1e6\n",    # unparseable
        f",{days[1]},100,101,99,100.5,1e6\n",             # empty stock_id
        f"600000.SH,{days[1]},100,100.2,99,100.5,1e6\n",  # high below close
        f"600000.SH,{days[1]},0,101,99,100.5,1e6\n",      # non-positive price
        f"600000.SH,{days[1]},100,101,99,100.5,-1\n",     # negative volume
        f"600000.SH,{days[1]},-100,101,99,100.5,-1\n",    # both: the price rule comes first
        f"600000.SH,2019-03-09,100,101,99,100.5,1e6\n",   # not a trading day
        good,                                             # duplicate of line 2
    ]
    bars, indices, industry, calendar = write_market_files(
        tmp_path,
        [good] + bad_rows,
        [f"CSI500,{days[0]},5000\n"],
        ["600000.SH,IND01,Bank\n"],
        calendar=days,
    )
    result = load_market(bars, indices, industry, calendar)
    assert result.n_bars == 1
    reasons = [r.reason for r in result.bar_rejects]
    assert len(reasons) == 9
    assert "expected 7 fields" in reasons[0]
    assert "unparseable" in reasons[1]
    assert "empty stock_id" in reasons[2]
    assert "bracket" in reasons[3]
    assert reasons[4:7] == [
        "non-positive or non-finite price",
        "negative or non-finite volume",
        "non-positive or non-finite price",
    ]
    assert "not a trading day" in reasons[7]
    assert "duplicate" in reasons[8]


def test_bar_invariants(tmp_path):
    """The bar rules as loading applies them: prices positive and finite,
    volume non-negative and finite, high/low bracketing open and close."""
    bar_lines = [
        "A,{},100,100,100,100,1e6\n",      # flat bar
        "B,{},100,101,99,100.5,0.0\n",     # zero volume
        "C,{},0.0,101,99,100,1e6\n",
        "D,{},100,nan,99,100,1e6\n",
        "E,{},100,inf,99,100,1e6\n",
        "F,{},100,101,99,100,-1.0\n",
        "G,{},100,101,99,100,nan\n",
        "H,{},100,100.2,99,100.5,1e6\n",
        "I,{},100,101,100.1,100.5,1e6\n",
    ]
    bars, indices, industry, calendar = write_market_files(
        tmp_path,
        [line.format(MONDAY) for line in bar_lines],
        [f"CSI500,{MONDAY},5000\n"],
        ["A,IND01,Bank\n"],
        calendar=[MONDAY],
    )
    result = load_market(bars, indices, industry, calendar)
    assert result.n_bars == 2
    price, volume, bracket = (
        "non-positive or non-finite price",
        "negative or non-finite volume",
        "high/low do not bracket open/close",
    )
    assert [(r.line, r.reason) for r in result.bar_rejects] == [
        (4, price),
        (5, price),
        (6, price),
        (7, volume),
        (8, volume),
        (9, bracket),
        (10, bracket),
    ]


def test_load_market_rejects_rows_with_extra_fields(tmp_path):
    """A row one field too long is rejected with its line, also when every
    row beside it is valid, and the valid rows still load."""
    days = weekdays(MONDAY, 2)
    bars, indices, industry, calendar = write_market_files(
        tmp_path,
        [
            f"600000.SH,{days[0]},100,101,99,100.5,1e6\n",
            f"600000.SH,{days[1]},100,101,99,100.5,1e6,7\n",
            f"000001.SZ,{days[1]},10,11,9,10.5,2e6\n",
        ],
        [f"CSI500,{days[0]},5000\n"],
        ["600000.SH,IND01,Bank\n"],
        calendar=days,
    )
    result = load_market(bars, indices, industry, calendar)
    assert result.n_bars == 2
    assert [(r.line, r.reason) for r in result.bar_rejects] == [(3, "expected 7 fields, got 8")]


def test_bar_reader_joins_its_blocks_and_then_holds_none(tmp_path):
    """``columns()`` gives every block's accepted rows joined in line order,
    the same arrays as concatenating the blocks, and leaves the reader
    holding no block."""
    days = weekdays(MONDAY, 3)
    lines = [f" S{i // 3:04d} ,{days[i % 3]},100,101,99,100.5,{i}\n" for i in range(2 * BAR_BLOCK_ROWS + 7)]
    bad = {
        5: f"S0001,{days[0]},100,101\n",  # wrong width: its block reads row by row
        BAR_BLOCK_ROWS + 3: f"S0002,{days[0]},abc,101,99,100.5,1\n",  # unparseable
        BAR_BLOCK_ROWS + 9: f"S0003,{days[0]},100,100.2,99,100.5,1\n",  # high below close
        2 * BAR_BLOCK_ROWS + 1: f"S0004,{days[0]},100,101,99,100.5,nan\n",
    }
    for i, line in bad.items():
        lines[i] = line
    path = tmp_path / "bars.csv"
    path.write_text("stock_id,date,open,high,low,close,volume\n" + "".join(lines), encoding="utf-8")
    reader = _BarReader()
    reader.read(path)
    blocks = list(reader.blocks)
    columns = reader.columns()
    assert reader.blocks == []
    assert len(columns) == 8
    for joined, parts in zip(columns, zip(*blocks)):
        assert np.array_equal(joined, np.concatenate(parts))
    assert [r.line for r in reader.rejects] == sorted(i + 2 for i in bad)
    kept = [i for i in range(len(lines)) if i not in bad]
    assert columns[0].tolist() == [i + 2 for i in kept]
    assert columns[-1].tolist() == [float(i) for i in kept]
    assert list(reader.stock_codes)[:2] == ["S0000", "S0001"]


def test_index_levels_off_the_calendar_count_but_are_not_kept(tmp_path):
    """Levels on a weekend or after the last trading day are no rejects:
    they count in n_index_rows and the store holds none of them. Index rows
    follow each index's first level on the calendar, and an index with no
    such level gets no row."""
    days = weekdays(MONDAY, 6)  # Monday 2019-03-04 .. Monday 2019-03-11
    index_rows = [
        "DAX,2019-03-02,11000\n",     # Saturday before the calendar
        f"CSI500,{days[0]},5000\n",
        "FTSE,2019-03-09,7000\n",     # Saturday inside the calendar
        f"DAX,{days[1]},11100\n",
        "VIX,2019-03-12,20\n",        # after the calendar
        "CSI500,2019-03-10,5050\n",   # Sunday inside the calendar
        f"CSI500,{days[5]},5100\n",
    ]
    bars, indices, industry, calendar = write_market_files(
        tmp_path,
        [f"600000.SH,{d},100,101,99,100.5,1e6\n" for d in days],
        index_rows,
        ["600000.SH,IND01,Bank\n"],
        calendar=days,
    )
    result = load_market(bars, indices, industry, calendar)
    assert result.index_rejects == []
    assert result.n_index_rows == 7
    store = result.market.indices
    assert list(store.rows) == ["CSI500", "DAX"]
    assert store.row("FTSE") == store.row("VIX") == -1
    assert store.present.tolist() == [
        [True, False, False, False, False, True],
        [False, True, False, False, False, False],
        [False] * 6,
    ]
    assert store.levels[store.row("CSI500")].tolist() == [5000.0, 0, 0, 0, 0, 5100.0]
    assert store.levels[store.row("DAX"), 1] == 11100.0


def test_load_market_rejects_bad_index_rows_but_allows_negative_vix(tmp_path):
    days = weekdays(MONDAY, 2)
    index_rows = [
        f"CSI500,{days[0]},5000\n",
        f"CSI500,{days[0]},5001\n",     # duplicate
        f"CSI500,{days[1]},-5\n",       # non-positive level
        f"CSI500,{days[1]},nan\n",      # non-finite
        f",{days[1]},5000\n",           # empty id
        f"CSI500,{days[1]}\n",          # field count
        f"VIX,{days[0]},-2.5\n",        # negative fear-gauge level is fine
    ]
    bars, indices, industry, calendar = write_market_files(
        tmp_path,
        [f"600000.SH,{days[0]},100,101,99,100.5,1e6\n"],
        index_rows,
        ["600000.SH,IND01,Bank\n"],
        calendar=days,
    )
    result = load_market(bars, indices, industry, calendar)
    assert result.n_index_rows == 2
    indices = result.market.indices
    assert indices.levels[indices.row("VIX"), 0] == -2.5
    reasons = [r.reason for r in result.index_rejects]
    assert len(reasons) == 5
    assert "duplicate" in reasons[0]
    assert "invalid level" in reasons[1]
    assert "invalid level" in reasons[2]
    assert "empty index_id" in reasons[3]
    assert "expected 3 fields" in reasons[4]


def test_load_market_structural_failures_are_fatal(tmp_path):
    days = weekdays(MONDAY, 2)
    bars, indices, industry, calendar = write_market_files(
        tmp_path,
        [f"600000.SH,{days[0]},100,101,99,100.5,1e6\n"],
        [f"CSI500,{days[0]},5000\n"],
        ["600000.SH,IND01\n"],  # wrong industry field count
        calendar=days,
    )
    with pytest.raises(SchemaError):
        load_market(bars, indices, industry, calendar)
    bars.write_text("wrong,header\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_market(bars, indices, industry, calendar)
    bars.write_text("", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_market(bars, indices, industry, calendar)


def test_load_calendar_rejects_garbage(tmp_path):
    path = tmp_path / "calendar.txt"
    path.write_text("2019-03-04\nnot-a-date\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_calendar(path)


@pytest.mark.parametrize("text", ["20190305", "2019-W10-2"])
def test_market_dates_are_yyyy_mm_dd_only(tmp_path, text):
    """A date in another form that ``date.fromisoformat`` takes on some
    Python versions (basic, week) rejects its bar or index row and fails the
    calendar, with the message Python 3.10 gives."""
    days = weekdays(MONDAY, 2)
    bars, indices, industry, calendar = write_market_files(
        tmp_path,
        [f"600000.SH,{days[0]},100,101,99,100.5,1e6\n", f"600000.SH,{text},100,101,99,100.5,1e6\n"],
        [f"CSI500,{days[0]},5000\n", f"CSI500,{text},5000\n"],
        ["600000.SH,IND01,Bank\n"],
        calendar=days,
    )
    result = load_market(bars, indices, industry, calendar)
    assert (result.n_bars, result.n_index_rows) == (1, 1)
    assert [(r.line, r.reason) for r in result.bar_rejects] == [
        (3, f"unparseable bar row: Invalid isoformat string: {text!r}")
    ]
    assert [(r.line, r.reason) for r in result.index_rejects] == [
        (3, f"unparseable index row: Invalid isoformat string: {text!r}")
    ]
    calendar.write_text(f"{days[0]}\n{text}\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"unparseable date {text!r}")):
        load_calendar(calendar)


def test_file_digest_streams_the_file_then_the_extra_bytes(tmp_path):
    data = np.random.default_rng(3).bytes(2 * HASH_CHUNK + 17)
    path = tmp_path / "big.bin"
    path.write_bytes(data)
    assert _sha256(path, b"tail") == hashlib.sha256(data + b"tail").hexdigest()
    assert _sha256(path) == hashlib.sha256(data).hexdigest()
    path.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))
    assert _sha256(path, b"tail") != hashlib.sha256(data + b"tail").hexdigest()


def test_snapshot_code_digest_is_market_py_then_corpus_py(tmp_path):
    """A snapshot's ``code`` key is the sha256 of market.py's bytes followed
    by corpus.py's, so an edit to either module makes a snapshot stale."""
    path = tmp_path / "any.csv"
    path.write_bytes(b"x\n")
    source = Path(market_module.__file__).read_bytes() + Path(corpus_module.__file__).read_bytes()
    assert _snapshot_key(path, path, path, None)["code"] == hashlib.sha256(source).hexdigest()
