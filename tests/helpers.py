"""Shared builders for the test suite.

Three kinds of scaffolding live here: tiny hand-made market fixtures whose
numbers are easy to verify with a calculator, in-memory assembly of
generated datasets so pipeline tests can skip the file round-trip, and
readers of the label and panel files the pipeline writes.
"""

from datetime import date as Date, timedelta

import numpy as np

from reportsignal.corpus import CorpusIndex, read_csv_rows
from reportsignal.econometrics import PANEL_HEADER
from reportsignal.errors import SchemaError
from reportsignal.labeling import LABELS, LABELS_HEADER, LabeledReport
from reportsignal.market import (
    BarGrid,
    BarStore,
    IndexGrid,
    IndexStore,
    IndustryMap,
    MarketData,
    TradingCalendar,
    _scatter,
)
from reportsignal.metrics import garman_klass_range
from reportsignal.synthkit import SynthSpec, generate
from tests.reference_market import PanelRow


def weekdays(start: Date, count: int) -> list[Date]:
    out = []
    d = start
    while len(out) < count:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return out


def keys(rows: list, calendar: TradingCalendar) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Ids in order of first row, and each (id, date, ...) row's id code and
    calendar position; every date must be a trading day."""
    codes: dict[str, int] = {}
    ids = np.array([codes.setdefault(row[0], len(codes)) for row in rows], dtype=np.intp)
    days = calendar.positions(np.array([row[1].toordinal() for row in rows], dtype=np.int64))
    assert (days >= 0).all(), "a row dated off the calendar"
    return list(codes), ids, days


def grid_of(rows, calendar: TradingCalendar, n_values: int) -> list:
    """Ids, the present mask and one grid per value of (id, date, *values)
    rows dated on ``calendar``, scattered as ``load_market`` does."""
    rows = list(rows)
    ids, codes, days = keys(rows, calendar)
    values = np.array([row[2:] for row in rows], dtype=float).reshape(len(rows), n_values)
    return _scatter(ids, calendar, codes, days, *values.T)


def bar_grid(rows, calendar: TradingCalendar) -> BarGrid:
    """BarGrid of (stock, date, open, high, low, close, volume) rows dated
    on ``calendar``."""
    return BarGrid(*grid_of(rows, calendar, 5))


def index_grid(rows, calendar: TradingCalendar) -> IndexGrid:
    """IndexGrid of (index, date, level) rows dated on ``calendar``."""
    return IndexGrid(*grid_of(rows, calendar, 1))


def flat_bar(stock_id: str, d: Date, price: float = 100.0, volume: float = 1e6) -> tuple:
    return (stock_id, d, price, price, price, price, volume)


def gather(kernel, market, stock_id, days, *args):
    """(values, status) lists of ``kernel`` over one stock's calendar positions."""
    got = kernel(market, market.bars.rows_of([stock_id] * len(days)), np.array(days, dtype=np.intp), *args)
    return got.values.tolist(), got.status.tolist()


def ranges_of(bars):
    """``garman_klass_range`` of each (stock, date, open, high, low, close,
    volume) row, in order, through the gather kernel; each row gets a stock
    of its own, so rows that share a stock and a day stay apart."""
    bars = [(str(i), *bar[1:]) for i, bar in enumerate(bars)]
    calendar = TradingCalendar(sorted({bar[1] for bar in bars}))
    _, stocks, days = keys(bars, calendar)
    no_levels = IndexStore(index_grid([], calendar), calendar)
    market = MarketData(calendar, BarStore(bar_grid(bars, calendar), calendar), no_levels, IndustryMap([]))
    return garman_klass_range(market, stocks, days)


def estimate(fit, regressor: str) -> tuple[float, float, float, float]:
    """(coef, se, t, p) of one regressor of a RegressionFit."""
    i = fit.regressors.index(regressor)
    return float(fit.coef[i]), float(fit.se[i]), float(fit.t_stats[i]), float(fit.p_values[i])


def assemble(ds):
    """In-memory stores for a generated dataset, mirroring the CLI loaders."""
    calendar = TradingCalendar(ds.calendar_dates)
    market = MarketData(
        calendar,
        BarStore(ds.bars, calendar),
        IndexStore(ds.index_rows, calendar),
        IndustryMap(ds.industry_rows),
    )
    scores = {score.report_id: score for score in ds.scores}
    return market, CorpusIndex(ds.records), scores


def small_spec(seed: int = 0, **overrides) -> SynthSpec:
    """A dataset small enough to generate in tens of milliseconds."""
    base = dict(
        n_stocks=24,
        n_days=30,
        reports_per_day=6,
        train_days=18,
        warmup_days=66,
        seed=seed,
    )
    base.update(overrides)
    return SynthSpec(**base)


def small_dataset(seed: int = 0, **overrides):
    return generate(small_spec(seed=seed, **overrides))


def text_file(path, text: str):
    """Write ``text`` to ``path`` as UTF-8 and return the path."""
    path.write_text(text, encoding="utf-8")
    return path


def read_labels(path) -> list[LabeledReport]:
    out = []
    for _, row in read_csv_rows(path, LABELS_HEADER):
        if row[3] not in LABELS:
            raise SchemaError(f"{path}: unknown label {row[3]!r}")
        out.append(LabeledReport(row[0], row[1], float(row[2]), row[3]))
    return out


def read_panel(path) -> list[PanelRow]:
    """The rows of a panel file as the reference's ``PanelRow`` values,
    which check each row again."""
    out = []
    for _, raw in read_csv_rows(path, PANEL_HEADER):
        out.append(
            PanelRow(
                raw[0],
                raw[1],
                Date.fromisoformat(raw[2]),
                *(float(x) for x in raw[3:]),
            )
        )
    return out
