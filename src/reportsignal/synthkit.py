"""Synthetic corpus + market generator with planted regression effects.

The generator works backwards from the pooled regression equations: for
every (report, stock) pair it computes the lagged regressors exactly as
the pipeline will (same log/mean arithmetic over the realized series),
forms the three outcome targets as beta . x + noise, and then constructs
the next day's OHLCV bar so that the pipeline re-derives those targets:

  * excess return: the close is moved by target + industry return, so
    the industry term cancels in the pipeline's subtraction;
  * volume change: volume = (trailing 60-day mean) * exp(target);
  * intraday range: with the bar's log-coordinates u = ln(H/O),
    d = ln(L/O), c = ln(C/O) chosen symmetric around the close,
    u = c/2 + m and d = c/2 - m, the range estimator collapses to
    2.006 m^2 - 0.3925 c^2, so m is solved from the target. The open
    is placed at C / e^c, i.e. the close-to-close move is absorbed by
    the overnight gap, and c is drawn small relative to the target
    (|c| <= 0.8 sqrt(target)), which keeps m >= |c|/2 and the bar valid
    for any planted return.

Everything is driven by one seeded generator (numpy's default PCG64) in
a fixed draw order, so a spec generates byte-identical files every time.
Outcome days are the trading days following report days; report days get
reports_per_day reports each, every report cites one stock (occasionally
two), and no stock is cited twice on one day, so outcome slots never
collide.

Array layout: each report day picks the token classes and words of its
whole (reports x tokens) block at once. The bars are made in place, in
one block whose five (stocks + 1) x days planes are the dataset's
``market.BarGrid`` (open, high, low, close, volume; the last row stays
empty): the chains draw per stock, and a loop over the days advances
the closes and volumes of every stock. The planted rows are one (rows x
regressors) array, a block per outcome day, whose columns that no chain
value moves are filled at once; the day loop fills that day's block from
the chain, then one ``fsum`` pass gives its three targets. Open, high
and low are written into their planes for all bars in one pass after the
loop, and the index walks fill the rows of the ``market.IndexGrid``. No
per-bar or per-level object is ever made. The reports are gathered field
by field into ``corpus.ReportColumns``.

Every exp and log on the chain goes through libm (``math``) element by
element (``metrics._libm``), as the pipeline computes it: numpy's own
exp and log round differently (numpy 2.4 on x86-64: ``np.exp`` differed
from ``math.exp`` on 46k of 1M draws of N(0, 0.05), ``np.log`` from
``math.log`` on 40k of 1M ratios near 1), so one last-ulp change would
move a planted bar. The planted targets are ``math.fsum`` over the same
12 products. ``np.exp`` appears only where the draws' own scale is set
(index levels, base prices and volumes, natural ranges).
``tests/reference_synth.py`` keeps the scalar loop this replaced, and
the tests hold the two to identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from datetime import date as Date, timedelta
from functools import cache
from pathlib import Path

import numpy as np

from .config import FORMAT_VERSION, RunConfig
from .corpus import CorpusIndex, ReportColumns, serialize_corpus, write_csv_rows
from .econometrics import NAMED_SECTORS, NUM_SCALE, OTHER_SECTOR, RANGE_SCALE
from .errors import ConfigurationError
from .market import BARS_HEADER, CSI500, INDICES_HEADER, INDUSTRY_HEADER, SSE, SZSE, VIX, BarGrid, IndexGrid
from .metrics import _libm, garman_klass, recommendation_counts
from .sentiment import SentimentScore, write_scores

SECTORS = NAMED_SECTORS + (OTHER_SECTOR,)
INDUSTRY_IDS = tuple(f"IND{i + 1:02d}" for i in range(len(SECTORS)))

BETA_KEYS = (
    "constant",
    "pos",
    "neg",
    "range",
    "dvolume",
    "ret_ex",
    "szse",
    "sse",
    "csi500",
    "vix",
    "num90",
    "num7",
)
OUTCOME_KEYS = ("range", "ret_ex", "delta_volume")

# Planted defaults: reference point estimates for the three pooled
# regressions, in their reporting scale (range x100, counts /100).  One
# deliberate exception: the range intercept is raised well above the noise
# floor so that planted variance targets stay positive -- a Garman-Klass
# range cannot be negative, so targets at or below zero would have to be
# clamped, truncating the noise distribution and biasing every coefficient
# of the range equation.
DEFAULT_BETAS = {
    "range": {
        "constant": 0.10,
        "pos": 0.065,
        "neg": 0.044,
        "range": 0.291,
        "dvolume": 0.002,
        "ret_ex": -0.004,
        "szse": 0.006,
        "sse": -0.002,
        "csi500": 0.002,
        "vix": 0.0007,
        "num90": 0.0033,
        "num7": -0.0037,
    },
    "ret_ex": {
        "constant": -0.018,
        "pos": 0.064,
        "neg": -0.065,
        "range": 0.844,
        "dvolume": 0.064,
        "ret_ex": -0.108,
        "szse": -0.015,
        "sse": 0.149,
        "csi500": -0.039,
        "vix": 0.0136,
        "num90": 0.028,
        "num7": -0.113,
    },
    "delta_volume": {
        "constant": 0.109,
        "pos": 0.177,
        "neg": 0.036,
        "range": -0.464,
        "dvolume": 0.539,
        "ret_ex": -0.016,
        "szse": 0.007,
        "sse": 0.005,
        "csi500": 0.009,
        "vix": -0.0012,
        "num90": -0.0033,
        "num7": 0.0025,
    },
}

# Noise scales calibrated by Monte Carlo so that the default spec's
# recovered t-statistics land near the reference values (the anchor is
# the pos coefficient of the excess-return regression, median |t| ~ 5.5).
DEFAULT_NOISE = {"range": 0.035, "ret_ex": 0.113, "delta_volume": 0.158}

RANGE_FLOOR_X100 = 1e-6  # planted range targets are clamped to stay positive


def default_betas() -> dict[str, dict[str, float]]:
    return {k: dict(v) for k, v in DEFAULT_BETAS.items()}


def default_noise() -> dict[str, float]:
    return dict(DEFAULT_NOISE)


@dataclass
class SynthSpec:
    """Sizing, planted coefficients, and noise scales for one dataset."""

    n_stocks: int = 200
    n_days: int = 250
    reports_per_day: int = 40
    seed: int = 0
    train_days: int = 150
    warmup_days: int = 66
    post_days: int = 2
    multi_stock_rate: float = 0.05
    betas: dict[str, dict[str, float]] = field(default_factory=default_betas)
    noise: dict[str, float] = field(default_factory=default_noise)
    score_alpha: tuple[float, float, float] = (2.0, 2.4, 2.0)
    start_date: Date = Date(2021, 1, 4)
    idio_vol: float = 0.02
    index_vol: float = 0.01
    industry_vol: float = 0.012
    vix_base: float = 20.0
    vix_vol: float = 0.04  # daily sd of log(VIX); diff scale ~ base * vol
    base_price: float = 30.0
    price_spread: float = 0.3
    base_volume: float = 2e6
    volume_base_spread: float = 0.5
    volume_sd: float = 0.35
    base_range: float = 2.2e-4
    range_spread: float = 0.6
    tokens_per_title: int = 3
    tokens_per_abstract: int = 12
    risk_warning_rate: float = 0.3

    def validate(self) -> None:
        counts = {
            "n_stocks": self.n_stocks,
            "n_days": self.n_days,
            "reports_per_day": self.reports_per_day,
            "train_days": self.train_days,
            "post_days": self.post_days,
            "tokens_per_title": self.tokens_per_title,
            "tokens_per_abstract": self.tokens_per_abstract,
        }
        for name, value in counts.items():
            if value <= 0:
                raise ConfigurationError(f"{name} must be positive, got {value}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
        # 66 weekdays span ~92 calendar days, covering the 90-day count
        # lookback; fewer would fail the ingest coverage check.
        if self.warmup_days < 66:
            raise ConfigurationError(f"warmup_days must be >= 66, got {self.warmup_days}")
        if self.train_days >= self.n_days:
            raise ConfigurationError("train_days must be smaller than n_days")
        # Worst case a day cites 2 * reports_per_day stocks, and all of
        # yesterday's citations (up to the same number) sit out today.
        if 4 * self.reports_per_day > self.n_stocks:
            raise ConfigurationError("need n_stocks >= 4 * reports_per_day")
        if not (0.0 <= self.multi_stock_rate <= 1.0):
            raise ConfigurationError("multi_stock_rate must be in [0, 1]")
        if not (0.0 <= self.risk_warning_rate <= 1.0):
            raise ConfigurationError("risk_warning_rate must be in [0, 1]")
        if set(self.betas) != set(OUTCOME_KEYS):
            raise ConfigurationError(f"betas must have outcomes {OUTCOME_KEYS}")
        for outcome, vector in self.betas.items():
            if set(vector) != set(BETA_KEYS):
                raise ConfigurationError(f"betas[{outcome!r}] must have keys {BETA_KEYS}")
        if set(self.noise) != set(OUTCOME_KEYS):
            raise ConfigurationError(f"noise must have outcomes {OUTCOME_KEYS}")
        for outcome, scale in self.noise.items():
            if scale < 0.0 or not math.isfinite(scale):
                raise ConfigurationError(f"noise[{outcome!r}] must be >= 0, got {scale}")
        if len(self.score_alpha) != 3 or any(a <= 0 for a in self.score_alpha):
            raise ConfigurationError("score_alpha must be 3 positive numbers")


@dataclass
class SynthDataset:
    """Everything generate() produces, before any files are written."""

    records: ReportColumns
    scores: list[SentimentScore]
    bars: BarGrid
    index_rows: IndexGrid  # so named because bench/run.py's fit_in_memory reads it by this name
    industry_rows: list[tuple[str, str, str]]
    calendar_dates: list[Date]
    train_range: tuple[Date, Date]
    test_range: tuple[Date, Date]
    truth: dict


def _weekdays(start: Date, count: int) -> list[Date]:
    out = []
    d = start
    while len(out) < count:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return out


@cache
def _lexicon_word_lists() -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """The packaged lexicon's (positive, neutral, negative) words, read once."""
    from .config import packaged_data_path
    from .sentiment import load_lexicon
    from .labeling import POSITIVE, NEUTRAL, NEGATIVE

    lex = load_lexicon(packaged_data_path("lexicon.csv"))
    return tuple(lex.words(POSITIVE)), tuple(lex.words(NEUTRAL)), tuple(lex.words(NEGATIVE))


def _bar_shape(close, target, z, out):
    """Open, high and low around ``close`` for a range target (module
    docstring), written into the three 1-D arrays of ``out``."""
    c = z * 0.4 * np.sqrt(target)
    m = np.sqrt((target + 0.3925 * c * c) / 2.006)
    o, h, l = out
    np.divide(close, _libm(math.exp, c), out=o)
    np.multiply(o, _libm(math.exp, 0.5 * c + m), out=h)
    np.multiply(o, _libm(math.exp, 0.5 * c - m), out=l)
    return out


def generate(spec: SynthSpec) -> SynthDataset:
    """Generate one dataset; deterministic for a fixed spec and seed."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    n_cal = spec.warmup_days + spec.n_days + spec.post_days
    cal_dates = _weekdays(spec.start_date, n_cal)
    cal_ordinals = np.array([d.toordinal() for d in cal_dates], dtype=np.int64)

    # --- index level series ------------------------------------------------
    # Lognormal walks; the VIX one is always positive with no flat stretches,
    # so its day-to-day differences never degenerate into a constant column.
    walks = [(SSE, 3300.0, spec.index_vol), (SZSE, 2100.0, spec.index_vol), (CSI500, 6000.0, spec.index_vol)]
    walks += [(index_id, 5000.0, spec.industry_vol) for index_id in INDUSTRY_IDS] + [(VIX, spec.vix_base, spec.vix_vol)]
    shape = (len(walks) + 1, n_cal)  # one row per index, then the empty one
    levels = IndexGrid([walk[0] for walk in walks], np.zeros(shape, dtype=bool), np.zeros(shape))
    levels.present[:-1] = True
    for row, (_, base, vol) in zip(levels.levels, walks):
        steps = rng.normal(0.0, vol, n_cal - 1)
        row[:] = base * np.exp(np.concatenate(([0.0], np.cumsum(steps))))
    index_levels = dict(zip(levels.ids, levels.levels))

    # Log returns (VIX: differences), NaN on the first day.
    logret = {
        index_id: np.concatenate(([math.nan], _libm(math.log, walk[1:] / walk[:-1])))
        for index_id, walk in index_levels.items()
        if index_id != VIX
    }
    vix_diff = np.concatenate(([math.nan], np.diff(index_levels[VIX])))
    ind_logret = np.array([logret[index_id] for index_id in INDUSTRY_IDS])

    # --- stocks -------------------------------------------------------------
    stock_ids = [f"{600000 + i}.SH" for i in range(spec.n_stocks)]
    industry_of = np.arange(spec.n_stocks) % len(SECTORS)
    close0 = spec.base_price * np.exp(rng.normal(0.0, spec.price_spread, spec.n_stocks))
    vbase = spec.base_volume * np.exp(rng.normal(0.0, spec.volume_base_spread, spec.n_stocks))

    # --- report schedule, scores, text, outcome noise ------------------------
    pos_words, neu_words, neg_words = _lexicon_word_lists()
    words = np.array(pos_words + neu_words + neg_words, dtype=object)
    n_words = np.array([len(pos_words), len(neu_words), len(neg_words)])
    first_word = np.cumsum(n_words) - n_words
    warning_tail = " 风险提示 后市存在波动"
    sd = np.array([spec.noise[k] for k in OUTCOME_KEYS])
    n_reports = spec.reports_per_day
    n_tokens = spec.tokens_per_title + spec.tokens_per_abstract

    # the reports' columns, and each day's counts of codes per report
    report_ids, titles, abstracts, codes, n_codes = [], [], [], [], []
    scores: list[SentimentScore] = []
    # per report day: the stocks it cites, their (pos, neg) and scaled outcome noise
    planted: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    cited_yesterday = np.zeros(spec.n_stocks, dtype=bool)
    for day_pos in range(spec.warmup_days, spec.warmup_days + spec.n_days):
        perm = rng.permutation(spec.n_stocks)
        multi_flags = rng.random(n_reports) < spec.multi_stock_rate
        triples = rng.dirichlet(spec.score_alpha, n_reports)
        class_u = rng.random((n_reports, n_tokens))
        word_u = rng.random((n_reports, n_tokens))
        warn_u = rng.random(n_reports)
        eps = rng.normal(0.0, 1.0, (n_reports, 2, 3))

        # Stocks covered yesterday sit out today's draw.  A covered
        # stock's next-day bar embeds that report's outcome noise, so
        # covering it again immediately would feed the noise back into
        # the new row's lagged regressors; a one-day gap keeps every
        # regressor window clear of planted noise.
        n_cited = 1 + multi_flags
        ends = np.cumsum(n_cited)
        cited = perm[~cited_yesterday[perm]][: ends[-1]]
        report_of = np.repeat(np.arange(n_reports), n_cited)
        second = np.arange(ends[-1]) - (ends - n_cited)[report_of]
        planted.append((cited, triples[report_of][:, ::2], eps[report_of, second] * sd))
        cited_yesterday[:] = False
        cited_yesterday[cited] = True

        # Token class 0/1/2 from the cumulative score, then a word of it.
        cls = (class_u >= triples[:, :1]).astype(np.intp)
        cls += class_u >= (triples[:, 0] + triples[:, 1])[:, None]
        n_cls = n_words[cls]
        tokens = words[first_word[cls] + np.minimum((word_u * n_cls).astype(np.intp), n_cls - 1)]
        # the day's reports field by field, their cited codes in report order
        day_ids = [f"R{day_pos:04d}{r:03d}" for r in range(n_reports)]
        report_ids += day_ids
        titles += map("".join, tokens[:, : spec.tokens_per_title].tolist())
        warned = (warn_u < spec.risk_warning_rate).tolist()
        abstracts += [
            "".join(row) + (warning_tail if w else "")
            for row, w in zip(tokens[:, spec.tokens_per_title :].tolist(), warned)
        ]
        codes += [stock_ids[s] for s in cited.tolist()]
        n_codes.append(n_cited)
        scores += map(SentimentScore, day_ids, *triples.T.tolist())

    report_days = np.repeat(cal_ordinals[spec.warmup_days : spec.warmup_days + spec.n_days], n_reports)
    offsets = np.concatenate(([0], *n_codes)).cumsum()
    records = ReportColumns(report_ids, titles, abstracts, report_days, codes, offsets)
    # the citation-count regressors come from the pipeline's own index
    corpus_index = CorpusIndex(records)

    # --- bar chains ----------------------------------------------------------
    # The bar grid's open/high/low/close/volume planes, the last row empty,
    # whose closes and volumes the chain fills in place. The other (stock x
    # day) arrays are drawn stock by stock; targets start as natural ranges.
    grid = np.zeros((5, spec.n_stocks + 1, n_cal))
    closes, vols = grid[3, :-1], grid[4, :-1]
    growth, targets, zc = (np.empty(closes.shape) for _ in range(3))
    for i in range(spec.n_stocks):
        idio = rng.normal(0.0, spec.idio_vol, n_cal)
        targets[i] = spec.base_range * np.exp(rng.normal(0.0, spec.range_spread, n_cal))
        zc[i] = np.clip(rng.normal(0.0, 1.0, n_cal), -2.0, 2.0)
        vnoise = rng.normal(0.0, spec.volume_sd, n_cal)
        growth[i] = _libm(math.exp, ind_logret[industry_of[i]] + idio)
        vols[i] = vbase[i] * _libm(math.exp, vnoise)

    # The planted rows, one block per outcome day, with the regressors that
    # no chain value moves; the loop fills range, dvolume and ret_ex.
    first = spec.warmup_days + 1
    bounds = np.cumsum([0] + [block[0].size for block in planted]).tolist()
    rows_all, pos_neg, noise_all = map(np.concatenate, zip(*planted))
    t_all = np.repeat(np.arange(first, first + spec.n_days), np.diff(bounds))
    num7, num90 = recommendation_counts(corpus_index, [stock_ids[i] for i in rows_all.tolist()], cal_ordinals[t_all])
    market_x = np.column_stack((logret[SZSE], logret[SSE], logret[CSI500], vix_diff))
    x_all = np.column_stack(
        (np.ones(t_all.size), pos_neg, np.empty((t_all.size, 3)), market_x[t_all - 1], num90 * NUM_SCALE, num7 * NUM_SCALE)
    )
    del planted, pos_neg, t_all, num7, num90

    betas = np.array([[spec.betas[k][key] for key in BETA_KEYS] for k in OUTCOME_KEYS])
    closes[:, 0] = close0
    vol_prefix = np.zeros((spec.n_stocks, n_cal + 1))
    vol_prefix[:, 1] = vols[:, 0]
    n_clamped = 0
    for j in range(1, n_cal):
        closes[:, j] = closes[:, j - 1] * growth[:, j]
        block = j - first
        if 0 <= block < spec.n_days:
            # This day's planted rows, solved from the lagged regressors the
            # pipeline will compute on day s = j - 1.
            lo, hi = bounds[block], bounds[block + 1]
            rows, x, noise, s = rows_all[lo:hi], x_all[lo:hi], noise_all[lo:hi], j - 1
            ind = industry_of[rows]
            close_s = closes[rows, s]
            shaped = _bar_shape(close_s, targets[rows, s], zc[rows, s], np.empty((3, rows.size)))
            x[:, 3] = garman_klass(*shaped, close_s) * RANGE_SCALE
            mean60_s = (vol_prefix[rows, s] - vol_prefix[rows, s - 60]) / 60.0
            x[:, 4] = _libm(math.log, vols[rows, s] / mean60_s)
            x[:, 5] = _libm(math.log, close_s / closes[rows, s - 1]) - ind_logret[ind, s]
            # one fsum pass, row by row: the range, ret_ex and delta_volume sums of beta . x
            sums = map(math.fsum, (x[:, None, :] * betas).reshape(-1, len(BETA_KEYS)).tolist())
            y_range, y_ret, y_dvol = (np.fromiter(sums, float, count=3 * rows.size).reshape(-1, 3) + noise).T
            low = y_range < RANGE_FLOOR_X100
            n_clamped += int(low.sum())
            y_range[low] = RANGE_FLOOR_X100
            targets[rows, j] = y_range / RANGE_SCALE
            closes[rows, j] = close_s * _libm(math.exp, y_ret + ind_logret[ind, j])
            mean60_t = (vol_prefix[rows, j] - vol_prefix[rows, j - 60]) / 60.0
            vols[rows, j] = mean60_t * _libm(math.exp, y_dvol)
        vol_prefix[:, j + 1] = vol_prefix[:, j] + vols[:, j]
    n_planted = rows_all.size
    # the blocks go with the last day's views of them, which keep them alive
    del growth, vol_prefix, rows_all, x_all, noise_all, rows, x, noise

    # open, high and low into the grid's first three planes, each one flat
    _bar_shape(closes.ravel(), targets.ravel(), zc.ravel(), [plane[:-1].reshape(-1) for plane in grid[:3]])
    bars = BarGrid(stock_ids, np.zeros(grid.shape[1:], dtype=bool), *grid)
    bars.present[:-1] = True

    # --- assemble ------------------------------------------------------------
    industry_rows = [
        (sid, INDUSTRY_IDS[industry_of[i]], SECTORS[industry_of[i]])
        for i, sid in enumerate(stock_ids)
    ]

    train_range = (
        cal_dates[spec.warmup_days],
        cal_dates[spec.warmup_days + spec.train_days - 1],
    )
    test_range = (
        cal_dates[spec.warmup_days + spec.train_days],
        cal_dates[spec.warmup_days + spec.n_days - 1],
    )

    truth = {
        "format_version": 1,
        "seed": spec.seed,
        "n_stocks": spec.n_stocks,
        "n_days": spec.n_days,
        "reports_per_day": spec.reports_per_day,
        "n_reports": len(records),
        "n_multi_stock_reports": len(codes) - len(report_ids),  # a multi-stock report cites two
        "n_planted_outcomes": n_planted,
        "n_range_targets_clamped": n_clamped,
        "betas": {k: dict(v) for k, v in spec.betas.items()},
        "noise": dict(spec.noise),
        "vix_mode": "diff",
        "train_range": [train_range[0].isoformat(), train_range[1].isoformat()],
        "test_range": [test_range[0].isoformat(), test_range[1].isoformat()],
    }

    return SynthDataset(
        records=records,
        scores=scores,
        bars=bars,
        index_rows=levels,
        industry_rows=industry_rows,
        calendar_dates=cal_dates,
        train_range=train_range,
        test_range=test_range,
        truth=truth,
    )


def _write_grid(path, header: tuple[str, ...], grid: BarGrid | IndexGrid, planes, dates: list[str]) -> None:
    """Write the present cells of ``grid`` as csv rows of id, ISO date and
    the ``repr`` of each of ``planes`` (its value arrays) there, id by id in
    day order; one id's values become Python floats at a time."""
    with open(path, "w", encoding="utf-8", newline="") as stream:
        stream.write(",".join(header) + "\n")
        for row, key in enumerate(grid.ids):
            have = grid.present[row]
            for day, *values in zip(np.flatnonzero(have).tolist(), *(plane[row, have].tolist() for plane in planes)):
                stream.write(f"{key},{dates[day]},{','.join(map(repr, values))}\n")


def write_dataset(dataset: SynthDataset, out_dir, seed: int = 0) -> dict[str, Path]:
    """Write all dataset files plus a ready-to-run config; returns paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "corpus": out / "corpus.csv",
        "bars": out / "bars.csv",
        "indices": out / "indices.csv",
        "industry": out / "industry.csv",
        "calendar": out / "calendar.txt",
        "scores": out / "scores.csv",
        "truth": out / "truth.json",
        "config": out / "config.json",
    }

    serialize_corpus(dataset.records, paths["corpus"])

    bars, levels = dataset.bars, dataset.index_rows
    dates = [d.isoformat() for d in dataset.calendar_dates]
    prices = (bars.open, bars.high, bars.low, bars.close, bars.volume)
    _write_grid(paths["bars"], BARS_HEADER, bars, prices, dates)
    _write_grid(paths["indices"], INDICES_HEADER, levels, (levels.levels,), dates)

    write_csv_rows(paths["industry"], INDUSTRY_HEADER, dataset.industry_rows)

    with open(paths["calendar"], "w", encoding="utf-8") as stream:
        stream.write("".join(d.isoformat() + "\n" for d in dataset.calendar_dates))

    write_scores(dataset.scores, paths["scores"])

    with open(paths["truth"], "w", encoding="utf-8") as stream:
        json.dump(dataset.truth, stream, indent=2)
        stream.write("\n")

    # config.json: every RunConfig key at its default, then this dataset's
    # files and ranges, an output directory beside them and the seed.
    config = {"format_version": FORMAT_VERSION}
    config.update((f.name, None if f.default is MISSING else f.default) for f in fields(RunConfig))
    train, test = dataset.train_range, dataset.test_range
    config.update(
        {key: path.name for key, path in paths.items() if key in config},
        train_start=train[0].isoformat(),
        train_end=train[1].isoformat(),
        test_start=test[0].isoformat(),
        test_end=test[1].isoformat(),
        out="out",
        seed=seed,
    )
    with open(paths["config"], "w", encoding="utf-8") as stream:
        json.dump(config, stream, indent=2)
        stream.write("\n")

    return paths
