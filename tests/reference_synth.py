"""The scalar generator: the per-stock x per-day loop that
``synthkit.generate`` replaced with array code, kept as the reference its
output must match byte for byte. Like the generator, it scales the
regressors by the panel's own ``RANGE_SCALE`` and ``NUM_SCALE``.
"""

from __future__ import annotations

import math
from datetime import date as Date

import numpy as np

from reportsignal.econometrics import NUM_SCALE, RANGE_SCALE, SECTORS
from reportsignal.market import CSI500, SSE, SZSE, VIX
from reportsignal.sentiment import SentimentScore
from reportsignal.synthkit import (
    BASE_PRICE,
    BASE_RANGE,
    BASE_VOLUME,
    BETA_KEYS,
    IDIO_VOL,
    INDEX_VOL,
    INDUSTRY_IDS,
    INDUSTRY_VOL,
    POST_DAYS,
    PRICE_SPREAD,
    RANGE_FLOOR_X100,
    RANGE_SPREAD,
    RISK_WARNING_RATE,
    SCORE_ALPHA,
    START_DATE,
    TOKENS_PER_ABSTRACT,
    TOKENS_PER_TITLE,
    VIX_BASE,
    VIX_VOL,
    VOLUME_BASE_SPREAD,
    VOLUME_SD,
    SynthDataset,
    SynthSpec,
    _lexicon_word_lists,
    _weekdays,
)
from tests.reference_market import (
    CorpusIndex,
    DailyBar,
    ReportRecord,
    columns_of,
    garman_klass,
    recommendation_counts,
)


def generate_scalar(spec: SynthSpec) -> SynthDataset:
    """Generate one dataset with the scalar loops; its ``bars`` are a list
    of DailyBar rows in stock, then day order, and its ``index_rows`` a
    list of (index, date, level) rows in index, then day order."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    n_cal = spec.warmup_days + spec.n_days + POST_DAYS
    cal_dates = _weekdays(START_DATE, n_cal)

    # --- index level series ------------------------------------------------
    index_levels: dict[str, np.ndarray] = {}
    for index_id, base in ((SSE, 3300.0), (SZSE, 2100.0), (CSI500, 6000.0)):
        steps = rng.normal(0.0, INDEX_VOL, n_cal - 1)
        index_levels[index_id] = base * np.exp(np.concatenate(([0.0], np.cumsum(steps))))
    for index_id in INDUSTRY_IDS:
        steps = rng.normal(0.0, INDUSTRY_VOL, n_cal - 1)
        index_levels[index_id] = 5000.0 * np.exp(np.concatenate(([0.0], np.cumsum(steps))))
    # Lognormal walk: always positive with no flat stretches, so the
    # day-to-day VIX differences never degenerate into a constant column.
    vix_steps = rng.normal(0.0, VIX_VOL, n_cal - 1)
    index_levels[VIX] = VIX_BASE * np.exp(
        np.concatenate(([0.0], np.cumsum(vix_steps)))
    )

    # Log returns via math.log, element by element, matching the pipeline's
    # arithmetic bit for bit (np.log can differ in the last ulp).
    index_logret: dict[str, list[float]] = {}
    for index_id, levels in index_levels.items():
        if index_id == VIX:
            continue
        floats = [float(v) for v in levels]
        index_logret[index_id] = [math.nan] + [
            math.log(b / a) for a, b in zip(floats, floats[1:])
        ]
    vix_floats = [float(v) for v in index_levels[VIX]]
    vix_diff = [math.nan] + [b - a for a, b in zip(vix_floats, vix_floats[1:])]

    # --- stocks -------------------------------------------------------------
    stock_ids = [f"{600000 + i}.SH" for i in range(spec.n_stocks)]
    industry_of = [i % len(SECTORS) for i in range(spec.n_stocks)]
    close0 = BASE_PRICE * np.exp(rng.normal(0.0, PRICE_SPREAD, spec.n_stocks))
    vbase = BASE_VOLUME * np.exp(rng.normal(0.0, VOLUME_BASE_SPREAD, spec.n_stocks))

    # --- report schedule, scores, text, outcome noise ------------------------
    pos_words, neu_words, neg_words = _lexicon_word_lists()
    class_words = (pos_words, neu_words, neg_words)
    warning_tail = " 风险提示 后市存在波动"

    records: list[ReportRecord] = []
    scores: list[SentimentScore] = []
    # (stock index, calendar pos of outcome day) -> planted values
    slots: dict[tuple[int, int], tuple[float, float, float, float, float]] = {}
    n_multi = 0
    sd_range = spec.noise["range"]
    sd_ret = spec.noise["ret_ex"]
    sd_dvol = spec.noise["delta_volume"]
    n_tokens = TOKENS_PER_TITLE + TOKENS_PER_ABSTRACT

    prev_cited: set[int] = set()
    for day_pos in range(spec.warmup_days, spec.warmup_days + spec.n_days):
        day = cal_dates[day_pos]
        perm = rng.permutation(spec.n_stocks)
        n_reports = spec.reports_per_day
        multi_flags = rng.random(n_reports) < spec.multi_stock_rate
        score_draws = rng.dirichlet(SCORE_ALPHA, n_reports)
        class_u = rng.random((n_reports, n_tokens))
        word_u = rng.random((n_reports, n_tokens))
        warn_u = rng.random(n_reports)
        eps = rng.normal(0.0, 1.0, (n_reports, 2, 3))

        # Stocks covered yesterday sit out today's draw.  A covered
        # stock's next-day bar embeds that report's outcome noise, so
        # covering it again immediately would feed the noise back into
        # the new row's lagged regressors; a one-day gap keeps every
        # regressor window clear of planted noise.
        pool = [int(s) for s in perm if int(s) not in prev_cited]
        today_cited: set[int] = set()
        cursor = 0
        for r in range(n_reports):
            n_cited = 2 if multi_flags[r] else 1
            cited = [pool[cursor + j] for j in range(n_cited)]
            cursor += n_cited
            today_cited.update(cited)
            if n_cited == 2:
                n_multi += 1
            triple = score_draws[r]
            pos, neu, neg = float(triple[0]), float(triple[1]), float(triple[2])

            cum1, cum2 = pos, pos + neu
            tokens = []
            for t in range(n_tokens):
                u = class_u[r, t]
                cls = 0 if u < cum1 else (1 if u < cum2 else 2)
                words = class_words[cls]
                tokens.append(words[min(int(word_u[r, t] * len(words)), len(words) - 1)])
            title = "".join(tokens[:TOKENS_PER_TITLE])
            abstract = "".join(tokens[TOKENS_PER_TITLE:])
            if warn_u[r] < RISK_WARNING_RATE:
                abstract += warning_tail

            report_id = f"R{day_pos:04d}{r:03d}"
            records.append(
                ReportRecord(
                    report_id,
                    title,
                    abstract,
                    tuple(stock_ids[s] for s in cited),
                    day,
                )
            )
            scores.append(SentimentScore(report_id, pos, neu, neg))
            for j, stock_idx in enumerate(cited):
                slots[(stock_idx, day_pos + 1)] = (
                    pos,
                    neg,
                    float(eps[r, j, 0]) * sd_range,
                    float(eps[r, j, 1]) * sd_ret,
                    float(eps[r, j, 2]) * sd_dvol,
                )
        prev_cited = today_cited

    # the citation-count regressors come from the pipeline's own index
    corpus_index = CorpusIndex(records)

    # --- bar chains ----------------------------------------------------------
    beta_r = [spec.betas["range"][k] for k in BETA_KEYS]
    beta_e = [spec.betas["ret_ex"][k] for k in BETA_KEYS]
    beta_d = [spec.betas["delta_volume"][k] for k in BETA_KEYS]
    bars: list[DailyBar] = []
    n_planted = 0
    n_clamped = 0

    for idx, sid in enumerate(stock_ids):
        ind_ret = index_logret[INDUSTRY_IDS[industry_of[idx]]]
        idio = rng.normal(0.0, IDIO_VOL, n_cal)
        nat_range = BASE_RANGE * np.exp(rng.normal(0.0, RANGE_SPREAD, n_cal))
        zc = np.clip(rng.normal(0.0, 1.0, n_cal), -2.0, 2.0)
        vnoise = rng.normal(0.0, VOLUME_SD, n_cal)

        closes = [0.0] * n_cal
        vols = [0.0] * n_cal
        gk = [0.0] * n_cal
        vol_prefix = [0.0]

        for j in range(n_cal):
            slot = slots.get((idx, j))
            if slot is None:
                close = (
                    float(close0[idx])
                    if j == 0
                    else closes[j - 1] * math.exp(float(ind_ret[j]) + float(idio[j]))
                )
                target = float(nat_range[j])
                vol = float(vbase[idx]) * math.exp(float(vnoise[j]))
            else:
                n_planted += 1
                pos, neg, eps_r, eps_e, eps_d = slot
                s = j - 1
                num7, num90 = recommendation_counts(corpus_index, sid, cal_dates[j])
                mean60_s = (vol_prefix[s] - vol_prefix[s - 60]) / 60.0
                x = (
                    1.0,
                    pos,
                    neg,
                    gk[s] * RANGE_SCALE,
                    math.log(vols[s] / mean60_s),
                    math.log(closes[s] / closes[s - 1]) - float(ind_ret[s]),
                    float(index_logret[SZSE][s]),
                    float(index_logret[SSE][s]),
                    float(index_logret[CSI500][s]),
                    float(vix_diff[s]),
                    num90 * NUM_SCALE,
                    num7 * NUM_SCALE,
                )
                y_range = math.fsum(b * v for b, v in zip(beta_r, x)) + eps_r
                y_ret = math.fsum(b * v for b, v in zip(beta_e, x)) + eps_e
                y_dvol = math.fsum(b * v for b, v in zip(beta_d, x)) + eps_d
                if y_range < RANGE_FLOOR_X100:
                    y_range = RANGE_FLOOR_X100
                    n_clamped += 1
                target = y_range / RANGE_SCALE
                close = closes[j - 1] * math.exp(y_ret + float(ind_ret[j]))
                mean60_t = (vol_prefix[j] - vol_prefix[j - 60]) / 60.0
                vol = mean60_t * math.exp(y_dvol)

            # Bar around the close: overnight gap absorbs the return, the
            # intraday shape is solved from the range target (see module
            # docstring for the algebra).
            c = float(zc[j]) * 0.4 * math.sqrt(target)
            m = math.sqrt((target + 0.3925 * c * c) / 2.006)
            o = close / math.exp(c)
            h = o * math.exp(0.5 * c + m)
            l = o * math.exp(0.5 * c - m)

            closes[j] = close
            vols[j] = vol
            vol_prefix.append(vol_prefix[-1] + vol)
            gk[j] = garman_klass(o, h, l, close)
            bars.append(
                DailyBar(sid, cal_dates[j], float(o), float(h), float(l), float(close), float(vol))
            )

    # --- assemble ------------------------------------------------------------
    index_rows: list[tuple[str, Date, float]] = []
    for index_id in (SSE, SZSE, CSI500) + INDUSTRY_IDS + (VIX,):
        levels = index_levels[index_id]
        for j in range(n_cal):
            index_rows.append((index_id, cal_dates[j], float(levels[j])))

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
        "n_multi_stock_reports": n_multi,
        "n_planted_outcomes": n_planted,
        "n_range_targets_clamped": n_clamped,
        "betas": {k: dict(v) for k, v in spec.betas.items()},
        "noise": dict(spec.noise),
        "vix_mode": "diff",
        "train_range": [train_range[0].isoformat(), train_range[1].isoformat()],
        "test_range": [test_range[0].isoformat(), test_range[1].isoformat()],
    }

    return SynthDataset(
        records=columns_of(records),
        scores=scores,
        bars=bars,
        index_rows=index_rows,
        industry_rows=industry_rows,
        calendar_dates=cal_dates,
        train_range=train_range,
        test_range=test_range,
        truth=truth,
    )
