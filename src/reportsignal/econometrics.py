"""Regression panel assembly, pooled OLS, and two-sample mean tests.

The panel has one row per (report, cited stock): sentiment scores and
market metrics measured on the release trading day, outcomes measured on
the next trading day. It is columnar: one float64 matrix with a column
per field, built from the gather kernels' arrays, its row checks run as
masks over the matrix, and the regressions select its columns and rows.
The majority samples are a matrix too. Presentation scaling lives here —
intraday range variance is multiplied by 100 and recommendation counts
divided by 100 — so coefficient magnitudes are comparable across tables
while t-statistics are unaffected.

OLS uses a QR decomposition (numerically stable orthogonal factorization)
with classical standard errors s^2 (X'X)^-1 by default and HC1 robust
errors behind a flag. Two-sided p-values come from the t-distribution CDF
evaluated through the regularized incomplete beta function, computed here
from its continued fraction (Numerical Recipes §6.4) by the modified Lentz
algorithm (Lentz 1976), with the symmetry switch past the fraction's
switch point and an asymptotic series for ln Gamma(a + 1/2) - ln Gamma(a)
at large a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date as Date
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .corpus import CorpusIndex, ReportColumns, write_csv_rows
from .errors import ArgumentError, DataError, NumericalError, SingularityError
from .labeling import NEGATIVE, POSITIVE
from .market import CSI500, MarketData, SSE, SZSE, VIX
from .metrics import (
    BLOCK,
    DOMAIN,
    GAP,
    HISTORY,
    NO_MAPPING,
    OFF_CALENDAR,
    OK,
    delta_volume,
    excess_return,
    first_failure,
    garman_klass_range,
    index_change,
    judged,
    label_window_return,
    recommendation_counts,
    tally,
)
from .sentiment import SentimentScore, classify_majority

RANGE_SCALE = 100.0
NUM_SCALE = 1.0 / 100.0
SE_TYPES = ("classical", "robust")  # ols_fit's standard errors
TTEST_MODES = ("welch", "pooled")  # mean_difference_test's statistics

# Regressor order of the main results table: constant, the two sentiment
# probabilities, lagged outcomes, market controls, citation counts.
REGRESSOR_NAMES = (
    "constant",
    "pos[t-1]",
    "neg[t-1]",
    "range[t-1]",
    "dvolume[t-1]",
    "ret_ex[t-1]",
    "szse[t-1]",
    "sse[t-1]",
    "csi500[t-1]",
    "vix[t-1]",
    "num90[t-1]",
    "num7[t-1]",
)

OUTCOME_NAMES = {"range": "range[t]", "ret_ex": "ret_ex[t]", "delta_volume": "dvolume[t]"}

# The fifteen named sectors of the industry robustness table; anything
# else is grouped under "Other".
NAMED_SECTORS = (
    "Material",
    "Telecom",
    "Real Estate",
    "Public Utilities",
    "Media",
    "Apparel",
    "Automobile",
    "Business Service",
    "Food, staples, retail",
    "Consumer Service",
    "Healthcare",
    "Bank",
    "Transport",
    "BioTech",
    "Capital Goods",
)
OTHER_SECTOR = "Other"
SECTORS = NAMED_SECTORS + (OTHER_SECTOR,)


# The panel's columns: the ids and outcome date of each row, then one
# float column per field, lagged fields measured on the release trading
# day and outcome fields on the following trading day.
PANEL_HEADER = (
    "report_id",
    "stock_id",
    "outcome_date",
    "pos_lag",
    "neg_lag",
    "range_lag",
    "retex_lag",
    "dvol_lag",
    "outcome_range",
    "outcome_retex",
    "outcome_dvol",
    "szse_lag",
    "sse_lag",
    "csi500_lag",
    "vix_lag",
    "num90_lag",
    "num7_lag",
)


@dataclass
class PanelBuildResult:
    """The regression panel, one row per (report, stock) observation.

    ``rows`` is a float64 matrix with one column per ``PANEL_HEADER[3:]``
    field, range values scaled by 100 and citation counts by 1/100; the
    ids and outcome date of row ``i`` are entry ``i`` of the three lists.
    """

    report_ids: list[str]
    stock_ids: list[str]
    outcome_dates: list[Date]
    rows: np.ndarray
    drops: dict[str, int]
    n_flagged_negative_range: int
    n_pairs: int

    @property
    def n_dropped(self) -> int:
        return sum(self.drops.values())


# The drop reason of each kernel status, for panel rows and majority samples.
PAIR_DROPS = {
    GAP: "missing market data",
    OFF_CALENDAR: "missing market data",
    NO_MAPPING: "no industry mapping",
    HISTORY: "insufficient history",
    DOMAIN: "volume domain",
}


def _check_rows(report_ids: Sequence[str], stock_ids: Sequence[str], rows: np.ndarray) -> None:
    """Raise DataError for the first row whose pos+neg exceeds one or that
    holds a non-finite value, naming the first failing check in that order."""
    pos_neg = rows[:, 0] + rows[:, 1]
    over = pos_neg > 1.0 + 1e-9
    finite = np.isfinite(rows)
    bad = np.flatnonzero(over | ~finite.all(axis=1))
    if bad.size:
        i = bad[0]
        row = f"row {report_ids[i]}/{stock_ids[i]}"
        if over[i]:
            raise DataError(f"{row}: pos+neg = {float(pos_neg[i])}")
        raise DataError(f"{row}: {PANEL_HEADER[3 + np.flatnonzero(~finite[i])[0]]} not finite")


def build_panel(
    reports: ReportColumns,
    scores: Mapping[str, SentimentScore],
    market: MarketData,
    corpus_index: CorpusIndex,
    start: Date,
    end: Date,
    vix_mode: str = "diff",
) -> PanelBuildResult:
    """Assemble the regression panel from reports released in [start, end].

    Every (report, cited stock) pair becomes one row; a report citing two
    stocks yields two rows sharing one score. Before any kernel runs, a
    pair is dropped for "no score", then "release date beyond calendar"
    (no trading day on or after the release), then "no outcome trading
    day" (the release trading day is the last); the kernels drop pairs
    missing an industry mapping, market data or volume history
    (``PAIR_DROPS``). Drops are tallied by reason, never imputed. A row
    whose pos+neg exceeds one or holds a non-finite value is a DataError.
    """
    calendar, n_days = market.calendar, len(market.calendar)
    report_of, cited, released = reports.pairs(start, end)
    pair_ids = list(reports.ids.take(report_of))
    pair_scores = list(map(scores.get, pair_ids))
    days = calendar.locate(released)
    drops = [
        (np.array([score is None for score in pair_scores], dtype=bool), "no score"),
        (days == n_days, "release date beyond calendar"),
        (days + 1 == n_days, "no outcome trading day"),
    ]
    kept = np.flatnonzero(judged(drops))

    stocks = market.bars.rows_of(reports.stocks)[cited[kept]]
    s = days[kept]
    t = s + 1
    parts = (
        garman_klass_range(market, stocks, s),
        excess_return(market, stocks, s),
        delta_volume(market, stocks, s),
        garman_klass_range(market, stocks, t),
        excess_return(market, stocks, t),
        delta_volume(market, stocks, t),
        index_change(market, market.indices.row(SZSE), s, "logdiff"),
        index_change(market, market.indices.row(SSE), s, "logdiff"),
        index_change(market, market.indices.row(CSI500), s, "logdiff"),
        index_change(market, market.indices.row(VIX), s, vix_mode),
    )
    status = first_failure(market, *parts)

    ok = np.flatnonzero(status == OK)
    accepted = kept[ok].tolist()
    report_ids = [pair_ids[i] for i in accepted]
    stock_ids = [reports.stocks[stock] for stock in cited[accepted].tolist()]
    outcome_days = t[ok]
    num7, num90 = recommendation_counts(corpus_index, cited[accepted], calendar.ordinals[outcome_days])
    range_lag, retex_lag, dvol_lag, outcome_range, outcome_retex, outcome_dvol, *index_changes = (
        part.values[ok] for part in parts
    )
    rows = np.column_stack(
        (
            np.array([pair_scores[i].pos for i in accepted], dtype=float),
            np.array([pair_scores[i].neg for i in accepted], dtype=float),
            range_lag * RANGE_SCALE,
            retex_lag,
            dvol_lag,
            outcome_range * RANGE_SCALE,
            outcome_retex,
            outcome_dvol,
            *index_changes,
            num90 * NUM_SCALE,
            num7 * NUM_SCALE,
        )
    )
    _check_rows(report_ids, stock_ids, rows)
    flagged = int(np.count_nonzero((range_lag < 0.0) | (outcome_range < 0.0)))
    outcome_dates = [calendar.dates[day] for day in outcome_days.tolist()]
    return PanelBuildResult(
        report_ids, stock_ids, outcome_dates, rows, tally(drops, status, PAIR_DROPS), flagged, len(days)
    )


def write_panel(panel: PanelBuildResult, path) -> None:
    """Write the panel as CSV, each float as its shortest round-trip ``repr``;
    the values become Python floats ``BLOCK`` rows at a time."""
    keys = zip(panel.report_ids, panel.stock_ids, map(Date.isoformat, panel.outcome_dates))
    blocks = (panel.rows[at : at + BLOCK].tolist() for at in range(0, len(panel.rows), BLOCK))
    rows = ((*key, *map(repr, values)) for key, values in zip(keys, chain.from_iterable(blocks)))
    write_csv_rows(path, PANEL_HEADER, rows)


# The incomplete beta fraction stops once a term moves it by less than
# _FRACTION_EPS relative; one still moving after _MAX_TERMS terms raises.
# Over df in [0.01, 1e12] and |t| in [1e-8, 1e4] it needs at most 56.
_FRACTION_EPS = 1e-15
_MAX_TERMS = 200
_TINY = 1e-300
# From this a on, ln Gamma(a + 1/2) - ln Gamma(a) comes from its series.
_SERIES_FROM = 20.0
_LN_SQRT_PI = 0.5 * math.log(math.pi)


def _log_gamma_half_ratio(a: float) -> float:
    """ln Gamma(a + 1/2) - ln Gamma(a).

    The ``math.lgamma`` difference cancels as a grows (each term is about
    a ln a; at a = 5e8 about 6 digits are left), so from a = 20 on the
    asymptotic series

        (1/2) ln a - 1/(8a) + 1/(192a^3) - 1/(640a^5) + 17/(14336a^7)

    is used instead; its first omitted term is below 4e-15 there.
    """
    if a < _SERIES_FROM:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    r = 1.0 / (a * a)
    return 0.5 * math.log(a) - (0.125 - r * (1.0 / 192.0 - r * (1.0 / 640.0 - r * (17.0 / 14336.0)))) / a


def _beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """The continued fraction F with I_x(a, b) = x^a y^b / (B(a, b) F),
    for x below the switch point (a + 1)/(a + b + 2) and y = 1 - x.

    F is the fraction of Numerical Recipes §6.4 contracted to every second
    convergent, with its terms written so that none cancels: lambda =
    a - (a + b) x is taken as (a + b) y - b when a > b, where x is near 1
    (DiDonato & Morris 1992, BFRAC). Evaluated by the modified Lentz
    algorithm (Lentz 1976): a zero denominator becomes _TINY.
    """
    c = 1.0 + ((a + b) * y - b if a > b else a - (a + b) * x)
    c0 = b / a
    c1 = 1.0 + 1.0 / a
    yp1 = 1.0 + y
    f = lentz_c = c / c1
    lentz_d = 0.0
    p = 1.0
    s = a + 1.0
    for n in range(1, _MAX_TERMS + 1):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * w * x
        beta = n + w / s + (1.0 + t) / (c1 + t + t) * (c + n * yp1)
        p = 1.0 + t
        s += 2.0
        lentz_d = 1.0 / (beta + alpha * lentz_d or _TINY)
        lentz_c = beta + alpha / lentz_c or _TINY
        delta = lentz_c * lentz_d
        f *= delta
        if abs(delta - 1.0) < _FRACTION_EPS:
            return f
    raise NumericalError(f"incomplete beta fraction did not converge in {_MAX_TERMS} terms (a={a}, b={b}, x={x})")


def student_t_sf2(t_stat: float, df: float) -> float:
    """Two-sided p-value P(|T| >= |t|) for Student's t with ``df`` dof.

    Uses P(|T| >= t) = I_x(a, 1/2) with x = df/(df + t^2) and a = df/2,
    where I is the regularized incomplete beta function, and I_x(a, b) =
    x^a (1 - x)^b / (B(a, b) F) for the continued fraction F of Numerical
    Recipes §6.4, evaluated by the modified Lentz algorithm (Lentz 1976;
    ``_beta_fraction``). Past the switch point x >= (a + 1)/(a + 5/2) it
    uses the symmetry I_x(a, b) = 1 - I_{1-x}(b, a). The ln Gamma(a + 1/2)
    - ln Gamma(a) in ln B(a, 1/2) comes from ``math.lgamma`` for a < 20
    and from its large-a asymptotic series above that.

    t = 0 gives 1 and t = +-inf gives 0; ``df`` must be positive. A
    fraction that does not converge raises ``NumericalError``.
    """
    if t_stat == 0.0:
        return 1.0
    if math.isinf(t_stat):
        return 0.0
    x = df / (df + t_stat * t_stat)
    if not 0.0 < x < 1.0:
        # NaN (a NaN t or df), 0 (t^2 overflows) or 1 (t^2 is lost in df):
        # each is its own p-value, and the logarithms below need 0 < x < 1.
        return x
    a = 0.5 * df
    y = 1.0 - x
    front = math.exp(_log_gamma_half_ratio(a) - _LN_SQRT_PI + a * math.log(x) + 0.5 * math.log(y))
    if x < (a + 1.0) / (a + 2.5):
        return front / _beta_fraction(a, 0.5, x, y)
    return 1.0 - front / _beta_fraction(0.5, a, y, x)


@dataclass
class RegressionFit:
    """OLS estimates for one outcome, aligned with ``regressors``."""

    regressors: tuple[str, ...]
    coef: np.ndarray
    se: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    n_obs: int
    r_squared: float


def ols_fit(
    design: np.ndarray,
    response: np.ndarray,
    regressors: Sequence[str],
    se_type: str = "classical",
) -> RegressionFit:
    """Least squares via QR with classical or HC1 standard errors of an
    (n, k) float ``design`` with k ``regressors`` names and an (n,) ``response``.

    Requires n > k and a full-column-rank design (checked against the R
    factor's diagonal with a size-scaled tolerance; offending columns are
    named in the error). t = coef/SE and two-sided p-values use n - k
    degrees of freedom.
    """
    n, k = design.shape
    if n <= k:
        raise ArgumentError(f"need more observations than parameters, got n={n}, k={k}")

    Q, R = np.linalg.qr(design)
    diag = np.abs(np.diag(R))
    tol = max(n, k) * np.finfo(float).eps * (diag.max() if diag.size else 0.0)
    bad = [regressors[j] for j in range(k) if diag[j] <= tol]
    if bad:
        raise SingularityError(f"rank-deficient design matrix; offending columns: {', '.join(bad)}")

    qty = Q.T @ response
    coef = np.linalg.solve(R, qty)
    resid = response - design @ coef
    rss = float(resid @ resid)
    df_resid = n - k

    r_inv = np.linalg.solve(R, np.eye(k))
    xtx_inv = r_inv @ r_inv.T
    s2 = rss / df_resid
    if se_type == "classical":
        cov = s2 * xtx_inv
    else:
        # HC1: White sandwich with the n/(n-k) small-sample correction.
        meat = (design * (resid**2)[:, None]).T @ design
        cov = xtx_inv @ meat @ xtx_inv * (n / df_resid)

    se = np.sqrt(np.diag(cov))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(se > 0.0, coef / se, np.inf * np.sign(coef))
    p_values = np.array([student_t_sf2(float(t), df_resid) for t in t_stats])

    y_centered = response - response.mean()
    tss = float(y_centered @ y_centered)
    r_squared = 1.0 - rss / tss if tss > 0.0 else float("nan")

    return RegressionFit(regressors, coef, se, t_stats, p_values, n, r_squared)


# The panel column of each regressor after the constant, and of each outcome.
_DESIGN_COLUMNS = [
    PANEL_HEADER.index(f"{name}_lag") - 3
    for name in ("pos", "neg", "range", "dvol", "retex", "szse", "sse", "csi500", "vix", "num90", "num7")
]
_OUTCOME_COLUMNS = {
    outcome: PANEL_HEADER.index(f"outcome_{name}") - 3
    for outcome, name in (("range", "range"), ("ret_ex", "retex"), ("delta_volume", "dvol"))
}


def panel_design(rows: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Design matrix in reporting order plus the three outcome vectors,
    each a contiguous copy of its panel columns."""
    X = np.empty((len(rows), len(REGRESSOR_NAMES)))
    X[:, 0] = 1.0
    X[:, 1:] = rows[:, _DESIGN_COLUMNS]
    return X, {outcome: rows[:, j].copy() for outcome, j in _OUTCOME_COLUMNS.items()}


def run_pooled_regressions(rows: np.ndarray, se_type: str = "classical") -> dict[str, RegressionFit]:
    """The three pooled regressions of a panel matrix: range, excess return, volume change."""
    X, outcomes = panel_design(rows)
    return {outcome: ols_fit(X, y, REGRESSOR_NAMES, se_type=se_type) for outcome, y in outcomes.items()}


@dataclass
class SectorResult:
    sector: str
    n_rows: int
    fits: dict[str, RegressionFit] | None  # None when skipped


def canonical_sector(raw: str) -> str:
    return raw if raw in NAMED_SECTORS else OTHER_SECTOR


def run_industry_regressions(
    panel: PanelBuildResult,
    market: MarketData,
    min_rows: int = 50,
    se_type: str = "classical",
) -> list[SectorResult]:
    """Per-sector regressions; small or degenerate sectors are skipped.

    Sector membership comes from the industry map with unnamed sectors
    grouped as "Other"; the per-sector row counts always partition the
    panel, and each sector keeps the panel's row order. Sectors below
    ``min_rows`` — or whose subset design is singular — are reported as
    skipped rather than fit.
    """
    code_of = {
        stock_id: SECTORS.index(canonical_sector(market.industry.sector(stock_id)))
        for stock_id in dict.fromkeys(panel.stock_ids)
    }
    codes = np.array([code_of[stock_id] for stock_id in panel.stock_ids], dtype=np.intp)
    results = []
    for code, sector in enumerate(SECTORS):
        subset = panel.rows[codes == code]
        if not len(subset):
            continue
        if len(subset) < min_rows:
            results.append(SectorResult(sector, len(subset), None))
            continue
        try:
            fits = run_pooled_regressions(subset, se_type=se_type)
        except (SingularityError, ArgumentError):
            fits = None
        results.append(SectorResult(sector, len(subset), fits))
    return results


@dataclass
class MeanTestResult:
    """Two-sample difference-in-means test for one variable."""

    mean_a: float
    std_a: float
    n_a: int
    mean_b: float
    std_b: float
    n_b: int
    t_stat: float
    p_value: float
    df: float
    mode: str


def mean_difference_test(
    group_a: Sequence[float],
    group_b: Sequence[float],
    mode: str = "welch",
) -> MeanTestResult:
    """Two-sample t-test of mean(A) - mean(B).

    'welch' (default) allows unequal variances and uses the
    Welch-Satterthwaite degrees of freedom

        df = (va/na + vb/nb)^2 / [(va/na)^2/(na-1) + (vb/nb)^2/(nb-1)];

    'pooled' assumes equal variances with df = na + nb - 2. Both groups
    need two observations, which ``majority_group_tests`` ensures.
    Identical group means give t = 0 exactly; swapping the groups negates t.
    """
    a = np.asarray(group_a, dtype=float)
    b = np.asarray(group_b, dtype=float)
    na, nb = len(a), len(b)
    mean_a, mean_b = float(a.mean()), float(b.mean())
    va = float(a.var(ddof=1))
    vb = float(b.var(ddof=1))
    diff = mean_a - mean_b
    if mode == "welch":
        qa, qb = va / na, vb / nb
        se = math.sqrt(qa + qb)
        if qa + qb > 0.0:
            df = (qa + qb) ** 2 / (qa * qa / (na - 1) + qb * qb / (nb - 1))
        else:
            df = float(na + nb - 2)
    else:
        pooled_var = ((na - 1) * va + (nb - 1) * vb) / (na + nb - 2)
        se = math.sqrt(pooled_var * (1.0 / na + 1.0 / nb))
        df = float(na + nb - 2)
    if diff == 0.0:
        t_stat = 0.0
    elif se == 0.0:
        t_stat = math.inf if diff > 0 else -math.inf
    else:
        t_stat = diff / se
    p_value = student_t_sf2(t_stat, df)
    return MeanTestResult(mean_a, float(math.sqrt(va)), na, mean_b, float(math.sqrt(vb)), nb, t_stat, p_value, df, mode)


# Variables of the group-comparison table: excess returns around the
# release day, the three-day average, then volume change and range.
MAJORITY_VARIABLES = (
    "ret_ex[t]",
    "ret_ex[t-1]",
    "ret_ex[t+1]",
    "ret_ex[3day]",
    "dvolume",
    "range",
)


def build_majority_samples(
    reports: ReportColumns,
    hits_by_report: Mapping[str, tuple[int, int, int]],
    market: MarketData,
    start: Date,
    end: Date,
) -> tuple[list[str], np.ndarray, dict[str, int]]:
    """Join majority classes to release-day metrics for each (report, stock)
    pair of the reports released in [start, end].

    Returns the majority class of each sample, a float64 matrix with one
    row per sample and one column per ``MAJORITY_VARIABLES`` entry (t is
    the release trading day itself, range scaled by 100), and the drops.
    ``hits_by_report`` holds the (positive, neutral, negative) lexicon hits
    of each report's cleaned text. Before any kernel runs, a pair is
    dropped for "no tokens" (its report has no hit counts), then for
    "missing market data" (the release trading day is the calendar's first
    or last, or there is none); the kernels drop the rest that miss market
    data, like panel rows (``PAIR_DROPS``).
    """
    report_of, cited, released = reports.pairs(start, end)
    pair_hits = list(map(hits_by_report.get, reports.ids.take(report_of)))
    days = market.calendar.locate(released)
    drops = [
        (np.array([hits is None for hits in pair_hits], dtype=bool), "no tokens"),
        ((days < 1) | (days >= len(market.calendar) - 1), "missing market data"),
    ]
    kept = np.flatnonzero(judged(drops))

    stocks = market.bars.rows_of(reports.stocks)[cited[kept]]
    s = days[kept]
    parts = (
        excess_return(market, stocks, s),
        excess_return(market, stocks, s - 1),
        excess_return(market, stocks, s + 1),
        label_window_return(market, stocks, s),
        delta_volume(market, stocks, s),
        garman_klass_range(market, stocks, s),
    )
    status = first_failure(market, *parts)

    ok = np.flatnonzero(status == OK)
    values = np.column_stack([part.values[ok] for part in parts])
    values[:, -1] *= RANGE_SCALE
    classes = [classify_majority(pair_hits[i]) for i in kept[ok].tolist()]
    return classes, values, tally(drops, status, PAIR_DROPS)


def majority_group_tests(
    classes: Sequence[str], values: np.ndarray, mode: str = "welch"
) -> list[MeanTestResult | None]:
    """Positive-group vs negative-group tests, one per table variable, over
    the samples of ``build_majority_samples``.

    Entries are None (untestable) when either group has fewer than two
    samples; neutral-class samples never participate.
    """
    # one contiguous row per variable, in sample order
    group_a = values[np.array([cls == POSITIVE for cls in classes], dtype=bool)].T.copy()
    group_b = values[np.array([cls == NEGATIVE for cls in classes], dtype=bool)].T.copy()
    if group_a.shape[1] < 2 or group_b.shape[1] < 2:
        return [None] * len(MAJORITY_VARIABLES)
    return [mean_difference_test(a, b, mode=mode) for a, b in zip(group_a, group_b)]
