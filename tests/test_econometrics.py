"""Unit tests for the panel, OLS machinery, and mean-difference tests."""

import csv
import math
import random
from datetime import date as Date
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from reportsignal import econometrics
from reportsignal.config import packaged_data_path
from reportsignal.econometrics import (
    MAJORITY_VARIABLES,
    PANEL_HEADER,
    REGRESSOR_NAMES,
    PanelBuildResult,
    build_majority_samples,
    build_panel,
    majority_group_tests,
    mean_difference_test,
    ols_fit,
    panel_design,
    run_industry_regressions,
    run_pooled_regressions,
    student_t_sf2,
    write_panel,
)
from reportsignal.errors import ArgumentError, DataError, NumericalError, SchemaError, SingularityError
from reportsignal.market import IndustryMap
from reportsignal.metrics import BLOCK
from reportsignal.sentiment import load_lexicon, prepare_report
from tests.helpers import assemble, estimate, ranges_of, read_panel, small_dataset
from tests.reference_market import records_of, write_panel as write_panel_one_pass


def test_t_distribution_tail_anchors():
    """Two-sided p-values against published t-table quantiles and
    high-precision reference evaluations."""
    anchors = [
        (2.228138852, 10, 0.05, 1e-9),
        (2.085963447, 20, 0.05, 1e-9),
        (1.959963985, 1e9, 0.05, 1e-6),
        (0.5, 5, 0.638298871640929, 1e-12),
        (3.75, 7, 0.0071681548040007, 1e-12),
        (7.0, 3, 0.0059862556977071, 1e-12),
        (2.5, 33.7, 0.0174534925521264, 1e-12),
        (1.0, 1, 0.5, 1e-12),
        (2.0, 1, 0.295167235300867, 1e-12),
        (1.0, 2, 0.422649730810374, 1e-12),
    ]
    for t_stat, df, want, tol in anchors:
        assert abs(student_t_sf2(t_stat, df) - want) < tol
        assert student_t_sf2(-t_stat, df) == student_t_sf2(t_stat, df)


def test_t_distribution_matches_reference_table():
    """p-values against scipy's ``betainc`` at 1e-10 relative. The grid is
    t = 10**(k/4) for k = -24..10 (1e-6 to 316) and df = 1..10, the
    Welch-like 2.5, 33.7 and 4000.5, 39.5 and 40.5 on either side of the
    switch to the large-a series (a = 20), and 65, 1e5, 5e5, 1e6 and 1e9.
    At df = 1e6 and 1e9 a front factor from the ``math.lgamma`` difference
    alone is off by 3e-9 and 5e-6 relative. The table was written with
    scipy 1.17.1, before the package dropped it, by::

        import csv
        from scipy.special import betainc

        ts = [10.0 ** (k / 4) for k in range(-24, 11)]
        dfs = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 2.5, 33.7, 39.5, 40.5, 65, 4000.5, 1e5, 5e5, 1e6, 1e9]
        with open("tests/data/t_sf2_reference.csv", "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\\n")
            out.writerow(["t", "df", "p"])
            for df in map(float, dfs):
                for t in ts:
                    p = betainc(df / 2, 0.5, df / (df + t * t))
                    out.writerow([repr(t), repr(df), repr(float(p))])
    """
    with open(Path(__file__).parent / "data" / "t_sf2_reference.csv", newline="") as fh:
        table = [tuple(map(float, row)) for row in list(csv.reader(fh))[1:]]
    assert len(table) == 35 * 20
    off = [(t, df, want, got) for t, df, want in table if abs((got := student_t_sf2(t, df)) - want) > 1e-10 * want]
    assert off == []


def test_t_distribution_edge_cases(monkeypatch):
    assert student_t_sf2(0.0, 7) == 1.0
    assert student_t_sf2(math.inf, 7) == 0.0
    assert student_t_sf2(-math.inf, 7) == 0.0
    with pytest.raises(ArgumentError):
        student_t_sf2(1.0, 0.0)
    with pytest.raises(ArgumentError):
        student_t_sf2(1.0, -3.0)
    # df / (df + t^2) rounds to 1.0 here.
    assert student_t_sf2(5e-6, 3e5) == 1.0
    assert math.isnan(student_t_sf2(math.nan, 7))
    assert math.isnan(student_t_sf2(2.0, math.nan))
    monkeypatch.setattr(econometrics, "_MAX_TERMS", 2)
    with pytest.raises(NumericalError) as caught:
        student_t_sf2(2.0, 65)
    assert caught.value.exit_code == 3


def test_ols_on_a_hand_worked_example():
    """y on (1, x) with x = 0..3, y = (1, 3, 4, 7): slope 1.9, intercept
    0.9, rss 0.7, and the standard errors that follow from s^2 = 0.35."""
    X = np.column_stack([np.ones(4), np.arange(4.0)])
    y = np.array([1.0, 3.0, 4.0, 7.0])
    fit = ols_fit(X, y, ["constant", "x"], name="toy")
    coef_c, se_c, t_c, p_c = estimate(fit, "constant")
    coef_x, se_x, t_x, p_x = estimate(fit, "x")
    assert abs(coef_x - 1.9) < 1e-12
    assert abs(coef_c - 0.9) < 1e-12
    assert abs(fit.rss - 0.7) < 1e-12
    assert fit.n_obs == 4 and fit.df_resid == 2
    assert abs(se_x - math.sqrt(0.35 / 5.0)) < 1e-12
    assert abs(se_c - math.sqrt(0.35 * 0.7)) < 1e-12
    assert abs(t_x - coef_x / se_x) < 1e-12
    assert abs(fit.r_squared - (1.0 - 0.7 / 18.75)) < 1e-12
    assert abs(p_x - student_t_sf2(t_x, 2)) < 1e-15


def test_ols_matches_normal_equations_on_random_data():
    rng = np.random.default_rng(7)
    X = np.column_stack([np.ones(40), rng.normal(size=(40, 4))])
    y = rng.normal(size=40)
    fit = ols_fit(X, y)
    xtx = X.T @ X
    beta = np.linalg.solve(xtx, X.T @ y)
    assert np.allclose(fit.coef, beta, rtol=1e-10, atol=1e-12)
    resid = y - X @ beta
    s2 = resid @ resid / (40 - 5)
    se = np.sqrt(np.diag(s2 * np.linalg.inv(xtx)))
    assert np.allclose(fit.se, se, rtol=1e-10, atol=1e-12)


def test_robust_errors_match_the_direct_sandwich():
    rng = np.random.default_rng(8)
    X = np.column_stack([np.ones(60), rng.normal(size=(60, 3))])
    y = rng.normal(size=60) * (1.0 + np.abs(X[:, 1]))
    fit = ols_fit(X, y, se_type="robust")
    xtx_inv = np.linalg.inv(X.T @ X)
    beta = xtx_inv @ X.T @ y
    resid = y - X @ beta
    meat = X.T @ np.diag(resid**2) @ X
    cov = xtx_inv @ meat @ xtx_inv * (60 / (60 - 4))
    assert np.allclose(fit.se, np.sqrt(np.diag(cov)), rtol=1e-10)
    assert fit.se_type == "robust"
    classical = ols_fit(X, y)
    assert not np.allclose(fit.se, classical.se)


def test_exact_fit_yields_infinite_t_statistics():
    # orthonormal design, so the fit is exact in floating point: rss is
    # a true 0.0 and the zero-SE branch produces signed infinities
    X = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    y = np.array([4.0, -5.0, 0.0])
    fit = ols_fit(X, y)
    assert list(fit.coef) == [4.0, -5.0]
    assert fit.rss == 0.0
    assert fit.t_stats[0] == math.inf and fit.t_stats[1] == -math.inf
    assert fit.p_values[0] == 0.0 and fit.p_values[1] == 0.0
    assert fit.r_squared == 1.0


def test_singular_design_names_the_offending_column():
    x = np.arange(6.0)
    X = np.column_stack([np.ones(6), x, 2.0 * x])
    with pytest.raises(SingularityError) as exc:
        ols_fit(X, np.ones(6), ["constant", "x", "x_doubled"])
    assert "x_doubled" in exc.value.columns


def test_ols_argument_validation():
    X = np.ones((3, 3))
    with pytest.raises(ArgumentError):
        ols_fit(X, np.ones(3))  # n <= k
    with pytest.raises(ArgumentError):
        ols_fit(np.ones(5), np.ones(5))  # 1-d design
    with pytest.raises(ArgumentError):
        ols_fit(np.ones((5, 2)), np.ones(4))  # length mismatch
    with pytest.raises(ArgumentError):
        ols_fit(np.ones((5, 2)), np.ones(5), ["only_one_name"])
    with pytest.raises(ArgumentError):
        ols_fit(np.column_stack([np.ones(5), np.arange(5.0)]), np.ones(5), se_type="hc3")


def make_panel(n, rng, stock_ids=None):
    """A panel of ``n`` random rows drawn row by row, each row's fields in
    header order, all with one outcome date."""
    draws = {
        "pos_lag": lambda: rng.uniform(0, 0.6),
        "neg_lag": lambda: rng.uniform(0, 0.4),
        "range_lag": lambda: rng.uniform(0, 0.3),
        "retex_lag": lambda: rng.gauss(0, 0.02),
        "dvol_lag": lambda: rng.gauss(0, 0.3),
        "outcome_range": lambda: rng.uniform(0, 0.3),
        "outcome_retex": lambda: rng.gauss(0, 0.02),
        "outcome_dvol": lambda: rng.gauss(0, 0.3),
        "szse_lag": lambda: rng.gauss(0, 0.01),
        "sse_lag": lambda: rng.gauss(0, 0.01),
        "csi500_lag": lambda: rng.gauss(0, 0.01),
        "vix_lag": lambda: rng.gauss(0, 1.0),
        "num90_lag": lambda: rng.randrange(0, 30) * 0.01,
        "num7_lag": lambda: rng.randrange(0, 8) * 0.01,
    }
    assert tuple(draws) == PANEL_HEADER[3:]
    rows = np.array([[draw() for draw in draws.values()] for _ in range(n)]).reshape(n, len(draws))
    return PanelBuildResult(
        [f"r{i:04d}" for i in range(n)],
        stock_ids or ["600000.SH"] * n,
        [Date(2019, 3, 5)] * n,
        rows,
        {},
        0,
        n,
    )


def column(panel, name):
    return panel.rows[:, PANEL_HEADER.index(name) - 3]


def test_panel_row_validation():
    """build_panel's row checks, with stand-in scores for the reports of
    two panel rows a < b, each the only row of its report: the first
    failing row in pair order names its first failing check, pos+neg
    before finiteness, then the columns in header order."""
    ds = small_dataset()
    market, corpus_index, scores = assemble(ds)
    start, end = ds.test_range
    clean = build_panel(ds.records, scores, market, corpus_index, start, end)
    single = [i for i, rid in enumerate(clean.report_ids) if clean.report_ids.count(rid) == 1]
    rows = {"a": single[1], "b": single[-2]}
    cases = [
        # (pos, neg) stand-ins by row, the failing row, its problem
        ({"a": (0.7, 0.6), "b": (math.nan, 0.1)}, "a", f"pos+neg = {0.7 + 0.6}"),
        ({"a": (0.2, math.nan), "b": (0.7, 0.6)}, "a", "neg_lag not finite"),
        ({"b": (0.7, 0.6)}, "b", f"pos+neg = {0.7 + 0.6}"),
        ({"a": (math.inf, 0.1)}, "a", "pos+neg = inf"),
        ({"a": (math.nan, math.inf)}, "a", "pos_lag not finite"),
    ]
    for stand_ins, failing, problem in cases:
        altered = dict(scores)
        for name, (pos, neg) in stand_ins.items():
            altered[clean.report_ids[rows[name]]] = SimpleNamespace(pos=pos, neg=neg)
        i = rows[failing]
        with pytest.raises(DataError) as caught:
            build_panel(ds.records, altered, market, corpus_index, start, end)
        assert str(caught.value) == f"row {clean.report_ids[i]}/{clean.stock_ids[i]}: {problem}"


def test_panel_round_trip_is_exact(tmp_path):
    panel = make_panel(20, random.Random(4))
    path = tmp_path / "panel.csv"
    write_panel(panel, path)
    rows = read_panel(path)
    assert [(r.report_id, r.stock_id, r.outcome_date) for r in rows] == list(
        zip(panel.report_ids, panel.stock_ids, panel.outcome_dates)
    )
    read_back = np.array([[getattr(r, name) for name in PANEL_HEADER[3:]] for r in rows])
    assert read_back.tobytes() == panel.rows.tobytes()
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        read_panel(bad)


def test_panel_writer_gives_the_one_pass_bytes(tmp_path):
    """write_panel formats ``BLOCK`` rows at a time; across the block seams,
    and for floats whose ``repr`` takes the exponent form or a sign, it
    writes the bytes of the one-pass writer it replaced."""
    n = 2 * BLOCK + 3
    panel = make_panel(n, random.Random(6))
    panel.outcome_dates[BLOCK:] = [Date(2019, 3, 6)] * (n - BLOCK)
    for row in (0, BLOCK - 1, BLOCK, 2 * BLOCK, n - 1):
        panel.rows[row, :3] = [1e-05, 1e16, -0.0]
    write_panel(panel, tmp_path / "blocks.csv")
    write_panel_one_pass(panel, tmp_path / "one_pass.csv")
    written = (tmp_path / "blocks.csv").read_bytes()
    assert written == (tmp_path / "one_pass.csv").read_bytes()
    assert written.count(b",1e-05,1e+16,-0.0,") == 5
    assert written.count(b"\n") == n + 1


def test_panel_design_column_order():
    panel = make_panel(3, random.Random(5))
    X, outcomes = panel_design(panel.rows)
    assert X.shape == (3, len(REGRESSOR_NAMES))
    assert list(X[:, 0]) == [1.0, 1.0, 1.0]
    names = ["pos", "neg", "range", "dvol", "retex", "szse", "sse", "csi500", "vix", "num90", "num7"]
    for j, name in enumerate(names, start=1):
        assert X[:, j].tolist() == column(panel, f"{name}_lag").tolist(), name
    assert outcomes["range"].tolist() == column(panel, "outcome_range").tolist()
    assert outcomes["ret_ex"].tolist() == column(panel, "outcome_retex").tolist()
    assert outcomes["delta_volume"].tolist() == column(panel, "outcome_dvol").tolist()
    assert all(y.flags.c_contiguous for y in outcomes.values())


def test_pooled_regressions_cover_all_three_outcomes():
    fits = run_pooled_regressions(make_panel(80, random.Random(6)).rows)
    assert set(fits) == {"range", "ret_ex", "delta_volume"}
    for outcome, fit in fits.items():
        assert fit.name == outcome
        assert fit.n_obs == 80
        assert fit.regressors == REGRESSOR_NAMES
        assert fit.df_resid == 80 - len(REGRESSOR_NAMES)
    with pytest.raises(ArgumentError):
        run_pooled_regressions(np.empty((0, len(PANEL_HEADER) - 3)))


def test_build_panel_accounts_for_every_pair():
    ds = small_dataset()
    market, corpus_index, scores = assemble(ds)
    start, end = ds.test_range
    result = build_panel(ds.records, scores, market, corpus_index, start, end)
    in_range = [r for r in records_of(ds.records) if start <= r.release_date <= end]
    n_pairs = sum(len(r.stock_codes) for r in in_range)
    assert result.n_pairs == n_pairs
    assert len(result.rows) + result.n_dropped == n_pairs
    assert len(result.rows) > 0
    calendar = market.calendar
    bars = ds.bars
    for report_id, stock_id, outcome_date, range_lag in zip(
        result.report_ids[:10], result.stock_ids, result.outcome_dates, column(result, "range_lag").tolist()
    ):
        record = next(r for r in in_range if r.report_id == report_id)
        s = next(j for j, d in enumerate(calendar.dates) if d >= record.release_date)
        s_day = calendar.dates[s]
        assert outcome_date == calendar.dates[s + 1]
        i = bars.ids.index(stock_id)
        assert bars.present[i, s]
        bar = (stock_id, s_day, bars.open[i, s], bars.high[i, s], bars.low[i, s], bars.close[i, s], bars.volume[i, s])
        assert range_lag == ranges_of([bar]).values[0] * 100.0
    # a report with no score is dropped once per cited stock
    missing = dict(scores)
    dropped_record = in_range[0]
    del missing[dropped_record.report_id]
    partial = build_panel(ds.records, missing, market, corpus_index, start, end)
    assert partial.drops.get("no score") == len(dropped_record.stock_codes)


def industry_panel_and_map(counts, rng):
    """A panel with ``counts[sector]`` rows on one stock of each sector,
    the sectors' rows interleaved, and the industry map of those stocks."""
    entries = [(f"{600000 + i}.SH", f"IND{i:02d}", sector) for i, sector in enumerate(counts)]
    stock_ids = [sid for (sid, _, sector) in entries for _ in range(counts[sector])]
    rng.shuffle(stock_ids)
    return make_panel(len(stock_ids), rng, stock_ids), IndustryMap(entries)


def test_industry_regressions_partition_and_skip():
    rng = random.Random(7)
    panel, imap = industry_panel_and_map({"Bank": 60, "Telecom": 3, "Weird": 5}, rng)

    class Bundle:
        industry = imap

    results = run_industry_regressions(panel, Bundle(), min_rows=50)
    by_sector = {r.sector: r for r in results}
    assert set(by_sector) == {"Bank", "Telecom", "Other"}
    assert [r.sector for r in results] == ["Telecom", "Bank", "Other"]
    assert sum(r.n_rows for r in results) == len(panel.rows)
    assert by_sector["Bank"].fits is not None
    assert by_sector["Bank"].fits["range"].n_obs == 60
    assert by_sector["Telecom"].fits is None and by_sector["Telecom"].n_rows == 3
    assert by_sector["Other"].fits is None and by_sector["Other"].n_rows == 5
    # the sector's rows in panel order, bit for bit
    bank = [i for i, sid in enumerate(panel.stock_ids) if imap.sector(sid) == "Bank"]
    direct = run_pooled_regressions(panel.rows[bank])
    for outcome, fit in by_sector["Bank"].fits.items():
        assert fit.coef.tobytes() == direct[outcome].coef.tobytes()


def test_industry_regressions_skip_singular_sectors():
    rng = random.Random(8)
    panel, imap = industry_panel_and_map({"Media": 55}, rng)
    column(panel, "vix_lag")[:] = 0.0

    class Bundle:
        industry = imap

    results = run_industry_regressions(panel, Bundle(), min_rows=50)
    assert results == [results[0]]
    assert results[0].sector == "Media"
    assert results[0].n_rows == 55
    assert results[0].fits is None


def test_welch_test_against_reference_values():
    a = [2.1, 2.5, 2.3, 2.7, 2.2]
    b = [1.1, 1.3, 1.2, 1.05, 1.4, 1.15]
    res = mean_difference_test(a, b, variable="toy")
    assert res.variable == "toy" and res.mode == "welch"
    assert (res.n_a, res.n_b) == (5, 6)
    assert abs(res.t_stat - 9.655497781750817) < 1e-12
    assert abs(res.df - 5.910563979697991) < 1e-12
    assert abs(res.p_value - 7.7387882213443435e-05) < 1e-17
    assert abs(res.mean_a - 2.36) < 1e-12
    assert abs(res.std_a - math.sqrt(0.058)) < 1e-12


def test_pooled_test_against_reference_values():
    a = [2.1, 2.5, 2.3, 2.7, 2.2]
    b = [1.1, 1.3, 1.2, 1.05, 1.4, 1.15]
    res = mean_difference_test(a, b, mode="pooled")
    assert res.df == 9.0
    assert abs(res.t_stat - 10.207370942892979) < 1e-12
    assert abs(res.p_value - 3.015511334489967e-06) < 1e-18


def test_mean_test_symmetries_and_degenerate_groups():
    a = [1.0, 2.0, 3.0]
    b = [1.5, 2.5, 3.5, 0.5]
    forward = mean_difference_test(a, b)
    backward = mean_difference_test(b, a)
    assert forward.t_stat == -backward.t_stat
    assert forward.p_value == backward.p_value
    same = mean_difference_test(a, list(a))
    assert same.t_stat == 0.0 and same.p_value == 1.0
    constant = mean_difference_test([1.0, 1.0], [2.0, 2.0])
    assert constant.t_stat == -math.inf and constant.p_value == 0.0
    assert constant.df == 2.0
    with pytest.raises(ArgumentError):
        mean_difference_test([1.0], b)
    with pytest.raises(ArgumentError):
        mean_difference_test(a, b, mode="paired")


def test_majority_group_tests_compare_positive_vs_negative():
    rng = random.Random(9)
    classes = ["positive"] * 5 + ["negative"] * 4 + ["neutral"]
    rng.shuffle(classes)
    values = np.array([[rng.gauss(0, 0.02) for _ in MAJORITY_VARIABLES] for _ in classes])
    results = majority_group_tests(classes, values)
    assert len(results) == len(MAJORITY_VARIABLES)
    for j, (variable, res) in enumerate(zip(MAJORITY_VARIABLES, results)):
        assert res is not None and res.variable == variable
        assert (res.n_a, res.n_b) == (5, 4)
        direct = mean_difference_test(
            [row[j] for row, cls in zip(values.tolist(), classes) if cls == "positive"],
            [row[j] for row, cls in zip(values.tolist(), classes) if cls == "negative"],
        )
        assert res.t_stat == direct.t_stat
    # a too-small group makes every variable untestable
    thin = [i for i, cls in enumerate(classes) if cls != "negative"] + [classes.index("negative")]
    assert majority_group_tests([classes[i] for i in thin], values[thin]) == [None] * len(MAJORITY_VARIABLES)


def test_majority_samples_from_a_generated_dataset():
    ds = small_dataset()
    market, _, _ = assemble(ds)
    lexicon = load_lexicon(packaged_data_path("lexicon.csv"))
    records = records_of(ds.records)
    hits = {r.report_id: prepare_report(r.title, r.abstract, lexicon) for r in records}
    start, end = ds.test_range
    classes, values, drops = build_majority_samples(ds.records, hits, market, start, end)
    in_range = [r for r in records if start <= r.release_date <= end]
    n_pairs = sum(len(r.stock_codes) for r in in_range)
    assert len(classes) + sum(drops.values()) == n_pairs
    assert len(classes) > 0
    assert values.shape == (len(classes), len(MAJORITY_VARIABLES))
    assert set(classes) <= {"positive", "neutral", "negative"}
