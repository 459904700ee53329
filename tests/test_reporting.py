"""Unit tests for table formatting and machine-readable exports."""

import csv
import math
import random
from datetime import date as Date

import numpy as np

from reportsignal.config import RunConfig
from reportsignal.econometrics import (
    MAJORITY_VARIABLES,
    OUTCOME_NAMES,
    REGRESSOR_NAMES,
    RegressionFit,
    SectorResult,
    mean_difference_test,
    run_pooled_regressions,
)
from reportsignal.reporting import (
    INDUSTRY_CSV_HEADER,
    MEAN_TEST_CSV_HEADER,
    REGRESSION_CSV_HEADER,
    STAR_PRESETS,
    format_industry_table,
    format_mean_test_table,
    format_regression_table,
    industry_records,
    mean_test_records,
    regression_records,
    star_legend,
    star_marker,
    write_daily_sentiment,
    write_gnuplot_script,
    write_mean_test_csv,
    write_regression_csv,
)
from reportsignal.sentiment import DailySentiment
from tests.test_econometrics import make_panel


def test_star_thresholds_are_strict():
    preset = STAR_PRESETS["table3"]
    assert star_marker(0.0009, preset) == "***"
    assert star_marker(0.001, preset) == "**"   # not < 0.001
    assert star_marker(0.009, preset) == "**"
    assert star_marker(0.01, preset) == "*"
    assert star_marker(0.049, preset) == "*"
    assert star_marker(0.05, preset) == ""
    assert star_marker(0.9, preset) == ""
    loose = STAR_PRESETS["table4"]
    assert star_marker(0.009, loose) == "***"
    assert star_marker(0.04, loose) == "**"
    assert star_marker(0.09, loose) == "*"
    assert star_marker(0.1, loose) == ""


def test_star_legends():
    assert star_legend(STAR_PRESETS["table3"]) == (
        "* p-value < 0.05, ** p-value < 0.01, *** p-value < 0.001"
    )
    assert star_legend(STAR_PRESETS["table4"]) == (
        "* p-value < 0.1, ** p-value < 0.05, *** p-value < 0.01"
    )


def pooled_fits(seed=21, n=120):
    return run_pooled_regressions(make_panel(n, random.Random(seed)).rows)


def test_regression_table_layout():
    fits = pooled_fits()
    text = format_regression_table(fits, RunConfig.stars, "Pooled regressions (classical standard errors)")
    lines = text.splitlines()
    assert lines[0] == "Pooled regressions (classical standard errors)"
    assert set(lines[1]) == {"="} and set(lines[3]) == {"-"}
    assert text.endswith(star_legend(STAR_PRESETS["table3"]) + "\n")
    # one coefficient line and one (t) line per regressor
    coef_lines = [l for l in lines if l.strip().startswith(REGRESSOR_NAMES[1])]
    assert len(coef_lines) == 1
    for name in REGRESSOR_NAMES:
        assert any(l.startswith(name) for l in lines), name
    t_lines = [l for l in lines if l.lstrip().startswith("(")]
    assert len(t_lines) == len(REGRESSOR_NAMES)
    header = lines[2]
    assert "range[t]" in header and "ret_ex[t]" in header and "dvolume[t]" in header
    obs = next(l for l in lines if l.startswith("Observations"))
    assert obs.split()[1:] == ["120", "120", "120"]
    assert any(l.startswith("R-squared") for l in lines)
    # every content line fits inside the rule width
    width = len(lines[1])
    assert all(len(l) <= width for l in lines[2:-1])


def test_cell_overflow_keeps_a_separating_space():
    fit = RegressionFit(
        regressors=("constant",),
        coef=np.array([-123456789.123456]),
        se=np.array([1.0]),
        t_stats=np.array([-123456789.123456]),
        p_values=np.array([0.5]),
        n_obs=5,
        r_squared=0.5,
    )
    text = format_regression_table(dict.fromkeys(OUTCOME_NAMES, fit), RunConfig.stars, "Pooled regressions")
    line = next(l for l in text.splitlines() if l.startswith("constant"))
    # the 16-char column cannot hold the number; a single space must
    # still separate it from the name column
    assert "constant" + " " * 6 + " -123456789.1235" in line


def test_regression_records_round_trip_full_precision(tmp_path):
    fits = pooled_fits()
    rows = regression_records(fits, RunConfig.stars)
    assert len(rows) == 3 * len(REGRESSOR_NAMES)
    path = tmp_path / "regressions.csv"
    write_regression_csv(fits, path, RunConfig.stars)
    with open(path, newline="") as stream:
        reader = csv.reader(stream)
        assert tuple(next(reader)) == REGRESSION_CSV_HEADER
        read_rows = list(reader)
    assert len(read_rows) == len(rows)
    first = read_rows[0]
    assert first[0] == "range[t]" and first[1] == "constant"
    assert float(first[2]) == float(fits["range"].coef[0])
    assert float(first[5]) == float(fits["range"].p_values[0])


def test_industry_table_mixes_fits_and_skips():
    fits = pooled_fits(seed=22, n=80)
    results = [
        SectorResult("Bank", 80, fits),
        SectorResult("Telecom", 7, None),
        SectorResult("Media", 60, None),
    ]
    text = format_industry_table(results, min_rows=50)
    lines = text.splitlines()
    assert lines[0] == "Industry-subset regressions"
    assert "pos:range[t]" in lines[2] and "neg:dvolume[t]" in lines[2]
    bank = next(l for l in lines if l.startswith("Bank"))
    assert bank.split()[1] == "80"
    skipped = next(l for l in lines if l.startswith("Telecom"))
    assert "skipped (n=7 < min_rows=50)" in skipped
    # a sector with enough rows is skipped when it has no full-rank fit
    unfit = next(l for l in lines if l.startswith("Media"))
    assert unfit.endswith("  skipped (n=60: no full-rank fit)")
    assert text.endswith(star_legend(STAR_PRESETS["table4"]) + "\n")
    rows = industry_records(results)
    fitted = [r for r in rows if r[2] == "fitted"]
    assert len(fitted) == 3 * len(REGRESSOR_NAMES)
    assert [r for r in rows if r[2] == "skipped"][0][0] == "Telecom"
    assert len(INDUSTRY_CSV_HEADER) == len(fitted[0])


def test_mean_test_table_rows_and_skips():
    rng = random.Random(23)
    a = [rng.gauss(0.01, 0.02) for _ in range(40)]
    b = [rng.gauss(-0.01, 0.02) for _ in range(30)]
    result = mean_difference_test(a, b, RunConfig.ttest)
    results = [result] + [None] * (len(MAJORITY_VARIABLES) - 1)
    text = format_mean_test_table(results, RunConfig.stars)
    lines = text.splitlines()
    assert lines[0].startswith("Group mean comparison")
    first = next(l for l in lines if l.startswith("ret_ex[t] "))
    assert f"{result.mean_a:.4f}" in first
    assert f"{result.t_stat:.3f}" in first
    assert str(result.n_a) in first.split() and str(result.n_b) in first.split()
    skipped = [l for l in lines if "skipped (a group has fewer than 2 rows)" in l]
    assert len(skipped) == len(MAJORITY_VARIABLES) - 1
    assert text.endswith(star_legend(STAR_PRESETS["table3"]) + "\n")


def test_mean_test_records_round_trip(tmp_path):
    a = [1.0, 2.0, 3.0]
    b = [4.0, 5.0, 6.0, 7.0]
    results = [mean_difference_test(a, b, "welch") if i % 2 == 0 else None for i in range(len(MAJORITY_VARIABLES))]
    path = tmp_path / "mean_tests.csv"
    write_mean_test_csv(results, path, RunConfig.stars)
    with open(path, newline="") as stream:
        reader = csv.reader(stream)
        assert tuple(next(reader)) == MEAN_TEST_CSV_HEADER
        rows = list(reader)
    assert len(rows) == len(MAJORITY_VARIABLES)
    assert [r[0] for r in rows] == list(MAJORITY_VARIABLES)
    assert float(rows[0][8]) == results[0].t_stat
    assert rows[0][12] == "welch"
    assert rows[1][1:] == [""] * (len(MEAN_TEST_CSV_HEADER) - 1)
    records = mean_test_records(results, RunConfig.stars)
    assert all(len(r) == len(MEAN_TEST_CSV_HEADER) for r in records)


def test_daily_sentiment_file_and_gnuplot_script(tmp_path):
    series = [
        DailySentiment(Date(2021, 9, 1), 0.4, 0.35, 0.25, 12),
        DailySentiment(Date(2021, 9, 2), 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 7),
    ]
    data_path = tmp_path / "daily_sentiment.dat"
    write_daily_sentiment(series, data_path)
    lines = data_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# date mean_pos mean_neu mean_neg n_rows"
    fields = lines[1].split()
    assert fields[0] == "2021-09-01"
    assert float(fields[1]) == 0.4 and fields[4] == "12"
    # repr serialisation survives a float round-trip exactly
    assert float(lines[2].split()[1]) == 1.0 / 3.0
    script_path = tmp_path / "daily_sentiment.gp"
    write_gnuplot_script("daily_sentiment.dat", script_path)
    script = script_path.read_text(encoding="utf-8")
    assert "plot 'daily_sentiment.dat' using 1:2" in script
    assert "title 'negative'" in script


def test_infinite_t_statistics_render(tmp_path):
    """Degenerate fits (zero residual variance) must not crash rendering."""
    fit = RegressionFit(
        regressors=("constant", "x"),
        coef=np.array([4.0, -5.0]),
        se=np.array([0.0, 0.0]),
        t_stats=np.array([math.inf, -math.inf]),
        p_values=np.array([0.0, 0.0]),
        n_obs=3,
        r_squared=1.0,
    )
    text = format_regression_table(dict.fromkeys(OUTCOME_NAMES, fit), RunConfig.stars, "Pooled regressions")
    assert "(inf)" in text and "(-inf)" in text
    assert "4.0000***" in text
    rows = regression_records(dict.fromkeys(OUTCOME_NAMES, fit), RunConfig.stars)
    assert rows[0][4] == "inf"
