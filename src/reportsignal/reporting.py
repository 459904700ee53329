"""Human-readable and machine-readable rendering of analysis results.

Every analysis artifact is emitted twice: a fixed-width text table meant
for reading (coefficient rows with significance stars, t-statistics in
parentheses underneath), and a delimited file with full-precision values
meant for diffing and downstream tooling. Significance stars come in two
presets because the source tables use different thresholds: the pooled
and mean-test tables take the configured preset, and the industry table
always uses ``INDUSTRY_STARS`` (``table4``).

Outcomes and regressors follow ``econometrics``' schema; this module
declares only layout. The three text tables share one frame, and the
pooled and industry tables one coefficient cell and t cell.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .corpus import write_csv_rows, write_text
from .econometrics import (
    MAJORITY_VARIABLES,
    MeanTestResult,
    OUTCOME_NAMES,
    REGRESSOR_NAMES,
    RegressionFit,
    SectorResult,
)

# Ascending p-value thresholds, strongest marker first; the first
# threshold that p falls under wins.
STAR_PRESETS: dict[str, tuple[tuple[float, str], ...]] = {
    "table3": ((0.001, "***"), (0.01, "**"), (0.05, "*")),
    "table4": ((0.01, "***"), (0.05, "**"), (0.1, "*")),
}
INDUSTRY_STARS = "table4"

# Width of a coefficient column in the pooled and industry tables.
COLUMN_W = 16

REGRESSION_CSV_HEADER = (
    "outcome",
    "regressor",
    "coef",
    "se",
    "t_stat",
    "p_value",
    "stars",
    "n_obs",
    "r_squared",
)

INDUSTRY_CSV_HEADER = ("sector", "n_rows", "status") + REGRESSION_CSV_HEADER

MEAN_TEST_CSV_HEADER = (
    "variable",
    "mean_pos",
    "sd_pos",
    "n_pos",
    "mean_neg",
    "sd_neg",
    "n_neg",
    "diff",
    "t_stat",
    "p_value",
    "df",
    "stars",
    "mode",
)


def star_marker(p_value: float, preset: Sequence[tuple[float, str]]) -> str:
    """Return the marker of the tightest threshold that p_value beats."""
    for threshold, marker in preset:
        if p_value < threshold:
            return marker
    return ""


def star_legend(preset: Sequence[tuple[float, str]]) -> str:
    parts = [f"{marker} p-value < {threshold:g}" for threshold, marker in reversed(list(preset))]
    return ", ".join(parts)


def _cell(text: str, width: int) -> str:
    """Right-justify, but keep one separating space when the text overflows."""
    return text.rjust(width) if len(text) < width else " " + text


def _framed(title: str, width: int, header: str, body: list[str], preset: Sequence[tuple[float, str]]) -> str:
    """A text table: the title, a ``=`` rule, the header, the body between
    two ``-`` rules, and the star legend."""
    return "\n".join([title, "=" * width, header, "-" * width, *body, "-" * width, star_legend(preset)]) + "\n"


def _estimate(fit: RegressionFit, i: int, preset: Sequence[tuple[float, str]]) -> tuple[str, str]:
    """The coefficient-with-stars cell and the parenthesised t cell of a
    fit's ``i``-th regressor."""
    coef = format(fit.coef[i], ".4f") + star_marker(fit.p_values[i], preset)
    return _cell(coef, COLUMN_W), _cell(f"({format(fit.t_stats[i], '.3f')})", COLUMN_W)


def format_regression_table(
    fits: dict[str, RegressionFit],
    stars: str = "table3",
    title: str = "Pooled regressions",
) -> str:
    """Fixed-width table: one column per outcome, coefficient row with
    stars followed by a parenthesized t-statistic row per regressor."""
    preset = STAR_PRESETS[stars]
    name_w = max(len(n) for n in REGRESSOR_NAMES + ("Observations", "R-squared")) + 2
    width = name_w + COLUMN_W * len(OUTCOME_NAMES)
    header = " " * name_w + "".join(_cell(name, COLUMN_W) for name in OUTCOME_NAMES.values())
    body = []
    for i, regressor in enumerate(fits["range"].regressors):
        coef_cells, t_cells = zip(*(_estimate(fits[key], i, preset) for key in OUTCOME_NAMES))
        body += [regressor.ljust(name_w) + "".join(coef_cells), " " * name_w + "".join(t_cells)]
    body += [
        "-" * width,
        "Observations".ljust(name_w) + "".join(_cell(str(fits[key].n_obs), COLUMN_W) for key in OUTCOME_NAMES),
        "R-squared".ljust(name_w) + "".join(_cell(format(fits[key].r_squared, ".3f"), COLUMN_W) for key in OUTCOME_NAMES),
    ]
    return _framed(title, width, header, body, preset)


def regression_records(
    fits: dict[str, RegressionFit], stars: str = "table3"
) -> list[tuple]:
    """Full-precision rows for the machine-readable export."""
    preset = STAR_PRESETS[stars]
    rows = []
    for key in OUTCOME_NAMES:
        fit = fits[key]
        for i, regressor in enumerate(fit.regressors):
            rows.append(
                (
                    OUTCOME_NAMES[key],
                    regressor,
                    repr(float(fit.coef[i])),
                    repr(float(fit.se[i])),
                    repr(float(fit.t_stats[i])),
                    repr(float(fit.p_values[i])),
                    star_marker(fit.p_values[i], preset),
                    fit.n_obs,
                    repr(float(fit.r_squared)),
                )
            )
    return rows


def write_regression_csv(fits: dict[str, RegressionFit], path, stars: str = "table3") -> None:
    write_csv_rows(path, REGRESSION_CSV_HEADER, regression_records(fits, stars))


def format_industry_table(results: Iterable[SectorResult], min_rows: int = 50) -> str:
    """Sector-by-sector sentiment coefficients: pos and neg columns per
    outcome, two lines per fitted sector (coefficients, then t-stats)."""
    preset = STAR_PRESETS[INDUSTRY_STARS]
    columns = [(key, regressor) for key in OUTCOME_NAMES for regressor in ("pos[t-1]", "neg[t-1]")]
    name_w = 22
    width = name_w + 6 + COLUMN_W * len(columns)
    header = "Sector".ljust(name_w) + "n".rjust(6) + "".join(
        _cell(f"{regressor.removesuffix('[t-1]')}:{OUTCOME_NAMES[key]}", COLUMN_W) for key, regressor in columns
    )
    body = []
    for result in results:
        lead = result.sector.ljust(name_w) + str(result.n_rows).rjust(6)
        if result.fits is None:
            body.append(lead + f"  skipped (n={result.n_rows} < min_rows={min_rows})")
            continue
        coef_cells, t_cells = zip(
            *(_estimate(result.fits[key], result.fits[key].regressors.index(regressor), preset) for key, regressor in columns)
        )
        body += [lead + "".join(coef_cells), " " * (name_w + 6) + "".join(t_cells)]
    return _framed("Industry-subset regressions", width, header, body, preset)


def industry_records(results: Iterable[SectorResult]) -> list[tuple]:
    rows = []
    for result in results:
        if result.fits is None:
            rows.append((result.sector, result.n_rows, "skipped") + ("",) * len(REGRESSION_CSV_HEADER))
            continue
        for row in regression_records(result.fits, INDUSTRY_STARS):
            rows.append((result.sector, result.n_rows, "fitted") + row)
    return rows


def write_industry_csv(results: Iterable[SectorResult], path) -> None:
    write_csv_rows(path, INDUSTRY_CSV_HEADER, industry_records(results))


def format_mean_test_table(
    results: Sequence[MeanTestResult | None],
    stars: str = "table3",
) -> str:
    """One row per variable: group means (sd, n), difference, t with stars."""
    preset = STAR_PRESETS[stars]
    name_w = 14
    header = (
        "variable".ljust(name_w)
        + "mean(pos)".rjust(12)
        + "sd(pos)".rjust(10)
        + "n(pos)".rjust(8)
        + "mean(neg)".rjust(12)
        + "sd(neg)".rjust(10)
        + "n(neg)".rjust(8)
        + "diff".rjust(12)
        + "t-stat".rjust(12)
    )
    body = []
    for variable, result in zip(MAJORITY_VARIABLES, results):
        if result is None:
            body.append(variable.ljust(name_w) + "  skipped (a group has fewer than 2 rows)")
            continue
        marker = star_marker(result.p_value, preset)
        body.append(
            variable.ljust(name_w)
            + format(result.mean_a, ".4f").rjust(12)
            + format(result.std_a, ".4f").rjust(10)
            + str(result.n_a).rjust(8)
            + format(result.mean_b, ".4f").rjust(12)
            + format(result.std_b, ".4f").rjust(10)
            + str(result.n_b).rjust(8)
            + format(result.mean_a - result.mean_b, ".4f").rjust(12)
            + (format(result.t_stat, ".3f") + marker).rjust(12)
        )
    title = "Group mean comparison: majority-positive vs majority-negative reports"
    return _framed(title, len(header), header, body, preset)


def mean_test_records(
    results: Sequence[MeanTestResult | None], stars: str = "table3"
) -> list[tuple]:
    preset = STAR_PRESETS[stars]
    rows = []
    for variable, result in zip(MAJORITY_VARIABLES, results):
        if result is None:
            rows.append((variable,) + ("",) * (len(MEAN_TEST_CSV_HEADER) - 1))
            continue
        rows.append(
            (
                variable,
                repr(float(result.mean_a)),
                repr(float(result.std_a)),
                result.n_a,
                repr(float(result.mean_b)),
                repr(float(result.std_b)),
                result.n_b,
                repr(float(result.mean_a - result.mean_b)),
                repr(float(result.t_stat)),
                repr(float(result.p_value)),
                repr(float(result.df)),
                star_marker(result.p_value, preset),
                result.mode,
            )
        )
    return rows


def write_mean_test_csv(
    results: Sequence[MeanTestResult | None], path, stars: str = "table3"
) -> None:
    write_csv_rows(path, MEAN_TEST_CSV_HEADER, mean_test_records(results, stars))


def write_daily_sentiment(series, path) -> None:
    """Whitespace-delimited plot data: date, mean pos/neu/neg, row count."""
    lines = (f"{day.date.isoformat()} {day.mean_pos!r} {day.mean_neu!r} {day.mean_neg!r} {day.n_rows}\n" for day in series)
    write_text(path, "# date mean_pos mean_neu mean_neg n_rows\n" + "".join(lines))


def write_gnuplot_script(data_filename: str, path) -> None:
    """A minimal gnuplot driver for the daily sentiment series."""
    script = (
        "set title 'Daily average sentiment'\n"
        "set xdata time\n"
        "set timefmt '%Y-%m-%d'\n"
        "set format x '%Y-%m'\n"
        "set ylabel 'mean probability'\n"
        "set key outside\n"
        f"plot '{data_filename}' using 1:2 with lines title 'positive', \\\n"
        f"     '{data_filename}' using 1:3 with lines title 'neutral', \\\n"
        f"     '{data_filename}' using 1:4 with lines title 'negative'\n"
    )
    write_text(path, script)
