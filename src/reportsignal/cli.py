"""Command-line pipeline driver.

Verbs:
  synth    generate a synthetic dataset with planted effects
  ingest   parse and validate the corpus and market files (the others are
           only checked to exist), report counts and rejects, and save
           the validated market as a snapshot in the output directory
  label    rank-label the training-range reports by market reaction
  score    produce sentiment scores (lexicon scorer or external file)
  analyze  build the panel, fit the regressions, run the group tests

``label`` and ``analyze`` read the market from that snapshot while it
matches the market files and the code; their reports give the source.

Every verb is also a function of this module (``cmd_ingest(config)`` and
so on), so tests and scripts can drive a stage without a subprocess; like
every name of the package, it is imported from the module that defines it.
Exit codes: 0 success, 1 configuration error, 2 data error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import asdict
from datetime import date as Date, timedelta
from pathlib import Path

import numpy as np

from .config import CHOICES, RunConfig, load_config
from .corpus import (
    CorpusIndex,
    ReportColumns,
    RowReject,
    load_risk_warning_patterns,
    parse_corpus,
    remove_output,
    write_stdout,
    write_text,
)
from .econometrics import (
    build_majority_samples,
    build_panel,
    majority_group_tests,
    run_industry_regressions,
    run_pooled_regressions,
    write_panel,
)
from .errors import ConfigurationError, DataError, PipelineError
from .labeling import LABELS, NEGATIVE, NEUTRAL, POSITIVE, assign_labels, write_labels
from .market import LONG_COUNT_WINDOW, MarketData, TradingCalendar, load_market, read_snapshot, write_snapshot
from .metrics import (
    DOMAIN,
    GAP,
    HISTORY,
    NO_MAPPING,
    OFF_CALENDAR,
    OK,
    VOLUME_WINDOW,
    first_failure,
    judged,
    label_window_return,
    tally,
)
from .reporting import (
    format_industry_table,
    format_mean_test_table,
    format_regression_table,
    write_daily_sentiment,
    write_gnuplot_script,
    write_industry_csv,
    write_mean_test_csv,
    write_regression_csv,
)
from .sentiment import (
    daily_average_sentiment,
    lexicon_score,
    load_external_scores,
    load_lexicon,
    prepare_report,
    write_scores,
)
from .synthkit import SynthSpec, generate, write_dataset

REPORT_FORMAT_VERSION = 1
LABEL_DROPS = {
    OFF_CALENDAR: "label window outside calendar",
    NO_MAPPING: "no industry mapping",
    GAP: "missing market data",
    HISTORY: "missing market data",
    DOMAIN: "bad market data",
}
_REJECT_CAP = 1000  # rejects listed per report file; counts stay exact


def _ensure_out(path) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot use {out} as the output directory: {exc.strerror}") from None
    return out


def _write_json(payload: dict, path: Path) -> None:
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _reject_payload(rejects: list[RowReject]) -> dict:
    listed = [asdict(r) for r in rejects[:_REJECT_CAP]]
    return {
        "n_rejects": len(rejects),
        "rejects": listed,
        "truncated": len(rejects) > _REJECT_CAP,
    }


def _market_files(config: RunConfig) -> dict:
    """The run's market files, as keyword arguments of ``load_market``."""
    return {
        "bars_path": config.bars,
        "indices_path": config.indices,
        "industry_path": config.industry,
        "calendar_path": config.calendar,
    }


def _load_inputs(config: RunConfig):
    """The parsed corpus, the market, and where the market came from: the
    snapshot in ``config.out`` when it matches the files, else the files."""
    parse = parse_corpus(config.corpus, max_error_rate=config.max_error_rate)
    files = _market_files(config)
    market, source = read_snapshot(config.out, **files)
    if market is None:
        market = load_market(**files).market
    return parse, market, source


def firewall_fence(calendar: TradingCalendar, test_start: Date) -> Date:
    """Earliest market date the analyze stage may touch.

    The deepest look-back from any test-range row is 90 calendar days of
    report counting followed by 60 trading days of volume history; reads
    below that point can only concern the training period.
    """
    anchor = int(calendar.locate((test_start - timedelta(days=LONG_COUNT_WINDOW)).toordinal()))
    return calendar.dates[anchor - VOLUME_WINDOW] if VOLUME_WINDOW <= anchor < len(calendar) else calendar.first()


# ---------------------------------------------------------------------------
# verbs


def cmd_synth(out_dir: Path, seed: int) -> int:
    spec = SynthSpec(seed=seed)
    spec.validate()
    _ensure_out(out_dir)
    dataset = generate(spec)
    write_dataset(dataset, out_dir, seed=seed)
    write_stdout(
        f"synth: seed {seed}: wrote {len(dataset.records)} reports, "
        f"{len(dataset.bars)} bars, {len(dataset.calendar_dates)} trading days -> {out_dir}\n"
    )
    return 0


def cmd_ingest(config: RunConfig) -> int:
    out = _ensure_out(config.out)
    remove_output(out / "ingest_report.json")
    files = _market_files(config)
    parse = parse_corpus(config.corpus, max_error_rate=config.max_error_rate)
    loaded = load_market(**files)
    market = loaded.market
    market.calendar.require_coverage(config.train_start, config.test_end)

    report = {
        "format_version": REPORT_FORMAT_VERSION,
        "corpus": {
            "n_records": len(parse.records),
            "error_rate": parse.error_rate,
            **_reject_payload(parse.rejects),
        },
        "bars": {"n_rows": loaded.n_bars, **_reject_payload(loaded.bar_rejects)},
        "indices": {"n_rows": loaded.n_index_rows, **_reject_payload(loaded.index_rejects)},
        "calendar": {
            "first": market.calendar.first().isoformat(),
            "last": market.calendar.last().isoformat(),
            "n_days": len(market.calendar),
        },
        "train_range": [config.train_start.isoformat(), config.train_end.isoformat()],
        "test_range": [config.test_start.isoformat(), config.test_end.isoformat()],
    }
    # the report last: it is written only once the snapshot is
    write_snapshot(market, out, **files)
    _write_json(report, out / "ingest_report.json")
    write_stdout(
        f"ingest: {len(parse.records)} reports ({len(parse.rejects)} rejected), "
        f"{loaded.n_bars} bars ({len(loaded.bar_rejects)} rejected), "
        f"{loaded.n_index_rows} index rows ({len(loaded.index_rejects)} rejected)\n"
    )
    return 0


def label_pool(reports: ReportColumns, market: MarketData, start: Date, end: Date):
    """(report_id, stock_id, window return) for each (report, stock) pair
    released in [start, end], plus the drops by reason: "release date
    beyond calendar" (no trading day on or after the release) before the
    kernel runs, then the kernel's ``LABEL_DROPS``."""
    report_of, cited, released = reports.pairs(start, end)
    days = market.calendar.locate(released)
    drops = [(days == len(market.calendar), "release date beyond calendar")]
    kept = np.flatnonzero(judged(drops))
    returns = label_window_return(market, market.bars.rows_of(reports.stocks)[cited[kept]], days[kept])
    status = first_failure(market, returns)
    ok = status == OK
    report_ids = reports.ids.take(report_of[kept[ok]])
    stock_ids = map(reports.stocks.__getitem__, cited[kept[ok]].tolist())
    return list(zip(report_ids, stock_ids, returns.values[ok].tolist())), tally(drops, status, LABEL_DROPS)


def cmd_label(config: RunConfig) -> int:
    out = _ensure_out(config.out)
    remove_output(out / "label_report.json")
    parse, market, market_source = _load_inputs(config)
    pool, drops = label_pool(parse.records, market, config.train_start, config.train_end)
    if not pool:
        raise DataError("labeling pool is empty: no training-range pair survived")
    labeled = assign_labels(pool)
    write_labels(labeled, out / "labels.csv")

    counts = dict.fromkeys(LABELS, 0) | Counter(row.label for row in labeled)
    report = {
        "format_version": REPORT_FORMAT_VERSION,
        "n_pool": len(labeled),
        "counts": counts,
        "drops": drops,
        "market_source": market_source,
        "train_range": [config.train_start.isoformat(), config.train_end.isoformat()],
    }
    _write_json(report, out / "label_report.json")
    write_stdout(
        f"label: {len(labeled)} pairs labeled "
        f"({counts[POSITIVE]} positive / {counts[NEUTRAL]} neutral / {counts[NEGATIVE]} negative), "
        f"{sum(drops.values())} dropped\n"
    )
    return 0


def _report_hits(config: RunConfig, reports: ReportColumns, positions: np.ndarray) -> np.ndarray:
    """The (positive, neutral, negative) lexicon hits of the cleaned text of
    each report, one int64 row per report: those at ``positions`` counted,
    the rest -1, as every row is when the lexicon has no entries."""
    lexicon = load_lexicon(config.lexicon)
    if config.scorer == "lexicon" and len(lexicon) == 0:
        raise ConfigurationError(f"lexicon file {config.lexicon} has no entries")
    patterns = load_risk_warning_patterns(config.risk_warnings)
    hits = np.full((len(reports), 3), -1, dtype=np.int64)
    if len(lexicon):
        texts = zip(reports.titles.take(positions), reports.abstracts.take(positions))
        counts = (prepare_report(title, abstract, lexicon, patterns, config.tail_fraction) for title, abstract in texts)
        hits[positions] = np.fromiter(counts, np.dtype((np.int64, 3)), len(positions))
    return hits


def _report_scores(config: RunConfig, reports: ReportColumns, hits):
    """The score of each report by report id, from the counted rows of the
    lexicon ``hits`` or from the external scores file of ``reports``, and
    that file's rejected rows."""
    if config.scorer == "lexicon":
        counted = np.flatnonzero(hits[:, 0] >= 0)
        return {
            report_id: lexicon_score(counts, config.temperature, report_id)
            for report_id, counts in zip(reports.ids.take(counted), hits[counted].tolist())
        }, []
    if config.scores is None:
        raise ConfigurationError("scorer 'external' requires a scores path in the config")
    accepted, rejects = load_external_scores(config.scores, reports.ids, max_error_rate=config.max_error_rate)
    return {score.report_id: score for score in accepted}, rejects


def cmd_score(config: RunConfig) -> int:
    out = _ensure_out(config.out)
    remove_output(out / "score_report.json")
    parse = parse_corpus(config.corpus, max_error_rate=config.max_error_rate)
    # The external scorer never opens the lexicon.
    hits = _report_hits(config, parse.records, np.arange(len(parse.records))) if config.scorer == "lexicon" else None
    scores, rejects = _report_scores(config, parse.records, hits)

    write_scores(scores.values(), out / "scores.csv")
    report = {
        "format_version": REPORT_FORMAT_VERSION,
        "scorer": config.scorer,
        "n_scored": len(scores),
        **_reject_payload(rejects),
    }
    _write_json(report, out / "score_report.json")
    write_stdout(f"score: {len(scores)} reports scored via {config.scorer} ({len(rejects)} rejected)\n")
    return 0


def cmd_analyze(config: RunConfig) -> int:
    out = _ensure_out(config.out)
    remove_output(out / "analyze_report.json")
    parse, market, market_source = _load_inputs(config)
    market.calendar.require_coverage(config.test_start, config.test_end)
    fence = firewall_fence(market.calendar, config.test_start)
    market.set_fence(fence)

    reports = parse.records
    corpus_index = CorpusIndex(reports)
    report_of, _, released = reports.pairs(config.test_start, config.test_end)
    hits = _report_hits(config, reports, np.unique(report_of))
    scores, score_rejects = _report_scores(config, reports, hits)

    panel = build_panel(
        reports, scores, market, corpus_index, config.test_start, config.test_end, vix_mode=config.vix_mode
    )
    if not len(panel.rows):
        raise DataError(
            f"empty panel: all {panel.n_pairs} test-range pairs dropped ({panel.drops})"
        )

    fits = run_pooled_regressions(panel.rows, se_type=config.se)
    sectors = run_industry_regressions(panel, reports.stocks, market, min_rows=config.min_rows, se_type=config.se)
    classes, samples, majority_drops = build_majority_samples(reports, hits, market, config.test_start, config.test_end)
    tests = majority_group_tests(classes, samples, mode=config.ttest)

    # One entry per test-range pair with a score and a release trading day.
    days = market.calendar.locate(released).tolist()
    pair_scores = map(scores.get, reports.ids.take(report_of))
    series_entries = [
        (market.calendar.dates[day], score)
        for day, score in zip(days, pair_scores)
        if score is not None and day < len(market.calendar)
    ]
    n_series_skipped = len(days) - len(series_entries)
    series = daily_average_sentiment(series_entries)

    write_panel(panel, reports, market.calendar, out / "panel.csv")
    regression_text = format_regression_table(
        fits,
        stars=config.stars,
        title=f"Pooled regressions ({config.se} standard errors)",
    )
    write_text(out / "regressions.txt", regression_text)
    write_regression_csv(fits, out / "regressions.csv", stars=config.stars)
    industry_text = format_industry_table(sectors, min_rows=config.min_rows)
    write_text(out / "industry.txt", industry_text)
    write_industry_csv(sectors, out / "industry.csv")
    mean_text = format_mean_test_table(tests, stars=config.stars)
    write_text(out / "mean_tests.txt", mean_text)
    write_mean_test_csv(tests, out / "mean_tests.csv", stars=config.stars)
    write_daily_sentiment(series, out / "daily_sentiment.dat")
    write_gnuplot_script("daily_sentiment.dat", out / "daily_sentiment.gp")

    report = {
        "format_version": REPORT_FORMAT_VERSION,
        "fence": fence.isoformat(),
        "market_source": market_source,
        "options": {
            name: getattr(config, name)
            for name in ("scorer", "stars", "se", "ttest", "vix_mode", "min_rows", "temperature", "tail_fraction")
        },
        "panel": {
            "n_pairs": panel.n_pairs,
            "n_rows": len(panel.rows),
            "n_dropped": panel.n_dropped,
            "drops": panel.drops,
            "n_flagged_negative_range": panel.n_flagged_negative_range,
        },
        "majority": {
            "n_samples": len(classes),
            "counts": {label: int(np.count_nonzero(classes == label)) for label in LABELS},
            "drops": majority_drops,
        },
        "scores": {"n_available": len(scores), **_reject_payload(score_rejects)},
        "daily_series": {
            "n_days": len(series),
            "n_entries": len(series_entries),
            "n_skipped": n_series_skipped,
        },
        "test_range": [config.test_start.isoformat(), config.test_end.isoformat()],
    }
    _write_json(report, out / "analyze_report.json")

    write_stdout(
        f"{regression_text}\n{industry_text}\n{mean_text}"
        f"analyze: {len(panel.rows)} panel rows ({panel.n_dropped} dropped), "
        f"{len(classes)} majority samples, outputs in {out}\n"
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Usage errors map to the configuration-error exit code."""

    def error(self, message):
        raise ConfigurationError(message)


# The flags that override a config field, by the field's name.
_FLAGS = {
    "out": {"type": Path, "help": "output directory (overrides config)"},
    "seed": {"type": int, "help": "generator seed (overrides config)"},
    "scorer": {"choices": CHOICES["scorer"], "help": "sentiment scorer (overrides config)"},
    "stars": {"choices": CHOICES["stars"], "help": "star-threshold preset (overrides config)"},
    "se": {"choices": CHOICES["se"], "help": "standard-error type (overrides config)"},
    "ttest": {"choices": CHOICES["ttest"], "help": "mean-test statistic (overrides config)"},
}

# verb -> (handler, help text, the override flags it takes besides --config)
VERBS = {
    "synth": (cmd_synth, "generate a synthetic dataset with planted effects", ("out", "seed")),
    "ingest": (cmd_ingest, "validate inputs and report what was read and rejected", ("out",)),
    "label": (cmd_label, "rank-label training-range reports by market reaction", ("out",)),
    "score": (cmd_score, "produce sentiment scores for the corpus", ("out", "scorer")),
    "analyze": (
        cmd_analyze,
        "build the panel, run regressions and group tests",
        ("out", "scorer", "stars", "se", "ttest"),
    ),
}


def _resolve_config(args: argparse.Namespace, flags) -> RunConfig:
    if args.config is None:
        raise ConfigurationError(f"{args.command} requires --config <file>")
    config = load_config(args.config)
    for flag in flags:
        if getattr(args, flag) is not None:
            setattr(config, flag, getattr(args, flag))
    config.validate()
    config.check_input_paths()
    return config


def main(argv=None) -> int:
    parser = _Parser(
        prog="reportsignal",
        description="Analyst-report sentiment and market-reaction pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, (_, text, flags) in VERBS.items():
        # no abbreviations: synth's --seed would take --se
        verb_parser = sub.add_parser(verb, help=text, allow_abbrev=False)
        verb_parser.add_argument("--config", type=Path, help="run configuration JSON file")
        for flag in flags:
            verb_parser.add_argument(f"--{flag}", **_FLAGS[flag])

    try:
        args = parser.parse_args(argv)
        if args.command == "synth":
            seed = args.seed
            out = args.out
            if args.config is not None:
                loaded = load_config(args.config)
                seed = seed if seed is not None else loaded.seed
                out = out if out is not None else loaded.out
            return cmd_synth(out if out is not None else Path("synth-data"),
                             seed if seed is not None else RunConfig.seed)
        handler, _, flags = VERBS[args.command]
        return handler(_resolve_config(args, flags))
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
