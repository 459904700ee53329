"""End-to-end tests of the command-line pipeline."""

import errno
import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys
from dataclasses import MISSING, fields
from datetime import date as Date, timedelta
from pathlib import Path

import pytest

import reportsignal
from reportsignal.cli import VERBS, firewall_fence, main
from reportsignal.config import FORMAT_VERSION, RunConfig, packaged_data_path
from reportsignal.corpus import CORPUS_HEADER, read_csv_rows
from reportsignal.econometrics import PANEL_HEADER
from reportsignal.market import TradingCalendar, load_calendar
from reportsignal.sentiment import SCORES_HEADER
from reportsignal.synthkit import write_dataset
from tests.helpers import read_panel, small_dataset

ANALYZE_FILES = (
    "panel.csv",
    "regressions.txt",
    "regressions.csv",
    "industry.txt",
    "industry.csv",
    "mean_tests.txt",
    "mean_tests.csv",
    "daily_sentiment.dat",
    "daily_sentiment.gp",
    "analyze_report.json",
)

# Every input file a run reads: the dataset files plus the lexicon and the
# risk-warning patterns, which clone_with_text_inputs copies in as well.
INPUT_FILES = (
    "corpus.csv",
    "bars.csv",
    "indices.csv",
    "industry.csv",
    "calendar.txt",
    "scores.csv",
    "lexicon.csv",
    "risk_warnings.txt",
)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("synthdata") / "data"
    write_dataset(small_dataset(seed=13), root, seed=13)
    return root


def run(*argv):
    return main([str(a) for a in argv])


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def clone_with_text_inputs(dataset_dir, clone):
    """Copy the dataset and point its config at local lexicon and
    risk-warning copies, so every input file can be edited in place."""
    shutil.copytree(dataset_dir, clone)
    for name in ("lexicon.csv", "risk_warnings.txt"):
        shutil.copyfile(packaged_data_path(name), clone / name)
    raw = read_json(clone / "config.json")
    raw.update(lexicon="lexicon.csv", risk_warnings="risk_warnings.txt")
    (clone / "config.json").write_text(json.dumps(raw), encoding="utf-8")
    return clone / "config.json"


def test_full_pipeline_end_to_end(dataset_dir, tmp_path, capsys):
    config = dataset_dir / "config.json"

    assert run("ingest", "--config", config, "--out", tmp_path / "ingest") == 0
    ingest_report = read_json(tmp_path / "ingest" / "ingest_report.json")
    assert ingest_report["format_version"] == 1
    assert ingest_report["corpus"]["n_rejects"] == 0
    assert ingest_report["bars"]["n_rejects"] == 0
    assert sorted(p.name for p in (tmp_path / "ingest").iterdir()) == [
        "ingest_report.json",
        "market.json",
        "market.npz",
    ]

    # label and analyze run where ingest left its snapshot, and read it
    assert run("label", "--config", config, "--out", tmp_path / "ingest") == 0
    label_report = read_json(tmp_path / "ingest" / "label_report.json")
    assert label_report["market_source"] == "snapshot"
    counts = label_report["counts"]
    assert counts["positive"] + counts["neutral"] + counts["negative"] == label_report["n_pool"]
    assert label_report["n_pool"] > 0
    assert (tmp_path / "ingest" / "labels.csv").exists()

    assert run("score", "--config", config, "--out", tmp_path / "score") == 0
    score_report = read_json(tmp_path / "score" / "score_report.json")
    assert score_report["scorer"] == "external"
    assert score_report["n_scored"] > 0
    assert (tmp_path / "score" / "scores.csv").exists()

    assert run("analyze", "--config", config, "--out", tmp_path / "ingest") == 0
    stdout = capsys.readouterr().out
    assert "Pooled regressions (classical standard errors)" in stdout
    for name in ANALYZE_FILES:
        assert (tmp_path / "ingest" / name).exists(), name

    report = read_json(tmp_path / "ingest" / "analyze_report.json")
    assert report["market_source"] == "snapshot"
    assert report["format_version"] == 1
    assert report["panel"]["n_rows"] > 0
    assert report["panel"]["n_rows"] + report["panel"]["n_dropped"] == report["panel"]["n_pairs"]
    assert report["options"]["se"] == "classical"
    assert report["options"]["stars"] == "table3"
    calendar = load_calendar(dataset_dir / "calendar.txt")
    test_start = read_json(dataset_dir / "config.json")["test_start"]
    expected_fence = firewall_fence(calendar, Date.fromisoformat(test_start))
    assert report["fence"] == expected_fence.isoformat()

    rows = read_panel(tmp_path / "ingest" / "panel.csv")
    assert len(rows) == report["panel"]["n_rows"]


@pytest.mark.parametrize(
    "test_start, fence",
    [
        pytest.param(Date(2019, 8, 1), Date(2019, 2, 8), id="trading-day"),
        pytest.param(Date(2019, 8, 2), Date(2019, 2, 11), id="saturday"),
        pytest.param(Date(2019, 8, 3), Date(2019, 2, 11), id="sunday"),
        pytest.param(Date(2020, 1, 5), Date(2019, 7, 15), id="last-day"),
        pytest.param(Date(2019, 6, 22), Date(2019, 1, 1), id="59-trading-days-in"),
        pytest.param(Date(2019, 5, 1), Date(2019, 1, 1), id="22-trading-days-in"),
        pytest.param(Date(2019, 4, 1), Date(2019, 1, 1), id="before-the-calendar"),
        pytest.param(Date(2020, 1, 6), Date(2019, 1, 1), id="after-the-calendar"),
        pytest.param(Date(2020, 1, 10), Date(2019, 1, 1), id="weekend-after-the-calendar"),
    ],
)
def test_fence_is_60_trading_days_before_the_count_lookback(test_start, fence):
    """The fence is 60 trading days before the trading day on or after
    test_start - 90, or the calendar's first day when there is no such
    day or it lies fewer than 60 trading days in. The calendar runs over
    the weekdays of 2019-01-01 .. 2019-10-07."""
    days = [Date(2019, 1, 1) + timedelta(days=i) for i in range(280)]
    calendar = TradingCalendar([d for d in days if d.weekday() < 5])
    assert (calendar.first(), calendar.last(), len(calendar)) == (Date(2019, 1, 1), Date(2019, 10, 7), 200)
    assert firewall_fence(calendar, test_start) == fence


def test_analyze_is_deterministic_across_runs(dataset_dir, tmp_path):
    config = dataset_dir / "config.json"
    assert run("analyze", "--config", config, "--out", tmp_path / "a") == 0
    assert run("analyze", "--config", config, "--out", tmp_path / "b") == 0
    for name in ANALYZE_FILES:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_analyze_option_overrides_flow_into_outputs(dataset_dir, tmp_path):
    config = dataset_dir / "config.json"
    out = tmp_path / "robust"
    assert run("analyze", "--config", config, "--out", out,
               "--se", "robust", "--stars", "table4") == 0
    text = (out / "regressions.txt").read_text(encoding="utf-8")
    assert text.startswith("Pooled regressions (robust standard errors)")
    assert text.rstrip().endswith("* p-value < 0.1, ** p-value < 0.05, *** p-value < 0.01")
    report = read_json(out / "analyze_report.json")
    assert report["options"]["se"] == "robust"
    assert report["options"]["stars"] == "table4"


def test_lexicon_scorer_path(dataset_dir, tmp_path):
    config = dataset_dir / "config.json"
    out = tmp_path / "lexscore"
    assert run("score", "--config", config, "--out", out, "--scorer", "lexicon") == 0
    report = read_json(out / "score_report.json")
    assert report["scorer"] == "lexicon"
    assert report["n_scored"] > 0
    assert run("analyze", "--config", config, "--out", tmp_path / "lexanalyze",
               "--scorer", "lexicon") == 0


def test_score_and_analyze_give_a_report_the_same_lexicon_score(dataset_dir, tmp_path):
    """Under the lexicon scorer, each panel row carries the pos and neg
    that score writes for its report, to the last digit."""
    config = dataset_dir / "config.json"
    assert run("score", "--config", config, "--out", tmp_path / "score", "--scorer", "lexicon") == 0
    assert run("analyze", "--config", config, "--out", tmp_path / "analyze", "--scorer", "lexicon") == 0
    scored = {
        row[0]: (row[1], row[3]) for _, row in read_csv_rows(tmp_path / "score" / "scores.csv", SCORES_HEADER)
    }
    pos, neg = PANEL_HEADER.index("pos_lag"), PANEL_HEADER.index("neg_lag")
    panel = [row for _, row in read_csv_rows(tmp_path / "analyze" / "panel.csv", PANEL_HEADER)]
    assert panel
    assert [(row[pos], row[neg]) for row in panel] == [scored[row[0]] for row in panel]


def test_synth_verb_writes_a_dataset(tmp_path):
    out = tmp_path / "generated"
    assert run("synth", "--out", out, "--seed", "3") == 0
    for name in ("corpus.csv", "bars.csv", "indices.csv", "industry.csv",
                 "calendar.txt", "scores.csv", "truth.json", "config.json"):
        assert (out / name).exists(), name
    truth = read_json(out / "truth.json")
    assert truth["seed"] == 3


def test_readme_config_example_is_the_schema_at_its_defaults(dataset_dir):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1]
    example = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    schema = fields(RunConfig)
    assert list(example) == ["format_version", *(f.name for f in schema)]
    assert example["format_version"] == FORMAT_VERSION
    options = [f for f in schema if f.default is not MISSING and not f.type.startswith("Path")]
    for f in options:
        assert example[f.name] == f.default and type(example[f.name]) is type(f.default), f.name
    assert example["lexicon"] is None and example["risk_warnings"] is None
    # synth writes the same keys, each option at the same default
    written = read_json(dataset_dir / "config.json")
    assert list(written) == list(example)
    assert all(written[f.name] == example[f.name] for f in options if f.name != "seed")


def test_readme_flag_lists_are_the_verb_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    listed = {
        verb: tuple(re.findall(r"`--(\w+)`", flags))
        for verb, flags in re.findall(r"^- `(\w+)`: (.*)$", section, re.M)
    }
    assert listed == {verb: flags for verb, (_, _, flags) in VERBS.items()}


# The override flags each verb takes, and a valid value of each flag.
VERB_FLAGS = {
    "synth": {"--out", "--seed"},
    "ingest": {"--out"},
    "label": {"--out"},
    "score": {"--out", "--scorer"},
    "analyze": {"--out", "--scorer", "--stars", "--se", "--ttest"},
}
FLAG_VALUES = {
    "--out": "out",
    "--seed": "5",
    "--scorer": "lexicon",
    "--stars": "table4",
    "--se": "robust",
    "--ttest": "pooled",
}


def test_each_verb_takes_only_the_flags_it_reads(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    for verb, flag in itertools.product(VERB_FLAGS, FLAG_VALUES):
        assert run(verb, "--config", missing, flag, FLAG_VALUES[flag]) == 1, (verb, flag)
        err = capsys.readouterr().err
        if flag in VERB_FLAGS[verb]:
            assert err.startswith(f"error: cannot read config file {missing}: ") and err.count("\n") == 1, err
        else:
            assert err == f"error: unrecognized arguments: {flag} {FLAG_VALUES[flag]}\n", (verb, err)


def test_usage_errors_exit_one(dataset_dir, capsys):
    config = dataset_dir / "config.json"
    assert run("ingest") == 1  # no --config
    assert "requires --config" in capsys.readouterr().err
    assert run("frobnicate") == 1  # unknown verb
    assert main([]) == 1  # missing verb
    assert run("analyze", "--config", config, "--stars", "table9") == 1
    assert run("analyze", "--config", "/nonexistent/config.json") == 1


def test_bad_configs_exit_one(dataset_dir, tmp_path, capsys):
    base = read_json(dataset_dir / "config.json")

    def write_config(mutate):
        raw = dict(base)
        mutate(raw)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        return path

    for name in ("corpus.csv", "bars.csv", "indices.csv", "industry.csv",
                 "calendar.txt", "scores.csv"):
        shutil.copyfile(dataset_dir / name, tmp_path / name)

    # train range must strictly precede the test range
    overlap = write_config(lambda raw: raw.update(train_end=raw["test_end"]))
    assert run("ingest", "--config", overlap) == 1
    assert "strictly precede" in capsys.readouterr().err

    unknown = write_config(lambda raw: raw.update(surprise=1))
    assert run("ingest", "--config", unknown) == 1

    version = write_config(lambda raw: raw.update(format_version=99))
    assert run("ingest", "--config", version) == 1
    capsys.readouterr()

    # JSON true equals 1 in Python, but it is not a format version
    version = write_config(lambda raw: raw.update(format_version=True))
    assert run("ingest", "--config", version) == 1
    err = capsys.readouterr().err
    assert err == "error: unsupported config format_version True (expected 1)\n", err

    missing = write_config(lambda raw: raw.update(corpus="gone.csv"))
    assert run("ingest", "--config", missing) == 1
    assert "does not exist" in capsys.readouterr().err

    (tmp_path / "cdir").mkdir()
    directory = write_config(lambda raw: raw.update(corpus="cdir"))
    assert run("ingest", "--config", directory) == 1
    assert capsys.readouterr().err == f"error: corpus path is not a file: {tmp_path / 'cdir'}\n"

    occupied = tmp_path / "occupied"
    occupied.write_text("", encoding="utf-8")
    for argv in (("ingest", "--config", dataset_dir / "config.json"), ("synth",)):
        assert run(*argv, "--out", occupied) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "output directory" in err, err

    not_json = tmp_path / "broken.json"
    not_json.write_text("{", encoding="utf-8")
    assert run("ingest", "--config", not_json) == 1
    not_json.write_bytes(b"\xff")
    assert run("ingest", "--config", not_json) == 1
    assert capsys.readouterr().err.endswith("broken.json is not UTF-8 text (invalid start byte)\n")

    # calendar too short for the test range plus its lookback margins
    coverage = write_config(lambda raw: raw.update(test_end="2099-01-03"))
    assert run("ingest", "--config", coverage) == 1
    capsys.readouterr()

    # a negative generator seed, given as a flag or in the config
    negative = write_config(lambda raw: raw.update(seed=-1))
    env = dict(os.environ, PYTHONPATH=str(Path(reportsignal.__file__).parents[1]))
    for argv in (("--seed", "-1"), ("--config", negative)):
        argv = [sys.executable, "-m", "reportsignal", "synth", *map(str, argv), "--out", str(tmp_path / "neg")]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 1, done.stderr
        assert done.stderr == "error: seed must be non-negative, got -1\n"
        assert not (tmp_path / "neg").exists()


@pytest.mark.parametrize(
    "verb, name",
    [
        ("synth", "corpus.csv"),
        ("ingest", "ingest_report.json"),
        ("ingest", "market.npz"),
        ("ingest", "market.json"),
        ("label", "labels.csv"),
        ("score", "scores.csv"),
        ("analyze", "panel.csv"),
        ("analyze", "industry.txt"),
        ("analyze", "daily_sentiment.gp"),
        ("analyze", "analyze_report.json"),
    ],
)
def test_an_output_that_cannot_be_written_exits_one(dataset_dir, tmp_path, capsys, verb, name):
    """With a directory where an output goes, the verb exits 1 with one
    error line naming that path, and leaves no temporary file behind;
    a verb with a report leaves none, not even a previous run's."""
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    report = out / f"{verb}_report.json"
    stale = verb != "synth" and report.name != name
    if stale:
        report.write_text("{}\n", encoding="utf-8")
    argv = ("--seed", 13) if verb == "synth" else ("--config", dataset_dir / "config.json")
    capsys.readouterr()
    assert run(verb, *argv, "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out / name}: ") and captured.err.count("\n") == 1, captured.err
    assert "Traceback" not in captured.out + captured.err
    assert list(out.glob("*.tmp")) == []
    if stale:
        assert not report.exists()


# The file each verb writes last, before its summary.
LAST_OUTPUTS = {
    "synth": "config.json",
    "ingest": "ingest_report.json",
    "label": "label_report.json",
    "score": "score_report.json",
    "analyze": "analyze_report.json",
}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_standard_output_that_cannot_be_written_exits_one(dataset_dir, tmp_path):
    """Each verb writes its summary to standard output after its output
    files. With standard output a full device, or (for ``analyze``) a pipe
    whose reader has closed, or (for ``score``) closed before the verb
    starts (``>&-``), the verb exits 1 with one error line, no traceback
    and nothing from the interpreter's last flush, and its files are all
    written. The children run side by side."""
    env = dict(os.environ, PYTHONPATH=str(Path(reportsignal.__file__).parents[1]))
    reader, closed_pipe = os.pipe()
    os.close(reader)
    cases = [(verb, errno.ENOSPC) for verb in LAST_OUTPUTS] + [("analyze", errno.EPIPE), ("score", errno.EBADF)]
    children = []
    with open("/dev/full", "w") as full:
        for i, (verb, code) in enumerate(cases):
            out = tmp_path / f"out{i}"
            argv = ("--seed", 13) if verb == "synth" else ("--config", dataset_dir / "config.json")
            command = [sys.executable, "-m", "reportsignal", verb, *map(str, argv), "--out", str(out)]
            stdout = {errno.ENOSPC: full, errno.EPIPE: closed_pipe, errno.EBADF: subprocess.DEVNULL}[code]
            close_stdout = (lambda: os.close(1)) if code == errno.EBADF else None
            child = subprocess.Popen(
                command, env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, preexec_fn=close_stdout
            )
            children.append((out / LAST_OUTPUTS[verb], code, child))
    os.close(closed_pipe)
    for last_output, code, child in children:
        _, err = child.communicate(timeout=120)
        assert (child.returncode, err) == (1, f"error: cannot write standard output: {os.strerror(code)}\n")
        assert last_output.exists()


def test_corrupt_market_data_exits_two(dataset_dir, tmp_path, capsys):
    clone = tmp_path / "data"
    shutil.copytree(dataset_dir, clone)
    bars = clone / "bars.csv"
    lines = bars.read_text(encoding="utf-8").splitlines()
    lines[0] = "totally,wrong,header"
    bars.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run("ingest", "--config", clone / "config.json", "--out", tmp_path / "out") == 2

    # A byte that is not UTF-8 in any input file is a data error that
    # names the file; analyze reads every input, so it meets each one.
    # So is a CSV field longer than the csv module's 131,072-character limit.
    config = clone_with_text_inputs(dataset_dir, tmp_path / "bytes")
    capsys.readouterr()
    long_field = b"x" * 140_000
    cases = [(name, b"\xff", "UTF-8") for name in INPUT_FILES]
    cases += [(name, long_field, "malformed CSV") for name in INPUT_FILES if name.endswith(".csv")]
    for name, inserted, expected in cases:
        path = config.parent / name
        clean = path.read_bytes()
        second_line = clean.index(b"\n") + 1
        path.write_bytes(clean[:second_line] + inserted + clean[second_line:])
        assert run("analyze", "--config", config, "--out", tmp_path / "out") == 2, name
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and name in err and expected in err, err
        path.write_bytes(clean)

    # A second industry row for a mapped stock fails like a repeated report_id.
    industry = config.parent / "industry.csv"
    first_stock = industry.read_text(encoding="utf-8").splitlines()[1].split(",")[0]
    with industry.open("a", encoding="utf-8") as stream:
        stream.write(f"{first_stock},IND99,Bank\n")
    assert run("ingest", "--config", config, "--out", tmp_path / "dup") == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "industry.csv" in err and first_stock in err, err


def test_fear_gauge_as_an_industry_index_exits_two(dataset_dir, tmp_path, capsys):
    """VIX may go non-positive, so it has no log return to serve as a
    stock's industry index: such a row is a data error naming the file and
    line, where it used to crash the market reads with a math domain error."""
    clone = tmp_path / "data"
    shutil.copytree(dataset_dir, clone)
    industry = clone / "industry.csv"
    lines = industry.read_text(encoding="utf-8").splitlines()
    for i in range(1, 6):
        stock_id, _index, sector = lines[i].split(",")
        lines[i] = f"{stock_id},VIX,{sector}"
    industry.write_text("\n".join(lines) + "\n", encoding="utf-8")
    indices = clone / "indices.csv"
    rows = indices.read_text(encoding="utf-8").splitlines()
    for i, row in enumerate(rows):
        index_id, day, level = row.split(",")
        if index_id == "VIX":
            rows[i] = f"VIX,{day},{-float(level)!r}"
    indices.write_text("\n".join(rows) + "\n", encoding="utf-8")
    capsys.readouterr()
    for verb in ("ingest", "label", "analyze"):
        assert run(verb, "--config", clone / "config.json", "--out", tmp_path / verb) == 2, verb
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and f"{industry} line 2: " in err and "VIX" in err, err


def test_non_positive_fear_gauge_under_logdiff_exits_two(dataset_dir, tmp_path, capsys):
    """The log change of a VIX level <= 0 is undefined: with vix_mode
    'logdiff', analyze names the index and the date in one error line
    where it used to crash with a math domain error."""
    clone = tmp_path / "data"
    shutil.copytree(dataset_dir, clone)
    raw = read_json(clone / "config.json")
    test_start = Date.fromisoformat(raw["test_start"])
    indices = clone / "indices.csv"
    rows = indices.read_text(encoding="utf-8").splitlines()
    for i, row in enumerate(rows[1:], start=1):
        index_id, day, level = row.split(",")
        if index_id == "VIX" and Date.fromisoformat(day) >= test_start:
            rows[i] = f"VIX,{day},{-float(level)!r}"
    indices.write_text("\n".join(rows) + "\n", encoding="utf-8")
    raw["vix_mode"] = "logdiff"
    (clone / "config.json").write_text(json.dumps(raw), encoding="utf-8")
    capsys.readouterr()
    assert run("analyze", "--config", clone / "config.json", "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "VIX level on " in err and "not positive" in err, err
    named = Date.fromisoformat(re.search(r" on (\d{4}-\d{2}-\d{2}) ", err).group(1))
    assert named >= test_start


def test_a_non_finite_panel_value_exits_two(dataset_dir, tmp_path, capsys):
    """VIX levels of -1e308 and 1e308 on two adjacent test-range days are
    each valid input, but their difference overflows: analyze names the
    first panel row released on the second day, whose vix_lag is not
    finite, in one error line."""
    clone = tmp_path / "data"
    shutil.copytree(dataset_dir, clone)
    config = clone / "config.json"
    assert run("analyze", "--config", config, "--out", tmp_path / "clean") == 0
    dates = load_calendar(clone / "calendar.txt").dates
    t = dates.index(Date.fromisoformat(read_json(config)["test_start"])) + 2
    levels = {dates[t].isoformat(): "-1e308", dates[t + 1].isoformat(): "1e308"}
    indices = clone / "indices.csv"
    rows = indices.read_text(encoding="utf-8").splitlines()
    for i, row in enumerate(rows):
        index_id, date, _level = row.split(",")
        if index_id == "VIX" and date in levels:
            rows[i] = f"VIX,{date},{levels[date]}"
    indices.write_text("\n".join(rows) + "\n", encoding="utf-8")
    outcome_date = dates[t + 2]
    first = next(row for row in read_panel(tmp_path / "clean" / "panel.csv") if row.outcome_date == outcome_date)
    capsys.readouterr()
    assert run("analyze", "--config", config, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err == f"error: row {first.report_id}/{first.stock_id}: vix_lag not finite\n"


def test_a_range_without_pairs_exits_two(dataset_dir, tmp_path, capsys):
    """A train or test range of one Saturday holds no pair: ``label`` ends
    on its empty pool and ``analyze`` on its empty panel, each with exit 2
    and one error line, before anything labels or fits them."""
    clone = tmp_path / "data"
    shutil.copytree(dataset_dir, clone)
    raw = read_json(clone / "config.json")
    cases = [
        ("label", "train", "labeling pool is empty: no training-range pair survived"),
        ("analyze", "test", "empty panel: all 0 test-range pairs dropped ({})"),
    ]
    for verb, which, message in cases:
        start = Date.fromisoformat(raw[f"{which}_start"])
        saturday = (start + timedelta(days=(5 - start.weekday()) % 7)).isoformat()
        config = clone / f"{verb}.json"
        config.write_text(json.dumps(raw | {f"{which}_start": saturday, f"{which}_end": saturday}), encoding="utf-8")
        capsys.readouterr()
        assert run(verb, "--config", config, "--out", tmp_path / verb) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_every_pair_is_a_sample_or_a_drop(dataset_dir, tmp_path):
    """pairs = rows + drops for the panel, pairs = samples + drops for the
    majority block and pairs = entries + skipped for the daily series, also
    when a header-only lexicon leaves every report without tokens; and the
    label pool plus its drops are the training-range pairs of the corpus."""
    config = dataset_dir / "config.json"
    raw = read_json(config)
    train = (Date.fromisoformat(raw["train_start"]), Date.fromisoformat(raw["train_end"]))
    train_pairs = sum(
        len(row[3].split(";"))
        for _, row in read_csv_rows(dataset_dir / "corpus.csv", CORPUS_HEADER)
        if train[0] <= Date.fromisoformat(row[4]) <= train[1]
    )
    empty = clone_with_text_inputs(dataset_dir, tmp_path / "empty")
    (empty.parent / "lexicon.csv").write_text("word,label\n", encoding="utf-8")
    for name, path in (("full", config), ("empty", empty)):
        out = tmp_path / f"{name}-out"
        assert run("analyze", "--config", path, "--out", out) == 0
        report = read_json(out / "analyze_report.json")
        pairs = report["panel"]["n_pairs"]
        assert report["panel"]["n_rows"] + sum(report["panel"]["drops"].values()) == pairs
        majority = report["majority"]
        assert majority["n_samples"] + sum(majority["drops"].values()) == pairs, name
        series = report["daily_series"]
        assert series["n_entries"] + series["n_skipped"] == pairs, name
        assert run("label", "--config", path, "--out", out) == 0
        labels = read_json(out / "label_report.json")
        assert labels["n_pool"] + sum(labels["drops"].values()) == train_pairs, name
    assert majority["drops"] == {"no tokens": pairs}


def test_analyze_ignores_the_row_order_of_market_files(dataset_dir, tmp_path):
    """Shuffling the data rows of bars, indices and industry changes no
    byte of any analyze output."""
    clone = tmp_path / "data"
    shutil.copytree(dataset_dir, clone)
    rng = random.Random(3)
    for name in ("bars.csv", "indices.csv", "industry.csv"):
        header, *rows = (clone / name).read_text(encoding="utf-8").splitlines()
        rng.shuffle(rows)
        (clone / name).write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    assert run("analyze", "--config", dataset_dir / "config.json", "--out", tmp_path / "a") == 0
    assert run("analyze", "--config", clone / "config.json", "--out", tmp_path / "b") == 0
    for name in ANALYZE_FILES:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def edit_line(path, pick, edit):
    """Rewrite the first line of ``path`` that ``pick`` accepts through ``edit``."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if pick(line))
    lines[i] = edit(lines[i])
    path.write_text("".join(lines), encoding="utf-8")


def bump(text, at):
    """``text`` with one character changed, a non-zero digit staying one."""
    return text[:at] + {"9": "1"}.get(text[at], chr(ord(text[at]) + 1)) + text[at + 1 :]


def test_a_snapshot_never_changes_an_outcome(dataset_dir, tmp_path, capsys):
    """analyze reads ingest's snapshot only while its manifest matches the
    market files and the code. Otherwise it parses the files, says why in
    its report, and gives what a run with no snapshot gives, errors too."""
    clone = tmp_path / "data"
    shutil.copytree(dataset_dir, clone)
    config = clone / "config.json"
    assert run("ingest", "--config", config, "--out", tmp_path / "ingested") == 0
    capsys.readouterr()
    runs = itertools.count()

    def analyze(prepare=None):
        """analyze in a copy of ingest's directory after ``prepare(copy)``, or
        with ``prepare`` None in an empty one: its market source and its
        outcome (exit code, error text, outputs, report)."""
        out = tmp_path / f"run{next(runs)}"
        if prepare is None:
            out.mkdir()
        else:
            shutil.copytree(tmp_path / "ingested", out)
            prepare(out)
        code = run("analyze", "--config", config, "--out", out)
        outputs = {name: (out / name).read_bytes() for name in ANALYZE_FILES if (out / name).exists()}
        report = json.loads(outputs.pop("analyze_report.json", b"{}"))
        source = report.pop("market_source", None)
        return source, (code, capsys.readouterr().err, outputs, report)

    def untouched(out):
        pass

    def last_field(line):
        return bump(line, line.rindex(",") + 1)

    no_snapshot, clean = analyze()
    assert no_snapshot == "csv: no snapshot" and clean[0] == 0
    assert analyze(untouched) == ("snapshot", clean)

    # One byte of each market file changed, where analyze reads it.
    start = read_json(config)["test_start"]
    edits = {
        "bars": ("bars.csv", lambda line: line[:1].isdigit() and line.split(",")[1] >= start, last_field),
        "indices": ("indices.csv", lambda line: line.startswith("SSE,") and line.split(",")[1] >= start, last_field),
        "industry": ("industry.csv", lambda line: line[:1].isdigit(), last_field),
        # the first Friday becomes the Saturday after it
        "calendar": (
            "calendar.txt",
            lambda line: Date.fromisoformat(line[:10]).weekday() == 4 and line[9] != "9" and line[8:10] < "28",
            lambda line: bump(line, 9),
        ),
    }
    for key, (name, pick, edit) in edits.items():
        original = (clone / name).read_bytes()
        edit_line(clone / name, pick, edit)
        source, outcome = analyze(untouched)
        assert source == f"csv: stale snapshot ({key})"
        assert outcome == analyze()[1] != clean, key  # the byte matters
        (clone / name).write_bytes(original)

    def truncate(out):
        npz = out / "market.npz"
        npz.write_bytes(npz.read_bytes()[: npz.stat().st_size // 2])

    def flip(out):
        npz = out / "market.npz"
        data = bytearray(npz.read_bytes())
        data[len(data) // 2] ^= 0x01
        npz.write_bytes(data)

    def forget(out):
        (out / "market.json").unlink()

    def recode(out):
        manifest = read_json(out / "market.json")
        manifest["code"] = "0" * 64
        (out / "market.json").write_text(json.dumps(manifest), encoding="utf-8")

    def reformat(out):
        manifest = read_json(out / "market.json")
        manifest["format_version"] = 1
        (out / "market.json").write_text(json.dumps(manifest), encoding="utf-8")

    assert analyze(truncate) == ("csv: unreadable snapshot", clean)
    assert analyze(flip) == ("csv: unreadable snapshot", clean)
    assert analyze(forget) == ("csv: no snapshot", clean)
    assert analyze(recode) == ("csv: stale snapshot (code)", clean)
    assert analyze(reformat) == ("csv: stale snapshot (format_version)", clean)

    edit_line(clone / "bars.csv", lambda line: True, lambda line: "totally,wrong,header\n")
    source, outcome = analyze(untouched)
    assert (outcome, outcome[0], source) == (analyze()[1], 2, None)
    assert outcome[1].count("error:") == 1 and "bars.csv" in outcome[1]


def test_only_market_and_corpus_edits_can_stale_a_snapshot(dataset_dir, tmp_path):
    """The snapshot's code hash covers market.py and corpus.py, whose
    readers the market files pass through: in a copy of the package, an
    edit to another module keeps ingest's snapshot, and an edit anywhere in
    corpus.py, inside a reader or not, marks it stale."""
    config = dataset_dir / "config.json"
    assert run("ingest", "--config", config, "--out", tmp_path / "ingested") == 0
    package = tmp_path / "src" / "reportsignal"
    shutil.copytree(Path(reportsignal.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "src"), PYTHONDONTWRITEBYTECODE="1")

    def label_after(name, old, new):
        """The market source of a ``label`` run by the copy, once its
        module ``name`` has ``old`` replaced by ``new``; the module is
        restored afterwards."""
        module = package / name
        text = module.read_text(encoding="utf-8")
        assert text.count(old) == 1
        module.write_text(text.replace(old, new), encoding="utf-8")
        out = tmp_path / f"label{len(list(tmp_path.glob('label*')))}"
        shutil.copytree(tmp_path / "ingested", out)
        argv = [sys.executable, "-m", "reportsignal", "label", "--config", str(config), "--out", str(out)]
        try:
            subprocess.run(argv, env=env, check=True, capture_output=True, timeout=120)
        finally:
            module.write_text(text, encoding="utf-8")
        return read_json(out / "label_report.json")["market_source"]

    assert label_after("reporting.py", '"""Human-readable', '"""Edited human-readable') == "snapshot"
    edited = label_after("corpus.py", '"""Parse a corpus file', '"""Parse an edited corpus file')
    assert edited == "csv: stale snapshot (code)"
    reader = "        lines = [raw.strip() for raw in stream.read().splitlines()]"
    assert label_after("corpus.py", reader, reader + "  # edited") == "csv: stale snapshot (code)"


def test_unclosed_quote_in_corpus_exits_two(dataset_dir, tmp_path, capsys):
    """A quote opened in a title and never closed would swallow every row
    after it into one field; the strict reader makes it a data error."""
    clone = tmp_path / "data"
    shutil.copytree(dataset_dir, clone)
    corpus = clone / "corpus.csv"
    lines = corpus.read_text(encoding="utf-8").splitlines()
    report_id, rest = lines[-100].split(",", 1)
    lines[-100] = f'{report_id},"{rest}'
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run("ingest", "--config", clone / "config.json", "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "corpus.csv" in err and "malformed CSV" in err, err


def test_byte_order_marks_read_like_clean_files(dataset_dir, tmp_path):
    config = clone_with_text_inputs(dataset_dir, tmp_path / "clean")
    bom_config = clone_with_text_inputs(dataset_dir, tmp_path / "bom")
    for name in INPUT_FILES + ("config.json",):
        path = bom_config.parent / name
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    for verb in ("ingest", "analyze"):
        assert run(verb, "--config", config, "--out", tmp_path / "clean_out") == 0
        assert run(verb, "--config", bom_config, "--out", tmp_path / "bom_out") == 0
    for name in ("ingest_report.json",) + ANALYZE_FILES:
        expected = (tmp_path / "clean_out" / name).read_bytes()
        assert (tmp_path / "bom_out" / name).read_bytes() == expected, name


def test_daily_series_puts_a_weekend_release_on_its_trading_day(dataset_dir, tmp_path):
    """A report moved from a Monday to the Saturday before joins the Monday
    point of the daily series, the day the panel aligns it to."""
    clone = tmp_path / "data"
    shutil.copytree(dataset_dir, clone)
    test_start = Date.fromisoformat(read_json(clone / "config.json")["test_start"])
    corpus = clone / "corpus.csv"
    lines = corpus.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines[1:], start=1):
        head, released = line.rsplit(",", 1)
        saturday = Date.fromisoformat(released) - timedelta(days=2)
        if saturday.weekday() == 5 and saturday >= test_start:
            lines[i] = f"{head},{saturday.isoformat()}"
            break
    else:
        pytest.fail("no Monday release in the test range")
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")

    assert run("analyze", "--config", dataset_dir / "config.json", "--out", tmp_path / "a") == 0
    assert run("analyze", "--config", clone / "config.json", "--out", tmp_path / "b") == 0
    series = (tmp_path / "b" / "daily_sentiment.dat").read_text(encoding="utf-8")
    assert saturday.isoformat() not in series
    assert series == (tmp_path / "a" / "daily_sentiment.dat").read_text(encoding="utf-8")


def test_empty_lexicon_with_lexicon_scorer_exits_one(dataset_dir, tmp_path, capsys):
    clone = tmp_path / "data"
    shutil.copytree(dataset_dir, clone)
    empty = tmp_path / "empty_lexicon.csv"
    empty.write_text("word,label\n", encoding="utf-8")
    raw = read_json(clone / "config.json")
    raw["lexicon"] = str(empty)
    raw["scorer"] = "lexicon"
    (clone / "config.json").write_text(json.dumps(raw), encoding="utf-8")
    assert run("score", "--config", clone / "config.json", "--out", tmp_path / "out") == 1
    assert "no entries" in capsys.readouterr().err


def test_non_finite_temperature_is_a_configuration_error(dataset_dir, tmp_path, capsys):
    """json reads the NaN and Infinity tokens; either temperature ends
    every scoring verb under either scorer with exit 1 and one error line."""
    clone = tmp_path / "data"
    shutil.copytree(dataset_dir, clone)
    raw = (clone / "config.json").read_text(encoding="utf-8")
    for token in ("NaN", "Infinity"):
        config = clone / f"config_{token}.json"
        config.write_text(re.sub(r"(\"temperature\": )[^,}]+", rf"\g<1>{token}", raw), encoding="utf-8")
        assert f'"temperature": {token}' in config.read_text(encoding="utf-8")
        for verb, scorer in itertools.product(("score", "analyze"), ("lexicon", "external")):
            out = tmp_path / f"{token}_{verb}_{scorer}"
            assert run(verb, "--config", config, "--out", out, "--scorer", scorer) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: temperature must be positive and finite") and err.count("\n") == 1
            assert not out.exists()


def test_degenerate_scores_exit_three(dataset_dir, tmp_path):
    """Identical scores for every report make the sentiment columns
    collinear with the constant, which must surface as a numerical
    failure, not a crash or a silent fit."""
    clone = tmp_path / "data"
    shutil.copytree(dataset_dir, clone)
    scores = clone / "scores.csv"
    lines = scores.read_text(encoding="utf-8").splitlines()
    rewritten = [lines[0]]
    for line in lines[1:]:
        report_id = line.split(",")[0]
        rewritten.append(f"{report_id},0.5,0.3,0.2")
    scores.write_text("\n".join(rewritten) + "\n", encoding="utf-8")
    assert run("analyze", "--config", clone / "config.json", "--out", tmp_path / "out") == 3


def test_missing_scores_detected_before_analysis(dataset_dir, tmp_path, capsys):
    clone = tmp_path / "data"
    shutil.copytree(dataset_dir, clone)
    raw = read_json(clone / "config.json")
    raw["scores"] = None
    (clone / "config.json").write_text(json.dumps(raw), encoding="utf-8")
    assert run("analyze", "--config", clone / "config.json", "--out", tmp_path / "out") == 1
    assert "requires a scores path" in capsys.readouterr().err
