"""The run-configuration contract: what ``load_config`` makes of each key
when it is absent, null or of the wrong type, and which error comes first
when a file has more than one fault."""

import json
import math
from datetime import date as Date
from pathlib import Path

import pytest

from reportsignal.config import load_config, packaged_data_path
from reportsignal.errors import ConfigurationError

BASE = {
    "format_version": 1,
    "corpus": "corpus.csv",
    "bars": "bars.csv",
    "indices": "indices.csv",
    "industry": "industry.csv",
    "calendar": "calendar.txt",
    "train_start": "2021-04-06",
    "train_end": "2021-11-01",
    "test_start": "2021-11-02",
    "test_end": "2022-03-21",
}

ABSENT = object()  # the key is left out of the file
LOADS = object()  # the file loads; no attribute to compare
HERE = object()  # stands for the config file's directory in expected paths


def load(tmp_path, changes):
    """Load BASE with ``changes`` applied; the loaded config, or the error text."""
    raw = dict(BASE)
    for key, value in changes.items():
        if value is ABSENT:
            raw.pop(key, None)
        else:
            raw[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    try:
        return load_config(path)
    except ConfigurationError as exc:
        return str(exc)


class Error(str):
    """The text of an expected ``ConfigurationError``."""


def wrong_type(key, value):
    return Error(f"config key {key!r} has wrong type: {value!r}")


def not_a_number(key, value):
    return Error(f"config key {key!r} must be a number, got {value!r}")


def choice(key, choices, value):
    return Error(f"{key} must be one of {choices}, got {value!r}")


CASES = [
    # format_version
    ("format_version", ABSENT, LOADS),
    ("format_version", 1, LOADS),
    ("format_version", None, Error("unsupported config format_version None (expected 1)")),
    ("format_version", 2, Error("unsupported config format_version 2 (expected 1)")),
    ("format_version", "1", Error("unsupported config format_version '1' (expected 1)")),
    ("format_version", [], Error("unsupported config format_version [] (expected 1)")),
    ("format_version", True, Error("unsupported config format_version True (expected 1)")),
]
# required input files
for _key in ("corpus", "bars", "indices", "industry"):
    CASES += [
        (_key, ABSENT, Error(f"missing config keys: {_key}")),
        (_key, None, Error(f"missing config keys: {_key}")),
        (_key, 5, wrong_type(_key, 5)),
        (_key, [], wrong_type(_key, [])),
        (_key, "sub/file.csv", (HERE, "sub/file.csv")),
    ]
# optional input files
CASES += [
    ("calendar", ABSENT, Error("no calendar file given and infer_calendar is false")),
    ("calendar", None, Error("no calendar file given and infer_calendar is false")),
    ("calendar", True, wrong_type("calendar", True)),
    ("calendar", "days.txt", (HERE, "days.txt")),
    ("scores", ABSENT, None),
    ("scores", None, None),
    ("scores", 1.5, wrong_type("scores", 1.5)),
    ("scores", "s.csv", (HERE, "s.csv")),
]
for _key, _name in (("lexicon", "lexicon.csv"), ("risk_warnings", "risk_warnings.txt")):
    CASES += [
        (_key, ABSENT, packaged_data_path(_name)),
        (_key, None, packaged_data_path(_name)),
        (_key, {}, wrong_type(_key, {})),
        (_key, "mine.txt", (HERE, "mine.txt")),
    ]
CASES += [
    ("out", ABSENT, (HERE, "out")),
    ("out", None, (HERE, "out")),
    ("out", 0, wrong_type("out", 0)),
    ("out", "results", (HERE, "results")),
]
# dates
for _key in ("train_start", "train_end", "test_start", "test_end"):
    CASES += [
        (_key, ABSENT, Error(f"missing config keys: {_key}")),
        (_key, None, Error(f"missing config keys: {_key}")),
        (_key, 20210406, wrong_type(_key, 20210406)),
        (_key, "2021-13-01", Error(f"config key {_key!r} is not an ISO date: '2021-13-01'")),
        # forms that date.fromisoformat takes from Python 3.11 on
        (_key, "20211101", Error(f"config key {_key!r} is not an ISO date: '20211101'")),
        (_key, "2021-W44-1", Error(f"config key {_key!r} is not an ISO date: '2021-W44-1'")),
    ]
CASES += [
    ("train_start", "2021-11-01", Date(2021, 11, 1)),
    ("train_start", "2021-11-02", Error("train_start must not be after train_end")),
    ("test_end", "2021-11-01", Error("test_start must not be after test_end")),
    ("train_end", "2021-11-02",
     Error("train range must strictly precede test range (train_end 2021-11-02 >= test_start 2021-11-02)")),
]
# choices
for _key, _default, _choices in (
    ("scorer", "external", ("external", "lexicon")),
    ("stars", "table3", ("table3", "table4")),
    ("se", "classical", ("classical", "robust")),
    ("ttest", "welch", ("welch", "pooled")),
    ("vix_mode", "diff", ("diff", "logdiff")),
):
    CASES += [
        (_key, ABSENT, _default),
        (_key, None, wrong_type(_key, None)),
        (_key, 1, wrong_type(_key, 1)),
        (_key, False, wrong_type(_key, False)),
        (_key, "x", choice(_key, _choices, "x")),
        (_key, _choices[1], _choices[1]),
    ]
# numbers and flags
CASES += [
    ("min_rows", ABSENT, 50),
    ("min_rows", None, wrong_type("min_rows", None)),
    ("min_rows", True, wrong_type("min_rows", True)),
    ("min_rows", 2.5, wrong_type("min_rows", 2.5)),
    ("min_rows", "7", wrong_type("min_rows", "7")),
    ("min_rows", 0, Error("min_rows must be >= 1, got 0")),
    ("min_rows", 7, 7),
    ("temperature", ABSENT, 1.0),
    ("temperature", None, not_a_number("temperature", None)),
    ("temperature", True, wrong_type("temperature", True)),
    ("temperature", "x", not_a_number("temperature", "x")),
    ("temperature", 0, Error("temperature must be positive and finite, got 0.0")),
    ("temperature", math.nan, Error("temperature must be positive and finite, got nan")),
    ("temperature", 2, 2.0),
    ("tail_fraction", ABSENT, 0.25),
    ("tail_fraction", None, not_a_number("tail_fraction", None)),
    ("tail_fraction", False, wrong_type("tail_fraction", False)),
    ("tail_fraction", 1, Error("tail_fraction must be in [0, 1), got 1.0")),
    ("tail_fraction", 0, 0.0),
    ("max_error_rate", ABSENT, 0.1),
    ("max_error_rate", None, not_a_number("max_error_rate", None)),
    ("max_error_rate", [], not_a_number("max_error_rate", [])),
    ("max_error_rate", 2, Error("max_error_rate must be in [0, 1], got 2.0")),
    ("max_error_rate", 1, 1.0),
    ("infer_calendar", ABSENT, False),
    ("infer_calendar", None, wrong_type("infer_calendar", None)),
    ("infer_calendar", 1, wrong_type("infer_calendar", 1)),
    ("infer_calendar", "true", wrong_type("infer_calendar", "true")),
    ("infer_calendar", True, True),
    ("seed", ABSENT, 0),
    ("seed", None, wrong_type("seed", None)),
    ("seed", True, wrong_type("seed", True)),
    ("seed", 2.5, wrong_type("seed", 2.5)),
    ("seed", -1, -1),
    ("seed", 7, 7),
]


@pytest.mark.parametrize(
    "key, value, expected", CASES,
    ids=[f"{key}={'absent' if value is ABSENT else json.dumps(value)}" for key, value, _ in CASES],
)
def test_each_key_absent_null_or_mistyped(tmp_path, key, value, expected):
    got = load(tmp_path, {key: value})
    if isinstance(expected, Error):
        assert got == expected
        return
    assert not isinstance(got, str), got
    if expected is LOADS:
        return
    if isinstance(expected, tuple) and expected[0] is HERE:
        expected = tmp_path / expected[1]
    loaded = getattr(got, key)
    assert loaded == expected and type(loaded) is type(expected)


def test_the_base_config_loads_with_every_default(tmp_path):
    config = load(tmp_path, {})
    assert config.corpus == tmp_path / "corpus.csv"
    assert config.calendar == tmp_path / "calendar.txt"
    assert (config.train_start, config.test_end) == (Date(2021, 4, 6), Date(2022, 3, 21))
    assert (config.scorer, config.stars, config.se, config.ttest, config.vix_mode) == (
        "external", "table3", "classical", "welch", "diff")
    assert (config.min_rows, config.temperature, config.tail_fraction, config.max_error_rate) == (50, 1.0, 0.25, 0.1)
    assert (config.infer_calendar, config.seed, config.out) == (False, 0, tmp_path / "out")


@pytest.mark.parametrize("changes, expected", [
    # unknown keys come first, sorted
    ({"zeta": 1, "alpha": 2, "corpus": ABSENT}, "unknown config keys: alpha, zeta"),
    # then every missing key, in schema order
    ({"test_end": ABSENT, "corpus": None, "format_version": 2}, "missing config keys: corpus, test_end"),
    # then the format version
    ({"format_version": 2, "corpus": 5}, "unsupported config format_version 2 (expected 1)"),
    # then each key's type, in schema order rather than file order
    ({"seed": "x", "scorer": 5}, wrong_type("scorer", 5)),
    ({"out": 5, "infer_calendar": 1}, wrong_type("infer_calendar", 1)),
    ({"train_start": "x", "calendar": 5}, wrong_type("calendar", 5)),
    ({"temperature": "x", "test_end": 5}, wrong_type("test_end", 5)),
    # then the value checks, after every type check
    ({"stars": "table9", "seed": "x"}, wrong_type("seed", "x")),
    ({"min_rows": 0, "stars": "table9"}, choice("stars", ("table3", "table4"), "table9")),
    ({"train_end": "2022-12-01", "max_error_rate": 5}, "max_error_rate must be in [0, 1], got 5.0"),
])
def test_the_first_of_two_faults_is_reported(tmp_path, changes, expected):
    assert load(tmp_path, changes) == expected


def test_a_file_that_is_not_an_object_or_not_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("[]", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="^config file must contain a JSON object$"):
        load_config(path)
    path.write_text("{", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="is not valid JSON"):
        load_config(path)
    with pytest.raises(ConfigurationError, match="cannot read config file"):
        load_config(Path(tmp_path / "absent.json"))
    path.write_bytes(b'{"corpus": "\xff"}')
    with pytest.raises(ConfigurationError, match=r"^config file .*config\.json is not UTF-8 text \(invalid start byte\)$"):
        load_config(path)
