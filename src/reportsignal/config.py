"""Run configuration: a JSON file naming inputs, date ranges, and options.

All relative paths in the file resolve against the directory containing
the config file, so a dataset directory is fully relocatable. The lexicon
and risk-warning pattern files default to the copies packaged with this
distribution when the corresponding keys are null or absent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import date as Date
from importlib import resources
from pathlib import Path

from .errors import ConfigurationError

FORMAT_VERSION = 1

VALID_SCORERS = ("external", "lexicon")
VALID_STARS = ("table3", "table4")
VALID_SE = ("classical", "robust")
VALID_TTEST = ("welch", "pooled")
VALID_VIX_MODES = ("diff", "logdiff")

_PATH_KEYS = ("corpus", "bars", "indices", "industry", "calendar", "scores",
              "lexicon", "risk_warnings", "out")
_DATE_KEYS = ("train_start", "train_end", "test_start", "test_end")
_KNOWN_KEYS = frozenset(
    ("format_version", "scorer", "stars", "se", "ttest", "min_rows", "vix_mode",
     "temperature", "tail_fraction", "max_error_rate", "infer_calendar", "seed")
    + _PATH_KEYS
    + _DATE_KEYS
)
_REQUIRED_KEYS = ("corpus", "bars", "indices", "industry") + _DATE_KEYS


def packaged_data_path(name: str) -> Path:
    """Path of a data file shipped inside this package."""
    return Path(str(resources.files("reportsignal").joinpath("data", name)))


@dataclass
class RunConfig:
    """Validated inputs and options for one pipeline run."""

    corpus: Path
    bars: Path
    indices: Path
    industry: Path
    train_start: Date
    train_end: Date
    test_start: Date
    test_end: Date
    calendar: Path | None = None
    scores: Path | None = None
    lexicon: Path | None = None
    risk_warnings: Path | None = None
    scorer: str = "external"
    stars: str = "table3"
    se: str = "classical"
    ttest: str = "welch"
    min_rows: int = 50
    vix_mode: str = "diff"
    temperature: float = 1.0
    tail_fraction: float = 0.25
    max_error_rate: float = 0.1
    infer_calendar: bool = False
    out: Path = Path("out")
    seed: int = 0

    def __post_init__(self) -> None:
        if self.lexicon is None:
            self.lexicon = packaged_data_path("lexicon.csv")
        if self.risk_warnings is None:
            self.risk_warnings = packaged_data_path("risk_warnings.txt")

    def validate(self) -> None:
        if self.scorer not in VALID_SCORERS:
            raise ConfigurationError(f"scorer must be one of {VALID_SCORERS}, got {self.scorer!r}")
        if self.stars not in VALID_STARS:
            raise ConfigurationError(f"stars must be one of {VALID_STARS}, got {self.stars!r}")
        if self.se not in VALID_SE:
            raise ConfigurationError(f"se must be one of {VALID_SE}, got {self.se!r}")
        if self.ttest not in VALID_TTEST:
            raise ConfigurationError(f"ttest must be one of {VALID_TTEST}, got {self.ttest!r}")
        if self.vix_mode not in VALID_VIX_MODES:
            raise ConfigurationError(
                f"vix_mode must be one of {VALID_VIX_MODES}, got {self.vix_mode!r}"
            )
        if self.min_rows < 1:
            raise ConfigurationError(f"min_rows must be >= 1, got {self.min_rows}")
        if not (self.temperature > 0.0) or not math.isfinite(self.temperature):
            raise ConfigurationError(f"temperature must be positive and finite, got {self.temperature}")
        if not (0.0 <= self.tail_fraction < 1.0):
            raise ConfigurationError(
                f"tail_fraction must be in [0, 1), got {self.tail_fraction}"
            )
        if not (0.0 <= self.max_error_rate <= 1.0):
            raise ConfigurationError(
                f"max_error_rate must be in [0, 1], got {self.max_error_rate}"
            )
        if self.train_start > self.train_end:
            raise ConfigurationError("train_start must not be after train_end")
        if self.test_start > self.test_end:
            raise ConfigurationError("test_start must not be after test_end")
        if self.train_end >= self.test_start:
            raise ConfigurationError(
                "train range must strictly precede test range "
                f"(train_end {self.train_end} >= test_start {self.test_start})"
            )
        if self.calendar is None and not self.infer_calendar:
            raise ConfigurationError("no calendar file given and infer_calendar is false")

    def check_input_paths(self) -> None:
        """Fail early if a configured input file is missing."""
        checks = [
            ("corpus", self.corpus),
            ("bars", self.bars),
            ("indices", self.indices),
            ("industry", self.industry),
            ("lexicon", self.lexicon),
            ("risk_warnings", self.risk_warnings),
        ]
        if self.calendar is not None:
            checks.append(("calendar", self.calendar))
        if self.scores is not None and self.scorer == "external":
            checks.append(("scores", self.scores))
        for key, path in checks:
            if not Path(path).is_file():
                raise ConfigurationError(f"{key} file does not exist: {path}")


def _expect(kind, value, key: str):
    if isinstance(value, bool) and kind is not bool:
        raise ConfigurationError(f"config key {key!r} has wrong type: {value!r}")
    if kind is float:
        if not isinstance(value, (int, float)):
            raise ConfigurationError(f"config key {key!r} must be a number, got {value!r}")
        return float(value)
    if not isinstance(value, kind):
        raise ConfigurationError(f"config key {key!r} has wrong type: {value!r}")
    return value


def _parse_date(value, key: str) -> Date:
    text = _expect(str, value, key)
    try:
        return Date.fromisoformat(text)
    except ValueError:
        raise ConfigurationError(f"config key {key!r} is not an ISO date: {text!r}") from None


def load_config(path) -> RunConfig:
    """Parse, resolve, and validate a JSON run configuration."""
    config_path = Path(path)
    try:
        with open(config_path, "r", encoding="utf-8-sig") as stream:
            raw = json.load(stream)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {config_path}: {exc}") from exc
    except ValueError as exc:  # malformed JSON or bytes that are not UTF-8
        raise ConfigurationError(f"config file {config_path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("config file must contain a JSON object")

    unknown = sorted(set(raw) - _KNOWN_KEYS)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
    missing = [key for key in _REQUIRED_KEYS if raw.get(key) is None]
    if missing:
        raise ConfigurationError(f"missing config keys: {', '.join(missing)}")

    version = raw.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported config format_version {version!r} (expected {FORMAT_VERSION})"
        )

    base = config_path.parent

    def resolve(key: str, default=None) -> Path | None:
        value = raw.get(key)
        if value is None:
            return default
        return base / _expect(str, value, key)

    config = RunConfig(
        corpus=resolve("corpus"),
        bars=resolve("bars"),
        indices=resolve("indices"),
        industry=resolve("industry"),
        calendar=resolve("calendar"),
        scores=resolve("scores"),
        lexicon=resolve("lexicon"),
        risk_warnings=resolve("risk_warnings"),
        train_start=_parse_date(raw["train_start"], "train_start"),
        train_end=_parse_date(raw["train_end"], "train_end"),
        test_start=_parse_date(raw["test_start"], "test_start"),
        test_end=_parse_date(raw["test_end"], "test_end"),
        scorer=_expect(str, raw.get("scorer", "external"), "scorer"),
        stars=_expect(str, raw.get("stars", "table3"), "stars"),
        se=_expect(str, raw.get("se", "classical"), "se"),
        ttest=_expect(str, raw.get("ttest", "welch"), "ttest"),
        min_rows=_expect(int, raw.get("min_rows", 50), "min_rows"),
        vix_mode=_expect(str, raw.get("vix_mode", "diff"), "vix_mode"),
        temperature=_expect(float, raw.get("temperature", 1.0), "temperature"),
        tail_fraction=_expect(float, raw.get("tail_fraction", 0.25), "tail_fraction"),
        max_error_rate=_expect(float, raw.get("max_error_rate", 0.1), "max_error_rate"),
        infer_calendar=_expect(bool, raw.get("infer_calendar", False), "infer_calendar"),
        out=resolve("out", base / "out"),
        seed=_expect(int, raw.get("seed", 0), "seed"),
    )
    config.validate()
    return config
