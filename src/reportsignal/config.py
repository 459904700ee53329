"""Run configuration: a JSON file naming inputs, date ranges, and options.

All relative paths in the file resolve against the directory containing
the config file, so a dataset directory is fully relocatable. The lexicon
and risk-warning pattern files default to the copies packaged with this
distribution when the corresponding keys are null or absent.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from datetime import date as Date
from importlib import resources
from pathlib import Path

from .corpus import open_input, parse_date
from .econometrics import SE_TYPES, TTEST_MODES
from .errors import ConfigurationError, DataError
from .metrics import CHANGE_MODES
from .reporting import STAR_PRESETS

FORMAT_VERSION = 1

# The allowed values of each choice option, in the order ``validate`` checks them.
CHOICES = {
    "scorer": ("external", "lexicon"),
    "stars": tuple(STAR_PRESETS),
    "se": SE_TYPES,
    "ttest": TTEST_MODES,
    "vix_mode": CHANGE_MODES,
}


def packaged_data_path(name: str) -> Path:
    """Path of a data file shipped inside this package."""
    return Path(str(resources.files("reportsignal").joinpath("data", name)))


@dataclass(kw_only=True)
class RunConfig:
    """Validated inputs and options for one pipeline run.

    The fields are the config-file schema, in file order: each field is a
    key, a field without a default is a required key, and ``load_config``
    and ``synthkit.write_dataset`` read the keys and defaults from here.
    """

    corpus: Path
    bars: Path
    indices: Path
    industry: Path
    calendar: Path | None = None
    scores: Path | None = None
    lexicon: Path | None = None
    risk_warnings: Path | None = None
    train_start: Date
    train_end: Date
    test_start: Date
    test_end: Date
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
        for key, choices in CHOICES.items():
            value = getattr(self, key)
            if value not in choices:
                raise ConfigurationError(f"{key} must be one of {choices}, got {value!r}")
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
        """Fail early if a configured input file is missing or is no file."""
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
                problem = "path is not a file" if Path(path).exists() else "file does not exist"
                raise ConfigurationError(f"{key} {problem}: {path}")


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
        return parse_date(text)
    except ValueError:
        raise ConfigurationError(f"config key {key!r} is not an ISO date: {text!r}") from None


def load_config(path) -> RunConfig:
    """Parse, resolve, and validate a JSON run configuration."""
    config_path = Path(path)
    try:
        with open_input(config_path) as stream:
            raw = json.load(stream)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {config_path}: {exc}") from exc
    except DataError as exc:  # bytes that are not UTF-8
        raise ConfigurationError(f"config file {exc}") from None
    except ValueError as exc:
        raise ConfigurationError(f"config file {config_path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("config file must contain a JSON object")

    schema = fields(RunConfig)
    unknown = sorted(set(raw) - {"format_version", *(f.name for f in schema)})
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
    missing = [f.name for f in schema if f.default is MISSING and raw.get(f.name) is None]
    if missing:
        raise ConfigurationError(f"missing config keys: {', '.join(missing)}")

    version = raw.get("format_version", FORMAT_VERSION)
    if type(version) is not int or version != FORMAT_VERSION:  # True == 1, 1.0 == 1
        raise ConfigurationError(
            f"unsupported config format_version {version!r} (expected {FORMAT_VERSION})"
        )

    # Paths resolve against the config's directory, defaults included;
    # the annotations are strings under ``from __future__ import annotations``.
    base = config_path.parent
    values = {}
    for f in schema:
        value = raw.get(f.name)
        if f.type == "Date":
            values[f.name] = _parse_date(value, f.name)
        elif f.type.startswith("Path"):
            value = f.default if value is None else _expect(str, value, f.name)
            values[f.name] = None if value is None else base / value
        else:
            values[f.name] = _expect(type(f.default), raw.get(f.name, f.default), f.name)
    config = RunConfig(**values)
    config.validate()
    return config
