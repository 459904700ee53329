"""Exception hierarchy for the pipeline.

Each class carries the CLI exit code of its branch: ConfigurationError
(and any other PipelineError) -> 1, DataError -> 2, NumericalError -> 3.
Each condition is checked once, where it enters: in ``RunConfig.validate``,
a file reader or a verb's empty-result check.
"""


class PipelineError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1


class ConfigurationError(PipelineError):
    """Bad configuration file, bad CLI arguments, or unusable run setup."""


class DataError(PipelineError):
    """Input data violates a documented contract."""

    exit_code = 2


class SchemaError(DataError):
    """A file header or field layout does not match the documented schema."""


class DomainError(DataError):
    """A value lies outside the mathematical domain of an operation."""


class ArgumentError(DataError):
    """An operation was invoked with unusable inputs (a fit with n <= k)."""


class NumericalError(PipelineError):
    """A numerical procedure could not produce a trustworthy result."""

    exit_code = 3


class SingularityError(NumericalError):
    """The regression design matrix is rank deficient."""
