"""Exception types shared across the package.

The CLI maps these onto process exit codes: usage problems exit 1,
data/constraint problems exit 2, numeric failures exit 3.
"""


class SeqBundleError(Exception):
    """Base class for all package errors."""


class ConstraintViolation(SeqBundleError):
    """A domain rule was violated (invalid session, state, or config);
    ``keys`` names the config fields that break it, if any."""

    def __init__(self, *args, keys: tuple[str, ...] = ()) -> None:
        super().__init__(*args)
        self.keys = keys


class SchemaError(SeqBundleError):
    """Malformed input data (bad JSON/CSV row, unknown field, bad reference)."""


class NumericError(SeqBundleError):
    """Numeric failure: NaN/Inf values, diverged training, failed check."""


class MetricUndefinedError(SeqBundleError):
    """A metric has no defined value for the given inputs (e.g. zero variance)."""
