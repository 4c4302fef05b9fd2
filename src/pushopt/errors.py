"""Exception types shared across the package.

Bad user input (configs, shapes, CLI arguments, serialized payloads) derives
from ValidationError; failures of numeric procedures derive from
NumericError; every error class is one of the two, so the CLI's map of
ValidationError to exit code 1 and NumericError to exit code 2 is total.
``payload_count`` is the count check the payload loaders share.
"""

from numbers import Integral


class PushOptError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(PushOptError):
    """Invalid configuration, arguments, or serialized payloads."""


class DimensionMismatchError(ValidationError):
    """Operands whose shapes cannot be combined."""


class ConfigError(ValidationError):
    """Malformed or contradictory experiment configuration."""


class InvalidRateError(ValidationError):
    """A rate or stepsize parameter outside its admissible range."""


class NumericError(PushOptError):
    """A numeric procedure failed to produce a usable result."""


class NoConvergenceError(NumericError):
    """An iterative solver exhausted its iteration budget."""


class FailedConnectivityError(NumericError):
    """Random digraph generation never produced a strongly connected graph."""


class FailedAggregatePDError(NumericError):
    """Cost generation never produced a positive definite aggregate Hessian."""


class SingularSystemError(NumericError):
    """A dense linear solve hit a (numerically) singular system."""


class NotContractiveError(NumericError):
    """A map expected to contract measured a Lipschitz constant not certifiably below 1."""


class NonpositiveYError(NumericError):
    """Push-sum weights lost positivity (impossible for a valid mixing matrix)."""


class DegenerateMixingError(NumericError):
    """A quantity is undefined for this mixing matrix (e.g. fully mixed in one step)."""


class AllDivergedError(NumericError):
    """Every stepsize candidate in a tuning grid failed to make progress."""


class ScenarioAssertionError(NumericError):
    """An inline scenario assertion failed; artifacts were still written."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def payload_count(value, name):
    """A count read from a serialized payload: a positive integer, not a float or bool."""
    if not isinstance(value, Integral) or isinstance(value, bool) or value < 1:
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")
    return int(value)
