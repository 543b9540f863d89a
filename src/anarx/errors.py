"""Typed errors raised by the forecasting engine.

Every error that library code can raise on bad data or degenerate numerics
derives from :class:`AnarxError`, so callers (and the CLI) can map failure
categories without string matching.
"""


class AnarxError(Exception):
    """Base class for all engine errors."""


class InvalidRange(AnarxError):
    """Input range is empty or inverted (lo >= hi)."""


class InvalidOrder(AnarxError):
    """Spline order is out of range (q < 1 or q > h)."""


class DegenerateActivation(AnarxError):
    """All rule activations underflowed to zero; input is far outside the grid."""


class DimensionMismatch(AnarxError):
    """Regressor length does not match the learner state."""


class NumericalDivergence(AnarxError):
    """A prediction stopped being finite (e.g. covariance wind-up)."""


class DegenerateStep(AnarxError):
    """Optimal-step denominator vanished; combination weights left unchanged."""


class ParseError(AnarxError):
    """CSV content could not be parsed; message carries the offending row."""


class ConfigError(ParseError, ValueError):
    """A run configuration is invalid; the message names the key.

    Also a ValueError, the type invalid settings raised before it existed.
    """


class EmptySeries(AnarxError):
    """Series has fewer than two finite values."""


class DegenerateRange(AnarxError):
    """Normalization segment is constant (max == min)."""


class VersionMismatch(AnarxError):
    """Snapshot was written by an incompatible schema version."""


class CorruptSnapshot(AnarxError):
    """Snapshot file is truncated, malformed, or fails its checksum."""


def read_float(value, what: str) -> float:
    """A number read from a saved state, as a float. Raises CorruptSnapshot
    for anything no state saves as a number: a bool, a string, a list."""
    if type(value) not in (int, float):
        raise CorruptSnapshot(f"{what} must be a number, got {value!r}")
    return float(value)


def read_floats(values, what: str) -> list:
    """A list of numbers read from a saved state, as floats. Raises
    CorruptSnapshot unless ``values`` is a list of JSON numbers."""
    if type(values) is not list or not {int, float}.issuperset(map(type, values)):
        raise CorruptSnapshot(f"{what} must be a list of numbers")
    return list(map(float, values))
