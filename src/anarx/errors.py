"""Typed errors raised by the forecasting engine.

Every error that library code can raise on bad data or degenerate numerics
derives from :class:`AnarxError`, so callers (and the CLI) can map failure
categories without string matching.
"""

import math
import numbers
from dataclasses import fields


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


def is_integer(value) -> bool:
    """Whether ``value`` is an integer: an int or an integral numpy
    scalar, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """Whether ``value`` is a finite real number: an int, a float or a
    real numpy scalar, and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


# a declared field type: the test its values pass, their cast and its name
_FIELD_KINDS = {
    "int": (is_integer, int, "an integer"),
    "float": (is_finite_real, float, "a finite number"),
    "bool": (lambda v: type(v) is bool, bool, "a bool"),
}


def check_fields(obj, invalid) -> None:
    """Cast each field of the dataclass ``obj`` declared ``int``,
    ``float`` or ``bool`` to that type, or call ``invalid(name,
    message)`` when its value is none of an integer, a finite real
    number and a bool: an integral numpy scalar is an integer, a bool is
    neither an integer nor a number, and NaN or Infinity, which no JSON
    report can hold, is not a finite number."""
    for f in fields(obj):
        if f.type in _FIELD_KINDS:
            test, cast, kind = _FIELD_KINDS[f.type]
            value = getattr(obj, f.name)
            if not test(value):
                invalid(f.name, f"must be {kind}, got {value!r}")
            setattr(obj, f.name, cast(value))


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
