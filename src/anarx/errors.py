"""Typed errors raised by the forecasting engine.

Every error that library code can raise on bad data or degenerate numerics
derives from :class:`AnarxError`, so callers (and the CLI) can map failure
categories without string matching.
"""

import math
import numbers
import reprlib
import sys
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


def not_text(where: str, exc: UnicodeDecodeError, lines_before: int = 0) -> ParseError:
    """The error for input whose bytes do not decode: ``where`` names it
    (a file or stdin), and the line of the first bad byte counts the
    ``lines_before`` lines read before the bytes ``exc`` decoded."""
    line = lines_before + len((exc.object[:exc.start] + b"x").splitlines())
    return ParseError(f"{where} line {line}: byte {exc.object[exc.start]:#04x} "
                      f"is not {exc.encoding} text")


def is_integer(value) -> bool:
    """Whether ``value`` is an integer an index can hold: an int or an
    integral numpy scalar, not a bool, from ``-sys.maxsize - 1`` to
    ``sys.maxsize``."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and -sys.maxsize - 1 <= value <= sys.maxsize)


def _all_finite(values) -> bool:
    """Whether every number of ``values`` is finite: not NaN, not an
    infinity and not an int too large for any float."""
    try:
        return all(map(math.isfinite, values))
    except OverflowError:  # math.isfinite of an int too large for any float
        return False


def is_finite_real(value) -> bool:
    """Whether ``value`` is a finite real number: an int, a float or a
    real numpy scalar, not a bool, that a finite float can hold."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and _all_finite((value,))


# a declared field type: the test its values pass, their cast and its name
_FIELD_KINDS = {
    "int": (is_integer, int, f"an integer from {-sys.maxsize - 1} to {sys.maxsize}"),
    "float": (is_finite_real, float, "a finite number"),
    "bool": (lambda v: type(v) is bool, bool, "a bool"),
}


def check_fields(obj, invalid) -> None:
    """Cast each field of the dataclass ``obj`` declared ``int``,
    ``float`` or ``bool`` to that type, or call ``invalid(name,
    message)`` when its value is none of an integer an index can hold, a
    finite real number and a bool: an integral numpy scalar is an
    integer, a bool is neither an integer nor a number, and NaN,
    Infinity or an int too large for a float, which no JSON report can
    hold as a float, is not a finite number."""
    for f in fields(obj):
        if f.type in _FIELD_KINDS:
            test, cast, kind = _FIELD_KINDS[f.type]
            value = getattr(obj, f.name)
            if not test(value):
                invalid(f.name, f"must be {kind}, got {reprlib.repr(value)}")
            setattr(obj, f.name, cast(value))


# What a saved state may hold. Every number read back from one passes
# one of the three readers below, which raise CorruptSnapshot naming the
# field for anything no forecaster saves; the modules that read a state
# keep only their rules about the model (alpha in (0, 1], r >= 0, ...).
# read_float checks its one number directly, as a load reads about ten:
# a JSON number is finite when it lies within +-_LARGEST, the largest
# finite float, which NaN, an infinity and an int too large for a float
# do not.
_LARGEST = sys.float_info.max


def read_float(value, what: str) -> float:
    """A number read from a saved state, as a float: a JSON int or float
    within the range of the finite floats. Raises CorruptSnapshot for
    anything else: a bool, a string, a list, NaN, an infinity or a
    larger int."""
    if type(value) in (int, float) and -_LARGEST <= value <= _LARGEST:
        return float(value)
    raise CorruptSnapshot(f"{what} must be a finite number, got {reprlib.repr(value)}")


def read_floats(values, what: str) -> list:
    """A list of numbers read from a saved state, as floats. Raises
    CorruptSnapshot unless ``values`` is a list of what :func:`read_float`
    accepts."""
    if (type(values) is list and {int, float}.issuperset(map(type, values))
            and _all_finite(values)):
        return list(map(float, values))
    raise CorruptSnapshot(f"{what} must be finite numbers in a list")


def read_count(value, what: str, least: int) -> int:
    """A count read from a saved state: a JSON int, not a bool, from
    ``least`` to ``sys.maxsize``. Raises CorruptSnapshot for anything else."""
    if type(value) is int and least <= value <= sys.maxsize:
        return value
    raise CorruptSnapshot(f"{what} {reprlib.repr(value)} is not an integer in [{least}, {sys.maxsize}]")
