"""Exception types and the record base shared across the package, and the one check of
each kind of caller input.

Every number a caller passes in (a point, an interval end, a model
parameter, a tolerance) goes through finite_float, so bad input is a
DomainError and never a bare TypeError, ValueError or OverflowError: an
integer too large for a float, a value float() cannot convert, and an
infinity or NaN where a finite number is needed all raise it. Every open
interval goes through open_interval and every set of distinct points
through distinct_points; a container of points or intervals must pass
sequence. Other range checks stay with each constructor.
A number read from a JSON record must also pass is_number, so that a
boolean or a string never stands in for one (record_numbers), and an
integer must pass is_count.

Every immutable value class of the package derives from Record, which
gives it the value semantics of a frozen record without generating code
at import.
"""

import math
import numbers
import sys
from collections.abc import Iterable


class SoftProbError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SoftProbError, ValueError):
    """An input lies outside the domain of the requested operation."""


def finite_float(value, what: str, *, allow_inf: bool = False) -> float:
    """float(value), which must be finite; anything else is a DomainError naming what.

    allow_inf skips the finiteness test, for a caller whose own range
    check (such as lo < hi) rejects NaN.
    """
    try:
        x = float(value)
    except OverflowError:
        raise DomainError("number too large to represent as a float") from None
    except (TypeError, ValueError):
        raise DomainError(f"{what} must be a number, got {value!r}") from None
    if not (allow_inf or math.isfinite(x)):
        raise DomainError(f"{what} must be finite, got {x!r}")
    return x


def open_interval(pair, what: str) -> tuple[float, float]:
    """The ends of pair as finite floats lo < hi; anything else is a DomainError naming what."""
    try:
        lo, hi = pair
    except (TypeError, ValueError):
        raise DomainError(f"{what} must be a (lo, hi) pair, got {pair!r}") from None
    end = what + " end"
    lo, hi = finite_float(lo, end), finite_float(hi, end)
    if not lo < hi:
        raise DomainError(f"{what} needs lo < hi, got ({lo!r}, {hi!r})")
    return lo, hi


def sequence(values, what: str, of: str):
    """values, which must be an iterable other than a string; else a DomainError.

    what names the container and of its items, as in "points must be a
    sequence of numbers".
    """
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise DomainError(f"{what} must be a sequence of {of}, got {values!r}")
    return values


def distinct_points(points, what: str) -> list[float]:
    """The points as ascending finite floats; a repeat or a non-sequence is a DomainError."""
    values = sorted(finite_float(p, what) for p in sequence(points, what + "s", "numbers"))
    for prev, nxt in zip(values, values[1:]):
        if prev == nxt:
            raise DomainError(f"duplicate {what} {prev!r}")
    return values


def is_number(value) -> bool:
    """True for an int or float that is not a bool: a JSON number, as json.loads returns it."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_count(value) -> bool:
    """True for a non-negative integer that is not a bool: a JSON count, or a numpy integer."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 0


def record_numbers(obj: dict, names: tuple[str, ...], what: str) -> list[float]:
    """The named fields of the JSON record obj, which what names, as floats.

    A record that is not an object, a missing field, or a field that is not
    a JSON number a float holds is a DomainError naming the field.
    """
    if not isinstance(obj, dict):
        raise DomainError(f"{what} must be an object, got {obj!r}")
    for name in names:
        if name not in obj:
            raise DomainError(f"{what} is missing field {name!r}")
        value = obj[name]
        if not is_number(value) or isinstance(value, int) and abs(value) > sys.float_info.max:
            raise DomainError(f"{what} field {name!r} is not a number: {value!r}")
    return [float(obj[name]) for name in names]


class Record:
    """An immutable value whose fields are the entries of its __dict__.

    A subclass's __init__ checks its arguments and then stores every field
    with one call of _store_fields; nothing else goes in its __dict__.
    Records of the same class are equal when their fields are, hash by
    their fields, and repr as Name(field=value, ...). Assigning or deleting
    an attribute raises AttributeError.
    """

    def _store_fields(self, **fields):
        """Store the fields in keyword order, one object.__setattr__ each: unlike
        __dict__.update, that keeps the key table that records of a class share."""
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"


class ConvergenceError(SoftProbError, RuntimeError):
    """Adaptive refinement hit its subdivision limit before converging.

    The best estimate assembled so far is kept on the exception so callers
    can inspect how far off the run ended, and the run's
    quadrature.QuadStats record is kept as stats.
    """

    def __init__(self, message: str, best_estimate: float, stats=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.stats = stats


class DegenerateModelError(DomainError):
    """A model fit failed because the data carry no usable variation."""
