"""Arithmetic on the two-axis number system a*0~ + b.

A soft number pairs a real part ``b`` with a coefficient ``a`` on the soft
zero axis 0~. The axis element is nilpotent: 0~ * 0~ = 0, which fixes the
whole multiplication table. Soft numbers carry infinitesimal event mass
(densities) alongside ordinary probability mass, so they show up as the
return type of nearly every quantity in this package.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable

from .errors import DomainError, Record, finite_float, record_numbers


def _order_key(s: "SoftNumber") -> tuple[float, float]:
    """Soft numbers order by real part first; soft coefficients break ties."""
    return (s.real, s.soft)


def _coerced(method):
    """The binary method(self, other) with other a SoftNumber.

    An int or float other stands for the real number 0*0~ + other; any
    other type returns NotImplemented, so that Python tries the reflected
    operation.
    """
    @functools.wraps(method)
    def coerced(self, other):
        if not isinstance(other, SoftNumber):
            if not isinstance(other, (int, float)):
                return NotImplemented
            other = SoftNumber(0.0, other)
        return method(self, other)
    return coerced


def _comparison(op):
    return _coerced(lambda self, other: op(_order_key(self), _order_key(other)))


class SoftNumber(Record):
    """Value a*0~ + b with soft coefficient ``soft`` and real part ``real``."""

    def __init__(self, soft: float, real: float):
        self._store_fields(soft=finite_float(soft, "soft"), real=finite_float(real, "real"))

    @classmethod
    def zero(cls) -> "SoftNumber":
        """The absolute zero 0*0~ + 0."""
        return cls(0.0, 0.0)

    @classmethod
    def soft_zero(cls, coefficient: float = 1.0) -> "SoftNumber":
        """A pure soft zero a*0~."""
        return cls(coefficient, 0.0)

    @property
    def is_absolute_zero(self) -> bool:
        return self.soft == 0.0 and self.real == 0.0

    def conjugate(self) -> "SoftNumber":
        """Flip the sign of the soft coefficient."""
        return SoftNumber(-self.soft, self.real)

    @_coerced
    def __add__(self, other) -> "SoftNumber":
        return SoftNumber(self.soft + other.soft, self.real + other.real)

    __radd__ = __add__

    def __neg__(self) -> "SoftNumber":
        return SoftNumber(-self.soft, -self.real)

    @_coerced
    def __sub__(self, other) -> "SoftNumber":
        return SoftNumber(self.soft - other.soft, self.real - other.real)

    @_coerced
    def __rsub__(self, other) -> "SoftNumber":
        return other - self

    @_coerced
    def __mul__(self, other) -> "SoftNumber":
        # (a*0~ + b)(c*0~ + d) = (ad + bc)*0~ + bd, using 0~^2 = 0
        return SoftNumber(self.soft * other.real + self.real * other.soft,
                          self.real * other.real)

    __rmul__ = __mul__

    @_coerced
    def __truediv__(self, other) -> "SoftNumber":
        return div(self, other)

    @_coerced
    def __rtruediv__(self, other) -> "SoftNumber":
        return div(other, self)

    def __pow__(self, n: int) -> "SoftNumber":
        return pow_nat(self, n)

    __lt__ = _comparison(operator.lt)
    __le__ = _comparison(operator.le)
    __gt__ = _comparison(operator.gt)
    __ge__ = _comparison(operator.ge)

    def __str__(self) -> str:
        return render_soft(self)


def pow_nat(s: SoftNumber, n: int) -> SoftNumber:
    """Natural power: (a*0~ + b)^n = n*a*b^(n-1)*0~ + b^n, with s^0 = 1."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"exponent must be a natural number, got {n!r}")
    if n == 0:
        return SoftNumber(0.0, 1.0)
    if n == 1:
        return s
    try:
        return SoftNumber(n * s.soft * s.real ** (n - 1), s.real ** n)
    except OverflowError:
        raise DomainError(f"power {n} of the real part {s.real!r} overflows") from None


def lift(f: Callable[[float], float], df: Callable[[float], float],
         s: SoftNumber) -> SoftNumber:
    """Apply an analytic real function: f(a*0~ + x) = a*f'(x)*0~ + f(x).

    ``df`` must be the derivative of ``f``. Both are evaluated at the real
    part only; a non-finite or failing evaluation is a domain error.
    """
    try:
        y = f(s.real)
        dy = df(s.real)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise DomainError(
            f"function undefined at {s.real!r}: {exc}") from exc
    y = finite_float(y, f"function value at {s.real!r}")
    dy = finite_float(dy, f"derivative at {s.real!r}")
    return SoftNumber(s.soft * dy, y)


SIGN_RULE = "sign_rule"
CONJUGATE = "conjugate"


def soft_abs(s: SoftNumber, mode: str) -> SoftNumber:
    """Absolute value, in one of two inequivalent senses.

    ``sign_rule`` multiplies both components by the sign of the real part,
    so |a*0~ + b| = (a*sign(b))*0~ + |b|; it is undefined when b = 0.
    ``conjugate`` takes sqrt(s * conj(s)) and always lands on the real
    axis: |a*0~ + b| = |b|, discarding the soft coefficient.
    """
    if mode == SIGN_RULE:
        if s.real == 0.0:
            raise DomainError("sign_rule absolute value is undefined at real part 0")
        sign = 1.0 if s.real > 0 else -1.0
        return SoftNumber(s.soft * sign, abs(s.real))
    if mode == CONJUGATE:
        return SoftNumber(0.0, abs(s.real))
    raise DomainError(f"unknown absolute-value mode {mode!r}")


def div(num: SoftNumber, den: SoftNumber) -> SoftNumber:
    """Quotient num/den.

    Division by absolute zero is an error. A pure soft-zero denominator
    a*0~ divides only pure soft zeros, giving the real ratio of the
    coefficients. Otherwise the denominator c*0~ + d has d != 0 and
    rationalizing with its conjugate gives
    ((a*d - b*c)/d^2)*0~ + b/d. The soft part divides by d twice, since
    d*d leaves the float range for |d| below about 1.5e-154 or above
    about 1.3e154.
    """
    if den.is_absolute_zero:
        raise DomainError("division by absolute zero")
    if den.real == 0.0:
        # pure soft zero denominator
        if num.real != 0.0:
            raise DomainError(
                "only a pure soft zero can be divided by a pure soft zero")
        return SoftNumber(0.0, num.soft / den.soft)
    d = den.real
    return SoftNumber((num.soft * d - num.real * den.soft) / d / d, num.real / d)


def cmp(s: SoftNumber, t: SoftNumber) -> int:
    """Total order: real parts first, soft coefficients break ties.

    Returns -1, 0, or 1.
    """
    a, b = _order_key(s), _order_key(t)
    return (a > b) - (a < b)


class SymmetricPair(Record):
    """Alternative (height, width) coordinates for a soft number.

    ``height`` is the component sum soft + real and ``width`` is the share
    of the height sitting on the real axis. Values produced by ``to_sp``
    may fall outside the unit width band; ``from_sp`` only accepts widths
    in [0, 1].
    """

    def __init__(self, height: float, width: float):
        self._store_fields(height=height, width=width)


def to_sp(s: SoftNumber) -> SymmetricPair:
    """Convert to (height, width) coordinates; component sum 0 is an error."""
    h = finite_float(s.soft + s.real, "height")
    if h == 0.0:
        raise DomainError("height is zero, width coordinate undefined")
    return SymmetricPair(h, s.real / h)


def from_sp(p: SymmetricPair) -> SoftNumber:
    """Convert back from (height, width); width must lie in [0, 1]."""
    a, b = finite_float(p.height, "height"), finite_float(p.width, "width")
    if not 0.0 <= b <= 1.0:
        raise DomainError(f"width must lie in [0, 1], got {b!r}")
    return SoftNumber((1.0 - b) * a, b * a)


class ExtendedSoftNumber(Record):
    """Three-axis value h1*0log0~ + h2*0~ + h3 used by entropy quantities.

    The extra axis 0log0~ carries coefficients of the indeterminate form
    0~*log(0~). Only linear combinations are defined on it; there is no
    multiplication involving the 0log0~ axis.
    """

    def __init__(self, zlogz: float, soft: float, real: float):
        self._store_fields(zlogz=finite_float(zlogz, "zlogz"), soft=finite_float(soft, "soft"),
                           real=finite_float(real, "real"))

    def __add__(self, other) -> "ExtendedSoftNumber":
        if not isinstance(other, ExtendedSoftNumber):
            return NotImplemented
        return ExtendedSoftNumber(self.zlogz + other.zlogz,
                                  self.soft + other.soft,
                                  self.real + other.real)

    def __sub__(self, other) -> "ExtendedSoftNumber":
        if not isinstance(other, ExtendedSoftNumber):
            return NotImplemented
        return ExtendedSoftNumber(self.zlogz - other.zlogz,
                                  self.soft - other.soft,
                                  self.real - other.real)

    def __neg__(self) -> "ExtendedSoftNumber":
        return ExtendedSoftNumber(-self.zlogz, -self.soft, -self.real)

    def without_zlogz(self) -> SoftNumber:
        """Project onto the two ordinary axes; zlogz must already be 0."""
        if self.zlogz != 0.0:
            raise DomainError("value still carries a 0log0~ component")
        return SoftNumber(self.soft, self.real)

    def __str__(self) -> str:
        return render_extended(self)


def render_soft(s: SoftNumber) -> str:
    """Human form "a*0~ + b" with shortest round-trip float digits."""
    return f"{s.soft!r}*0~ + {s.real!r}"


def render_extended(e: ExtendedSoftNumber) -> str:
    """Human form "h1*0log0~ + h2*0~ + h3"."""
    return f"{e.zlogz!r}*0log0~ + {e.soft!r}*0~ + {e.real!r}"


def soft_to_dict(s: SoftNumber) -> dict:
    return {"soft": s.soft, "real": s.real}


def soft_from_dict(obj: dict) -> SoftNumber:
    return SoftNumber(*record_numbers(obj, ("soft", "real"), "soft number record"))


def ext_to_dict(e: ExtendedSoftNumber) -> dict:
    return {"zlogz": e.zlogz, "soft": e.soft, "real": e.real}


def ext_from_dict(obj: dict) -> ExtendedSoftNumber:
    return ExtendedSoftNumber(*record_numbers(obj, ("zlogz", "soft", "real"),
                                              "extended soft number record"))
