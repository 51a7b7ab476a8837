"""Soft probabilities of events on continuous random variables.

Equality events have classical probability zero; here they carry their
density as a soft-zero coefficient instead, so Ps(X = x) = f(x)*0~ and
Ps(X <= x) = f(x)*0~ + F(x). Unions, intersections, and conditionals
combine point and interval events under the same rules, and the two-variable
form covers joint models.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence, Union

from .distributions import ContinuousDistribution, JointModel
from .errors import DomainError, finite_float
from .softnum import SoftNumber, div


class Relation(enum.Enum):
    LT = "lt"
    LEQ = "leq"
    EQ = "eq"


@dataclass(frozen=True)
class PointSetEvent:
    """A finite union of equality events {X = x_i} with distinct points."""

    points: tuple[float, ...]

    def __init__(self, points: Sequence[float]):
        values = tuple(sorted(finite_float(p, "point") for p in points))
        for prev, nxt in zip(values, values[1:]):
            if prev == nxt:
                raise DomainError(f"duplicate point {prev!r} in point set")
        object.__setattr__(self, "points", values)


@dataclass(frozen=True)
class IntervalEvent:
    """The event a < X < b (strict) or a <= X <= b (non-strict), with float ends."""

    lo: float
    hi: float
    strict: bool = True

    def __post_init__(self):
        object.__setattr__(self, "lo", finite_float(self.lo, "interval end"))
        object.__setattr__(self, "hi", finite_float(self.hi, "interval end"))
        if not self.lo < self.hi:
            raise DomainError(f"need lo < hi, got ({self.lo!r}, {self.hi!r})")

    def contains(self, x: float) -> bool:
        if self.strict:
            return self.lo < x < self.hi
        return self.lo <= x <= self.hi


def _reject_endpoint(x: float, iv: IntervalEvent) -> None:
    if x == iv.lo or x == iv.hi:
        raise DomainError(
            f"point {x!r} collides with an interval endpoint of ({iv.lo!r}, {iv.hi!r})")


def ps_eq(d: ContinuousDistribution, x: float) -> SoftNumber:
    """Ps(X = x) = f(x)*0~."""
    return SoftNumber(d.pdf(finite_float(x, "point")), 0.0)


def ps_lt(d: ContinuousDistribution, x: float) -> SoftNumber:
    """Ps(X < x) = F(x), purely real."""
    return SoftNumber(0.0, d.cdf(finite_float(x, "point")))


def ps_leq(d: ContinuousDistribution, x: float) -> SoftNumber:
    """Ps(X <= x) = f(x)*0~ + F(x)."""
    x = finite_float(x, "point")
    return SoftNumber(d.pdf(x), d.cdf(x))


def ps_neq(d: ContinuousDistribution, x: float) -> SoftNumber:
    """Ps(X != x) = -f(x)*0~ + 1, the complement of ps_eq."""
    return SoftNumber(-d.pdf(finite_float(x, "point")), 1.0)


def ps_interval(d: ContinuousDistribution, iv: IntervalEvent) -> SoftNumber:
    """Ps of a bare interval event.

    Strict intervals carry only the classical mass F(b) - F(a); non-strict
    ones add the endpoint densities on the soft axis.
    """
    real = d.cdf(iv.hi) - d.cdf(iv.lo)
    if iv.strict:
        return SoftNumber(0.0, real)
    return SoftNumber(d.pdf(iv.lo) + d.pdf(iv.hi), real)


def ps_points_union(d: ContinuousDistribution,
                    e: Union[PointSetEvent, Sequence[float]]) -> SoftNumber:
    """Ps of a union of distinct equality events: (sum of densities)*0~."""
    if not isinstance(e, PointSetEvent):
        e = PointSetEvent(e)
    acc = 0.0
    for p in e.points:
        acc += d.pdf(p)
    return SoftNumber(acc, 0.0)


def ps_points_intersection(d: ContinuousDistribution,
                           points: Sequence[float]) -> SoftNumber:
    """Ps of an intersection of equality events.

    Nonempty only when every listed point is the same value; duplicates are
    meaningful here, unlike in a union.
    """
    values = [finite_float(p, "point") for p in points]
    if values and all(v == values[0] for v in values):
        return SoftNumber(d.pdf(values[0]), 0.0)
    return SoftNumber.zero()


def ps_union_point_interval(d: ContinuousDistribution, x: float,
                            iv: IntervalEvent) -> SoftNumber:
    """Ps({X = x} or X in iv); x may not sit on an endpoint."""
    x = finite_float(x, "point")
    _reject_endpoint(x, iv)
    real = d.cdf(iv.hi) - d.cdf(iv.lo)
    outside = 0.0 if iv.contains(x) else d.pdf(x)
    if iv.strict:
        return SoftNumber(outside, real)
    return SoftNumber(outside + (d.pdf(iv.lo) + d.pdf(iv.hi)), real)


def ps_intersect_point_interval(d: ContinuousDistribution, x: float,
                                iv: IntervalEvent) -> SoftNumber:
    """Ps({X = x} and X in iv); x may not sit on an endpoint."""
    x = finite_float(x, "point")
    _reject_endpoint(x, iv)
    return SoftNumber(d.pdf(x) if iv.contains(x) else 0.0, 0.0)


def ps_cond_point_given_interval(d: ContinuousDistribution, x: float,
                                 iv: IntervalEvent) -> SoftNumber:
    """Ps(X = x | X in iv), defined when the interval has positive mass."""
    x = finite_float(x, "point")
    _reject_endpoint(x, iv)
    mass = d.cdf(iv.hi) - d.cdf(iv.lo)
    if not mass > 0.0:
        raise DomainError(f"conditioning interval has zero probability: {iv!r}")
    if not iv.contains(x):
        return SoftNumber.zero()
    return SoftNumber(d.pdf(x) / mass, 0.0)


def ps_cond_point_given_point(d: ContinuousDistribution, x: float,
                              y: float) -> float:
    """Ps(X = x | X = y): the ratio of two soft zeros, a plain real."""
    x = finite_float(x, "point")
    y = finite_float(y, "point")
    fy = d.pdf(y)
    if not fy > 0.0:
        raise DomainError(f"conditioning point {y!r} has zero density")
    numerator = SoftNumber(d.pdf(x) if x == y else 0.0, 0.0)
    return div(numerator, SoftNumber(fy, 0.0)).real


_COMPONENTS = {Relation.LT: (Relation.LT,),
               Relation.EQ: (Relation.EQ,),
               Relation.LEQ: (Relation.LT, Relation.EQ)}


def ps2(j: JointModel, x: float, y: float, rx: Relation, ry: Relation) -> SoftNumber:
    """Two-variable soft probability Ps(X rx x, Y ry y).

    Built by splitting each LEQ into LT + EQ and summing the four atomic
    pieces: (LT,LT) is the joint cdf, (EQ,LT) and (LT,EQ) are its partial
    derivatives on the soft axis, and (EQ,EQ) is the joint density.
    """
    x = finite_float(x, "point")
    y = finite_float(y, "point")
    if not isinstance(rx, Relation) or not isinstance(ry, Relation):
        raise DomainError(f"relations must be Relation members, got ({rx!r}, {ry!r})")
    soft = 0.0
    real = 0.0
    for cx in _COMPONENTS[rx]:
        for cy in _COMPONENTS[ry]:
            if cx is Relation.LT and cy is Relation.LT:
                real += j.joint_cdf(x, y)
            elif cx is Relation.EQ and cy is Relation.LT:
                soft += j.cdf_partial_x(x, y)
            elif cx is Relation.LT and cy is Relation.EQ:
                soft += j.cdf_partial_y(x, y)
            else:
                soft += j.joint_pdf(x, y)
    return SoftNumber(soft, real)
