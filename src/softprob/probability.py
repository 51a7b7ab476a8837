"""Soft probabilities of events on continuous random variables.

Equality events have classical probability zero; here they carry their
density as a soft-zero coefficient instead. Every event is soft-number
algebra on two primitives, Ps(X = x) = f(x)*0~ and Ps(X < x) = F(x), the
latter with its interval form ContinuousDistribution.mass: Ps(X <= x) is
their sum, a closed interval the open one plus its endpoints, and the
two-variable form sums the same atoms of a joint model.
"""

from __future__ import annotations

import enum
from typing import Sequence

from .distributions import ContinuousDistribution, JointModel, _at
from .errors import DomainError, Record, distinct_points, finite_float, open_interval, sequence
from .softnum import SoftNumber, div


class Relation(enum.Enum):
    LT = "lt"
    LEQ = "leq"
    EQ = "eq"


class IntervalEvent(Record):
    """The event a < X < b (strict) or a <= X <= b (non-strict), with float ends."""

    def __init__(self, lo: float, hi: float, strict: bool = True):
        lo, hi = open_interval((lo, hi), "interval")
        if not isinstance(strict, bool):
            raise DomainError(f"strict must be a bool, got {strict!r}")
        self._store_fields(lo=lo, hi=hi, strict=strict)

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
    """Ps(X <= x) = Ps(X < x) + Ps(X = x) = f(x)*0~ + F(x)."""
    return ps_lt(d, x) + ps_eq(d, x)


def ps_neq(d: ContinuousDistribution, x: float) -> SoftNumber:
    """Ps(X != x) = 1 - Ps(X = x) = -f(x)*0~ + 1."""
    return 1.0 - ps_eq(d, x)


def ps_interval(d: ContinuousDistribution, iv: IntervalEvent) -> SoftNumber:
    """Ps(a < X < b) = d.mass(a, b); a closed interval adds the union of its two ends."""
    open_part = SoftNumber(0.0, d.mass(iv.lo, iv.hi))
    return open_part if iv.strict else open_part + ps_points_union(d, (iv.lo, iv.hi))


def ps_points_union(d: ContinuousDistribution, points: Sequence[float]) -> SoftNumber:
    """Ps of a union of equality events at distinct points: the sum of their ps_eq, in order."""
    return sum((ps_eq(d, p) for p in distinct_points(points, "point")), SoftNumber.zero())


def ps_points_intersection(d: ContinuousDistribution,
                           points: Sequence[float]) -> SoftNumber:
    """Ps of an intersection of equality events.

    Nonempty only when every listed point is the same value; duplicates are
    meaningful here, unlike in a union.
    """
    values = [finite_float(p, "point") for p in sequence(points, "points", "numbers")]
    if values and all(v == values[0] for v in values):
        return ps_eq(d, values[0])
    return SoftNumber.zero()


def ps_union_point_interval(d: ContinuousDistribution, x: float,
                            iv: IntervalEvent) -> SoftNumber:
    """Ps(X in iv), plus Ps(X = x) for x outside iv; x may not sit on an endpoint."""
    x = finite_float(x, "point")
    _reject_endpoint(x, iv)
    union = ps_interval(d, iv)
    return union if iv.contains(x) else union + ps_eq(d, x)


def ps_intersect_point_interval(d: ContinuousDistribution, x: float,
                                iv: IntervalEvent) -> SoftNumber:
    """Ps({X = x} and X in iv); x may not sit on an endpoint."""
    x = finite_float(x, "point")
    _reject_endpoint(x, iv)
    return ps_eq(d, x) if iv.contains(x) else SoftNumber.zero()


def ps_cond_point_given_interval(d: ContinuousDistribution, x: float,
                                 iv: IntervalEvent) -> SoftNumber:
    """Ps(X = x | X in iv), defined when the interval has positive mass."""
    x = finite_float(x, "point")
    _reject_endpoint(x, iv)
    mass = d.mass(iv.lo, iv.hi)
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
    given = ps_eq(d, y)
    if not given.soft > 0.0:
        raise DomainError(f"conditioning point {y!r} has zero density")
    return div(ps_eq(d, x) if x == y else SoftNumber.zero(), given).real


_COMPONENTS = {Relation.LT: (Relation.LT,),
               Relation.EQ: (Relation.EQ,),
               Relation.LEQ: (Relation.LT, Relation.EQ)}

# the four atomic events (X rx x, Y ry y) with rx, ry in {LT, EQ}
_ATOMS = {(Relation.LT, Relation.LT): lambda j, x, y: SoftNumber(0.0, j.joint_cdf(x, y)),
          (Relation.EQ, Relation.LT): lambda j, x, y: SoftNumber(j.cdf_partial_x(x, y), 0.0),
          (Relation.LT, Relation.EQ): lambda j, x, y: SoftNumber(j.cdf_partial_y(x, y), 0.0),
          (Relation.EQ, Relation.EQ): lambda j, x, y: SoftNumber(_at(j._checked_pdf, x, y), 0.0)}


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
    return sum((_ATOMS[cx, cy](j, x, y) for cx in _COMPONENTS[rx] for cy in _COMPONENTS[ry]),
               SoftNumber.zero())
