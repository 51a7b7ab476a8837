"""Soft expectation and soft variance over mixed point/interval sets.

Conditioning a continuous variable on a MixedSet keeps two kinds of mass:
density at isolated points (soft axis) and classical probability on open
intervals (real axis). The expectation therefore returns nu*0~ + kappa,
and the variance propagates the soft expectation through the square using
the nilpotent rule, which is where the gamma components below come from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .distributions import ContinuousDistribution
from .errors import DomainError
from .quadrature import DEFAULT_1D, QuadratureConfig, integrate_1d
from .softnum import SoftNumber


@dataclass(frozen=True)
class MixedSet:
    """Disjoint union of isolated points and open intervals.

    Canonical form: points ascending, intervals sorted by left endpoint.
    Construction validates disjointness: intervals may not overlap each
    other, and no point may lie strictly inside an interval. A point at an
    open endpoint is allowed; the interval does not contain it.
    """

    points: tuple[float, ...]
    intervals: tuple[tuple[float, float], ...]

    def __init__(self, points: Sequence[float] = (),
                 intervals: Sequence[Sequence[float]] = ()):
        pts = tuple(sorted(_as_float(p) for p in points))
        for p in pts:
            if not math.isfinite(p):
                raise DomainError(f"points must be finite, got {p!r}")
        for prev, nxt in zip(pts, pts[1:]):
            if prev == nxt:
                raise DomainError(f"duplicate point {prev!r}")
        ivs = []
        for iv in intervals:
            lo, hi = (_as_float(v) for v in iv)
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise DomainError(f"interval needs finite lo < hi, got ({lo!r}, {hi!r})")
            ivs.append((lo, hi))
        ivs.sort()
        for (lo1, hi1), (lo2, hi2) in zip(ivs, ivs[1:]):
            if lo2 < hi1:
                raise DomainError(
                    f"intervals ({lo1!r}, {hi1!r}) and ({lo2!r}, {hi2!r}) overlap")
        k = 0  # first interval whose open right end is not left of the point
        for p in pts:
            while k < len(ivs) and ivs[k][1] <= p:
                k += 1
            if k < len(ivs) and ivs[k][0] < p:
                lo, hi = ivs[k]
                raise DomainError(f"point {p!r} lies inside interval ({lo!r}, {hi!r})")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "intervals", tuple(ivs))

    @classmethod
    def with_closed_intervals(cls, points: Sequence[float] = (),
                              closed_intervals: Sequence[Sequence[float]] = ()) -> "MixedSet":
        """Normalize closed intervals: interiors stay intervals, endpoints become points."""
        pts = set(float(p) for p in points)
        ivs = []
        for iv in closed_intervals:
            lo, hi = (float(v) for v in iv)
            ivs.append((lo, hi))
            pts.add(lo)
            pts.add(hi)
        return cls(sorted(pts), ivs)

    @property
    def is_empty(self) -> bool:
        return not self.points and not self.intervals

    def to_dict(self) -> dict:
        return {"points": list(self.points),
                "intervals": [list(iv) for iv in self.intervals]}

    @classmethod
    def from_dict(cls, obj: dict) -> "MixedSet":
        if not isinstance(obj, dict):
            raise DomainError(f"mixed-set record must be an object, got {obj!r}")
        points = obj.get("points", [])
        intervals = obj.get("intervals", [])
        if not (isinstance(points, list) and all(map(_is_number, points))):
            raise DomainError(f"mixed-set points must be a list of numbers, got {points!r}")
        if not (isinstance(intervals, list) and all(
                isinstance(iv, list) and len(iv) == 2 and all(map(_is_number, iv))
                for iv in intervals)):
            raise DomainError(
                f"mixed-set intervals must be a list of [lo, hi] pairs, got {intervals!r}")
        return cls(points, intervals)


def _as_float(v) -> float:
    try:
        return float(v)
    except OverflowError:
        raise DomainError("number too large to represent as a float") from None


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


@dataclass(frozen=True)
class SoftMoments:
    """Intermediate components of the soft variance.

    nu and kappa are the two components of the soft expectation. gamma1_sq
    collects squared point deviations, gamma2 is the signed first-order
    interval deviation sum (equal to -kappa*(1 - coverage)), lambda_sq is
    the second-order interval term, and gamma = gamma1_sq + 2*nu*gamma2 is
    the soft coefficient of the variance.
    """

    nu: float
    kappa: float
    gamma1_sq: float
    gamma2: float
    lambda_sq: float
    gamma: float


def soft_expectation_of(d: ContinuousDistribution, ms: MixedSet,
                        g: Callable[[float], float],
                        quadrature: Optional[QuadratureConfig] = None) -> SoftNumber:
    """Es[g(X) | X in ms] = (sum g(x_i)f(x_i))*0~ + sum of interval integrals of g*f."""
    cfg = quadrature if quadrature is not None else DEFAULT_1D
    nu = 0.0
    for p in ms.points:
        gp = float(g(p))
        if not math.isfinite(gp):
            raise DomainError(f"g returned non-finite value {gp!r} at {p!r}")
        nu += gp * d.pdf(p)
    kappa = 0.0
    for lo, hi in ms.intervals:
        kappa += integrate_1d(lambda x: g(x) * d.pdf(x), lo, hi, cfg)
    return SoftNumber(nu, kappa)


def soft_expectation(d: ContinuousDistribution, ms: MixedSet,
                     quadrature: Optional[QuadratureConfig] = None) -> SoftNumber:
    """Es[X | X in ms]."""
    return soft_expectation_of(d, ms, lambda x: x, quadrature)


def soft_variance(d: ContinuousDistribution, ms: MixedSet,
                  quadrature: Optional[QuadratureConfig] = None
                  ) -> tuple[SoftNumber, SoftMoments]:
    """Vs[X | X in ms] together with its component record.

    The soft coefficient gamma = gamma1_sq + 2*nu*gamma2 may be negative;
    the real part lambda_sq never is.
    """
    cfg = quadrature if quadrature is not None else DEFAULT_1D
    expectation = soft_expectation(d, ms, cfg)
    nu, kappa = expectation.soft, expectation.real
    gamma1_sq = 0.0
    for p in ms.points:
        delta = kappa - p
        gamma1_sq += delta * delta * d.pdf(p)
    coverage = 0.0
    for lo, hi in ms.intervals:
        coverage += d.cdf(hi) - d.cdf(lo)
    gamma2 = -kappa * (1.0 - coverage)
    lambda_sq = 0.0
    for lo, hi in ms.intervals:
        lambda_sq += integrate_1d(
            lambda x: (kappa - x) * (kappa - x) * d.pdf(x), lo, hi, cfg)
    gamma = gamma1_sq + 2.0 * nu * gamma2
    record = SoftMoments(nu=nu, kappa=kappa, gamma1_sq=gamma1_sq, gamma2=gamma2,
                         lambda_sq=lambda_sq, gamma=gamma)
    return SoftNumber(gamma, lambda_sq), record
