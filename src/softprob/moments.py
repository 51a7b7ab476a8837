"""Mixed point/interval sets, the soft sum over them, and soft moments.

Conditioning a continuous variable on a MixedSet keeps two kinds of mass:
density at isolated points (soft axis) and classical probability on open
intervals (real axis). Every soft quantity over a MixedSet is built the
same way, and soft_sum builds it: an array term kernel is summed over the
points and integrated over the intervals. The expectation therefore
returns nu*0~ + kappa, and the variance propagates the soft expectation
through the square using the nilpotent rule, which is where the gamma
components below come from. The entropies in the information module are
kernels over the same helper.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .distributions import ContinuousDistribution
from .errors import (DomainError, Record, distinct_points, finite_float, is_number,
                     open_interval, sequence)
from .quadrature import QuadratureConfig, integrate_pieces, sample_1d
from .quadrature import integrate_1d  # noqa: F401  (perfbench/tracer.py wraps this name)
from .softnum import SoftNumber


class MixedSet(Record):
    """Disjoint union of isolated points and open intervals.

    Canonical form: points ascending, intervals sorted by left endpoint.
    Construction validates disjointness: intervals may not overlap each
    other, and no point may lie strictly inside an interval. A point at an
    open endpoint is allowed; the interval does not contain it.

    The set is stored as three read-only float arrays: point_array, the
    points in order, and lo and hi, the ends of the intervals in order.
    `points` and `intervals` read them back as tuples. _from_canonical
    stores arrays that are already in canonical form without the checks;
    its one caller is tree.build_mixed_sets, whose merge produces that form.
    Equality, hash and repr go by the points and intervals.
    """

    def __init__(self, points: Sequence[float] = (),
                 intervals: Sequence[Sequence[float]] = ()):
        pts = distinct_points(points, "point")
        ivs = sorted(open_interval(iv, "interval")
                     for iv in sequence(intervals, "intervals", "(lo, hi) pairs"))
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
        self._store(np.array(pts, dtype=float), np.array([lo for lo, _ in ivs], dtype=float),
                    np.array([hi for _, hi in ivs], dtype=float))

    @classmethod
    def _from_canonical(cls, points: np.ndarray, lo: np.ndarray, hi: np.ndarray
                        ) -> "MixedSet":
        """The set of float arrays already in canonical form, which it does not check."""
        ms = object.__new__(cls)
        ms._store(points, lo, hi)
        return ms

    def _store(self, points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
        for values in (points, lo, hi):
            values.flags.writeable = False
        self._store_fields(point_array=points, lo=lo, hi=hi)

    @property
    def points(self) -> tuple[float, ...]:
        return tuple(self.point_array.tolist())

    @property
    def intervals(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.lo.tolist(), self.hi.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MixedSet):
            return NotImplemented
        return self.points == other.points and self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash((self.points, self.intervals))

    def __repr__(self) -> str:
        return f"MixedSet(points={self.points!r}, intervals={self.intervals!r})"

    @classmethod
    def with_closed_intervals(cls, points: Sequence[float] = (),
                              closed_intervals: Sequence[Sequence[float]] = ()) -> "MixedSet":
        """Normalize closed intervals: interiors stay intervals, endpoints become points.

        The points are a union: a listed point may repeat or equal an end.
        """
        ivs = [open_interval(iv, "interval")
               for iv in sequence(closed_intervals, "intervals", "(lo, hi) pairs")]
        pts = {finite_float(p, "point") for p in sequence(points, "points", "numbers")}
        return cls(pts.union(*ivs), ivs)

    def pieces(self, breaks: Sequence[float]) -> list[tuple[float, float]]:
        """The intervals cut at the breaks strictly inside them, in interval order."""
        pieces = []
        for lo, hi in self.intervals:
            edges = [lo, *sorted({b for b in breaks if lo < b < hi}), hi]
            pieces += zip(edges, edges[1:])
        return pieces

    @property
    def is_empty(self) -> bool:
        return not (self.point_array.size or self.lo.size)

    def to_dict(self) -> dict:
        return {"points": self.point_array.tolist(),
                "intervals": [list(iv) for iv in self.intervals]}

    @classmethod
    def from_dict(cls, obj: dict) -> "MixedSet":
        if not isinstance(obj, dict):
            raise DomainError(f"mixed-set record must be an object, got {obj!r}")
        for key in obj:
            if key not in ("points", "intervals"):
                raise DomainError(f"mixed-set record has unknown field {key!r}")
        points = obj.get("points", [])
        intervals = obj.get("intervals", [])
        if not (isinstance(points, list) and all(map(is_number, points))):
            raise DomainError(f"mixed-set points must be a list of numbers, got {points!r}")
        if not (isinstance(intervals, list) and all(
                isinstance(iv, list) and len(iv) == 2 and all(map(is_number, iv))
                for iv in intervals)):
            raise DomainError(
                f"mixed-set intervals must be a list of [lo, hi] pairs, got {intervals!r}")
        return cls(points, intervals)


def soft_sum(d: ContinuousDistribution, term: Callable[[np.ndarray], np.ndarray],
             ms: MixedSet, quadrature: Optional[QuadratureConfig] = None
             ) -> tuple[float, float]:
    """(point_sum, interval_sum) of the array kernel term over ms.

    term(xs) returns the term at each of the points xs, usually a density
    of d times some function. point_sum adds it over ms.points, in order;
    interval_sum integrates it over every interval, all of them in one
    integrate_pieces run. Each interval is split, never clipped, at
    d.location and at the ends of d.truncated_range() (MixedSet.pieces),
    so that no panel straddles a narrow peak, the bulk of a wide interval
    or a jump at a support edge. A non-finite term is a DomainError that
    names its point.
    """
    point_sum = sum(sample_1d(term, ms.point_array).tolist(), 0.0)
    pieces = ms.pieces((d.location, *d.truncated_range()))
    return point_sum, integrate_pieces(term, pieces, quadrature)


class SoftMoments(Record):
    """Intermediate components of the soft variance.

    nu and kappa are the two components of the soft expectation. gamma1_sq
    collects squared point deviations, gamma2 is the signed first-order
    interval deviation sum (equal to -kappa*(1 - coverage)), lambda_sq is
    the second-order interval term, and gamma = gamma1_sq + 2*nu*gamma2 is
    the soft coefficient of the variance.
    """

    def __init__(self, nu: float, kappa: float, gamma1_sq: float, gamma2: float,
                 lambda_sq: float, gamma: float):
        self._store_fields(nu=nu, kappa=kappa, gamma1_sq=gamma1_sq, gamma2=gamma2,
                           lambda_sq=lambda_sq, gamma=gamma)


def soft_expectation_of(d: ContinuousDistribution, ms: MixedSet,
                        g: Callable[[np.ndarray], np.ndarray],
                        quadrature: Optional[QuadratureConfig] = None) -> SoftNumber:
    """Es[g(X) | X in ms] = (sum g(x_i)f(x_i))*0~ + sum of interval integrals of g*f.

    g takes an array of points and returns g at each of them.
    """
    nu, kappa = soft_sum(d, lambda xs: g(xs) * d.pdf_array(xs), ms, quadrature)
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
    expectation = soft_expectation(d, ms, quadrature)
    nu, kappa = expectation.soft, expectation.real

    def spread(xs: np.ndarray) -> np.ndarray:
        # delta*delta overflows to inf for |delta| > 1.3e154, where the
        # density is 0 and the term is 0; inf*0 would be NaN
        delta = kappa - xs
        return delta * (delta * d.pdf_array(xs))

    gamma1_sq, lambda_sq = soft_sum(d, spread, ms, quadrature)
    coverage = sum((d.mass(lo, hi) for lo, hi in ms.intervals), 0.0)
    gamma2 = -kappa * (1.0 - coverage)
    gamma = gamma1_sq + 2.0 * nu * gamma2
    record = SoftMoments(nu=nu, kappa=kappa, gamma1_sq=gamma1_sq, gamma2=gamma2,
                         lambda_sq=lambda_sq, gamma=gamma)
    return SoftNumber(gamma, lambda_sq), record
