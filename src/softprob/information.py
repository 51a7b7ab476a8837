"""Soft entropy, cross entropy, KL divergence, and mutual information.

Entropy over a MixedSet splits into three axes: the summed point density
rides the indeterminate 0log0~ axis, point terms f*log(f) ride the soft
axis, and interval integrals of f*log(f) stay real. Cross entropy keeps
the same shape, their difference (the KL divergence) has no 0log0~ part,
and mutual information pairs points with points and intervals with
intervals on a two-variable model.

All logarithms are taken in natural base internally; the final components
are rescaled by 1/ln(base) so that changing the base rescales every axis
by exactly the same factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import ContinuousDistribution, JointModel
from .errors import DomainError
from .moments import MixedSet
from .quadrature import DEFAULT_1D, DEFAULT_2D, QuadratureConfig, integrate_1d, integrate_2d
from .softnum import ExtendedSoftNumber, SoftNumber

# below this density the f*log(f) integrand is taken at its limit, 0
TINY_DENSITY = 1e-300

# density ratios within one part in 1e12 of exact 1 count as 1, so terms
# built from matching numerator and denominator cancel to exactly zero
# instead of leaving rounding noise that no quadrature tolerance can meet
UNIT_RATIO_TOLERANCE = 1e-12


def _w_log_ratio(w: float, num: float, den: float) -> float:
    """w * log(num/den), with near-one ratios clamped to exactly one."""
    r = num / den
    if abs(r - 1.0) < UNIT_RATIO_TOLERANCE:
        return 0.0
    return w * math.log(r)

ZLOGZ_AXIS = "axis"
ZLOGZ_COLLAPSE = "collapse"


@dataclass(frozen=True)
class InfoConfig:
    """Options shared by the information-theoretic quantities.

    ``log_base`` rescales results (natural log by default). ``zlogz_mode``
    chooses whether entropy keeps its 0log0~ coefficient ("axis") or zeroes
    it ("collapse"). ``quadrature`` overrides the integration settings for
    both 1-D and 2-D integrals; None keeps the per-dimension defaults.
    """

    log_base: float = math.e
    zlogz_mode: str = ZLOGZ_AXIS
    quadrature: Optional[QuadratureConfig] = None

    def __post_init__(self):
        if not (math.isfinite(self.log_base) and self.log_base > 0.0
                and self.log_base != 1.0):
            raise DomainError(f"log_base must be positive and != 1, got {self.log_base!r}")
        if self.zlogz_mode not in (ZLOGZ_AXIS, ZLOGZ_COLLAPSE):
            raise DomainError(f"unknown zlogz_mode {self.zlogz_mode!r}")

    @property
    def ln_base(self) -> float:
        return math.log(self.log_base)

    def quad_1d(self) -> QuadratureConfig:
        return self.quadrature if self.quadrature is not None else DEFAULT_1D

    def quad_2d(self) -> QuadratureConfig:
        return self.quadrature if self.quadrature is not None else DEFAULT_2D


_DEFAULT = InfoConfig()


def _flogf(p: float) -> float:
    return 0.0 if p < TINY_DENSITY else p * math.log(p)


def soft_entropy(d: ContinuousDistribution, ms: MixedSet,
                 cfg: InfoConfig = _DEFAULT) -> ExtendedSoftNumber:
    """Hs[X | X in ms] = h1*0log0~ + h2*0~ + h3.

    h1 = -sum f(x_i), h2 = -sum f(x_i) log f(x_i), h3 = -sum of interval
    integrals of f log f. Zero density at a listed point is a domain error;
    inside intervals f -> 0 is handled by the limit f log f -> 0.
    """
    h1 = 0.0
    h2 = 0.0
    for p in ms.points:
        fp = d.pdf(p)
        if not fp > 0.0:
            raise DomainError(f"density is {fp!r} at point {p!r}, log undefined")
        h1 -= fp
        h2 -= fp * math.log(fp)
    h3 = 0.0
    quad = cfg.quad_1d()
    for lo, hi in ms.intervals:
        h3 -= integrate_1d(lambda t: _flogf(d.pdf(t)), lo, hi, quad)
    lnb = cfg.ln_base
    h1, h2, h3 = h1 / lnb, h2 / lnb, h3 / lnb
    if cfg.zlogz_mode == ZLOGZ_COLLAPSE:
        h1 = 0.0
    return ExtendedSoftNumber(h1, h2, h3)


def soft_cross_entropy(d: ContinuousDistribution, d_hat: ContinuousDistribution,
                       ms: MixedSet, cfg: InfoConfig = _DEFAULT) -> ExtendedSoftNumber:
    """Hs[d, d_hat | ms]: entropy shape with log f replaced by log f_hat.

    The 0log0~ coefficient is the same -sum f(x_i) as in soft_entropy.
    Requires f_hat > 0 wherever f > 0 on the set.
    """
    h1 = 0.0
    h2 = 0.0
    for p in ms.points:
        fp = d.pdf(p)
        h1 -= fp
        if fp > 0.0:
            qp = d_hat.pdf(p)
            if not qp > 0.0:
                raise DomainError(
                    f"reference density is {qp!r} at point {p!r} where f > 0")
            h2 -= fp * math.log(qp)
    h3 = 0.0
    quad = cfg.quad_1d()

    def integrand(t: float) -> float:
        fp = d.pdf(t)
        if fp < TINY_DENSITY:
            return 0.0
        qp = d_hat.pdf(t)
        if qp < TINY_DENSITY:
            raise DomainError(
                f"reference density vanishes at {t!r} where f = {fp!r}")
        return fp * math.log(qp)

    for lo, hi in ms.intervals:
        h3 -= integrate_1d(integrand, lo, hi, quad)
    lnb = cfg.ln_base
    h1, h2, h3 = h1 / lnb, h2 / lnb, h3 / lnb
    if cfg.zlogz_mode == ZLOGZ_COLLAPSE:
        h1 = 0.0
    return ExtendedSoftNumber(h1, h2, h3)


def soft_kld(d: ContinuousDistribution, d_hat: ContinuousDistribution,
             ms: MixedSet, cfg: InfoConfig = _DEFAULT) -> SoftNumber:
    """Ds[d || d_hat | ms], a plain soft number with no 0log0~ part.

    Soft coefficient sums f log(f/f_hat) over points, real part integrates
    it over intervals. Identical d and d_hat give absolute zero exactly
    because every log ratio is log(1).
    """
    soft = 0.0
    for p in ms.points:
        fp = d.pdf(p)
        if fp > 0.0:
            qp = d_hat.pdf(p)
            if not qp > 0.0:
                raise DomainError(
                    f"reference density is {qp!r} at point {p!r} where f > 0")
            soft += _w_log_ratio(fp, fp, qp)
    quad = cfg.quad_1d()

    def integrand(t: float) -> float:
        fp = d.pdf(t)
        if fp < TINY_DENSITY:
            return 0.0
        qp = d_hat.pdf(t)
        if qp < TINY_DENSITY:
            raise DomainError(
                f"reference density vanishes at {t!r} where f = {fp!r}")
        return _w_log_ratio(fp, fp, qp)

    real = 0.0
    for lo, hi in ms.intervals:
        real += integrate_1d(integrand, lo, hi, quad)
    lnb = cfg.ln_base
    return SoftNumber(soft / lnb, real / lnb)


FORM_SYMMETRIC = "symmetric"
FORM_CONDITIONAL = "conditional"

# pairs per block of the point-pair sum: whole rows of y are taken until a
# block holds about this many pairs, so that each temporary array of a
# block (128 KiB at this size) stays in cache however many points there are
POINT_BLOCK_PAIRS = 1 << 14


def _require_positive_density(d: ContinuousDistribution, points: np.ndarray, axis: str) -> None:
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        f = d.pdf_array(points)
    bad = np.flatnonzero(~(f > 0.0))
    if bad.size:
        k = bad[0]
        raise DomainError(f"marginal density of {axis} is {float(f[k])!r} "
                          f"at point {float(points[k])!r}")


def _mi_terms(j: JointModel, xs: np.ndarray, ys: np.ndarray, form: str) -> np.ndarray:
    """Pointwise MI terms w*log(num/den) on the grid [k, i] = (xs[i], ys[k]).

    Terms with weight below TINY_DENSITY are 0, and ratios within
    UNIT_RATIO_TOLERANCE of one give exactly 0, as in _w_log_ratio. A
    vanishing denominator under a weight that counts gives an infinite term.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        fx = j.marginal_x.pdf_array(xs)
        fy = j.marginal_y.pdf_array(ys)[:, None]
        if form == FORM_SYMMETRIC:
            w = num = j.joint_pdf_grid(xs, ys)
            den = fx * fy
        else:
            num = j.conditional_pdf_grid(ys, xs)
            w = num * fx
            den = fy
        ratio = num / den
        keep = ~(w < TINY_DENSITY)
        keep &= ~(np.abs(ratio - 1.0) < UNIT_RATIO_TOLERANCE)
        terms = np.log(ratio, out=np.zeros_like(ratio), where=keep)
        terms *= w
    return terms


def _point_pair_sum(j: JointModel, xs: np.ndarray, ys: np.ndarray, form: str) -> float:
    """Sum of the pointwise MI terms over every (xs[i], ys[k]) pair.

    A marginal density that is not positive at a listed point is a
    DomainError, whatever the weight of its pairs.
    """
    _require_positive_density(j.marginal_x, xs, "X")
    _require_positive_density(j.marginal_y, ys, "Y")
    rows = max(1, POINT_BLOCK_PAIRS // max(1, len(xs)))
    total = 0.0
    for start in range(0, len(ys), rows):
        total += float(_mi_terms(j, xs, ys[start:start + rows], form).sum())
    if not math.isfinite(total):
        raise DomainError(f"point-pair sum of mutual information is {total!r}")
    return total


def soft_mutual_information(j: JointModel, sx: MixedSet, sy: MixedSet,
                            cfg: InfoConfig = _DEFAULT,
                            form: str = FORM_SYMMETRIC) -> SoftNumber:
    """Is[Y; X] over mixed sets for X and Y.

    The soft coefficient sums the pointwise terms over every (x_i, y_j)
    pair; the real part integrates over every (x-interval, y-interval)
    pair. Cross pairings of a point with an interval contribute nothing by
    definition. The ``symmetric`` form evaluates
    f_XY * log(f_XY / (f_X f_Y)); the ``conditional`` form evaluates the
    algebraically equal factorization f_{Y|X} f_X * log(f_{Y|X} / f_Y).
    """
    if form not in (FORM_SYMMETRIC, FORM_CONDITIONAL):
        raise DomainError(f"unknown mutual-information form {form!r}")
    soft = _point_pair_sum(j, np.asarray(sx.points, dtype=float),
                           np.asarray(sy.points, dtype=float), form)
    real = 0.0
    quad = cfg.quad_2d()
    for ylo, yhi in sy.intervals:
        for xlo, xhi in sx.intervals:
            real += integrate_2d(lambda xs, ys: _mi_terms(j, xs, ys, form),
                                 xlo, xhi, ylo, yhi, quad)
    lnb = cfg.ln_base
    return SoftNumber(soft / lnb, real / lnb)
