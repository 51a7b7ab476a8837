"""Soft entropy, cross entropy, KL divergence, and mutual information.

Entropy over a MixedSet splits into three axes: the summed point density
rides the indeterminate 0log0~ axis, point terms f*log(f) ride the soft
axis, and interval integrals of f*log(f) stay real. Cross entropy keeps
the same shape, their difference (the KL divergence) has no 0log0~ part,
and mutual information pairs points with points and intervals with
intervals on a two-variable model. Every one of them is a term kernel
w*log(num/den) under one pointwise rule (_log_terms); the 1-D ones are
summed over points and intervals by moments.soft_sum. The exception is
mutual information under a BivariateGaussianModel, whose log ratio is a
quadratic: its point pairs are summed as a dense Gauss transform
(_gaussian_pair_sum), and its y-integral has a closed form
(BivariateGaussianModel.mi_y_integral), so only x is integrated, in 1-D.
Any other JointModel takes the generic path: the pointwise terms summed
over the point pairs and integrated by 2-D quadrature over the rectangles.

All logarithms are taken in natural base internally; the final components
are rescaled by 1/ln(base) so that changing the base rescales every axis
by exactly the same factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import BivariateGaussianModel, ContinuousDistribution, JointModel
from .errors import DomainError
from .moments import MixedSet, soft_sum, split_at
from .quadrature import (DEFAULT_1D, DEFAULT_2D, QuadratureConfig, integrate_1d, integrate_2d,
                         sample_1d)
from .softnum import ExtendedSoftNumber, SoftNumber

# a term whose weight is below this density is taken at the limit of
# f*log(f) as f -> 0, which is 0
TINY_DENSITY = 1e-300

# density ratios within one part in 1e12 of exact 1 count as 1, so terms
# built from matching numerator and denominator cancel to exactly zero
# instead of leaving rounding noise that no quadrature tolerance can meet
UNIT_RATIO_TOLERANCE = 1e-12


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


def _log_terms(w: np.ndarray, num, den) -> np.ndarray:
    """w*log(num/den) elementwise: the pointwise rule of every term here.

    Terms with weight below TINY_DENSITY are 0, and ratios within
    UNIT_RATIO_TOLERANCE of one give exactly 0. A vanishing numerator or
    denominator under a weight that counts gives a non-finite term, and
    every sum of terms rejects one with a DomainError: the integrators and
    soft_sum name its point, the point-pair sum checks its total. Callers
    run it with numpy's floating-point warnings off, as the integrators do.
    """
    ratio = num / den
    keep = ~(w < TINY_DENSITY)
    keep &= ~(np.abs(ratio - 1.0) < UNIT_RATIO_TOLERANCE)
    terms = np.log(ratio, out=np.zeros_like(ratio), where=keep)
    terms *= w
    return terms


def _require_positive_density(d: ContinuousDistribution, points: np.ndarray, what: str) -> None:
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        f = d.pdf_array(points)
    bad = np.flatnonzero(~(f > 0.0))
    if bad.size:
        k = bad[0]
        raise DomainError(f"{what} is {float(f[k])!r} at point {float(points[k])!r}")


def _entropy_axes(d: ContinuousDistribution, ms: MixedSet, point_sum: float,
                  interval_sum: float, cfg: InfoConfig) -> ExtendedSoftNumber:
    """-(sum f(x_i))*0log0~ - point_sum*0~ - interval_sum, in cfg's log base."""
    lnb = cfg.ln_base
    h1 = 0.0
    if cfg.zlogz_mode == ZLOGZ_AXIS:
        density = sample_1d(d.pdf_array, np.array(ms.points, dtype=float))
        h1 = (0.0 - sum(density.tolist(), 0.0)) / lnb
    return ExtendedSoftNumber(h1, (0.0 - point_sum) / lnb, (0.0 - interval_sum) / lnb)


def soft_entropy(d: ContinuousDistribution, ms: MixedSet,
                 cfg: InfoConfig = _DEFAULT) -> ExtendedSoftNumber:
    """Hs[X | X in ms] = h1*0log0~ + h2*0~ + h3.

    h1 = -sum f(x_i), h2 = -sum f(x_i) log f(x_i), h3 = -sum of interval
    integrals of f log f. Zero density at a listed point is a domain error;
    inside intervals f -> 0 is handled by the limit f log f -> 0.
    """
    _require_positive_density(d, np.array(ms.points, dtype=float), "density")

    def flogf(xs: np.ndarray) -> np.ndarray:
        f = d.pdf_array(xs)
        return _log_terms(f, f, 1.0)

    return _entropy_axes(d, ms, *soft_sum(d, flogf, ms, cfg.quad_1d()), cfg)


def soft_cross_entropy(d: ContinuousDistribution, d_hat: ContinuousDistribution,
                       ms: MixedSet, cfg: InfoConfig = _DEFAULT) -> ExtendedSoftNumber:
    """Hs[d, d_hat | ms]: entropy shape with log f replaced by log f_hat.

    The 0log0~ coefficient is the same -sum f(x_i) as in soft_entropy.
    Requires f_hat > 0 wherever f counts on the set.
    """
    def flogq(xs: np.ndarray) -> np.ndarray:
        return _log_terms(d.pdf_array(xs), d_hat.pdf_array(xs), 1.0)

    return _entropy_axes(d, ms, *soft_sum(d, flogq, ms, cfg.quad_1d()), cfg)


def soft_kld(d: ContinuousDistribution, d_hat: ContinuousDistribution,
             ms: MixedSet, cfg: InfoConfig = _DEFAULT) -> SoftNumber:
    """Ds[d || d_hat | ms], a plain soft number with no 0log0~ part.

    Soft coefficient sums f log(f/f_hat) over points, real part integrates
    it over intervals. Identical d and d_hat give absolute zero exactly
    because every log ratio is log(1).
    """
    def flogratio(xs: np.ndarray) -> np.ndarray:
        f = d.pdf_array(xs)
        return _log_terms(f, f, d_hat.pdf_array(xs))

    soft, real = soft_sum(d, flogratio, ms, cfg.quad_1d())
    lnb = cfg.ln_base
    return SoftNumber(soft / lnb, real / lnb)


FORM_SYMMETRIC = "symmetric"
FORM_CONDITIONAL = "conditional"

# pairs per block of the point-pair sum: whole rows (of y for the pointwise
# terms, of x for the Gaussian transform) are taken until a block holds about
# this many pairs, so that each temporary array of a block (128 KiB at this
# size) stays in cache however many points there are
POINT_BLOCK_PAIRS = 1 << 14


def _mi_terms(j: JointModel, xs: np.ndarray, ys: np.ndarray, form: str) -> np.ndarray:
    """Pointwise MI terms w*log(num/den) on the grid [k, i] = (xs[i], ys[k])."""
    fx = j.marginal_x.pdf_array(xs)
    fy = j.marginal_y.pdf_array(ys)[:, None]
    if form == FORM_SYMMETRIC:
        w = num = j.joint_pdf_grid(xs, ys)
        den = fx * fy
    else:
        num = j.conditional_pdf_grid(ys, xs)
        w = num * fx
        den = fy
    return _log_terms(w, num, den)


def _gaussian_pair_sum(j: BivariateGaussianModel, xs: np.ndarray, ys: np.ndarray) -> float:
    """The point-pair sum of a BivariateGaussianModel, as a dense Gauss transform.

    With u = (x - mean_x)/sd_x, v = (y - mean_y)/sd_y and q = 1 - rho^2,
    the weight f_X f_{Y|X} of the pair (x_i, y_k) is exp(e_ik), where
    e_ik = lead_i - (v_k - rho*u_i)^2/(2q) and lead_i = -u_i^2/2 -
    log(2 pi sd_x sd_y sqrt(q)). Its log ratio, the same in both forms, is
    the quadratic c0 + c1*u^2 + c2*u*v + c1*v^2 with c0 = -log1p(-rho^2)/2,
    c1 = -rho^2/(2q) and c2 = rho/q. So the sum is
    sum_i (c0 + c1*u_i^2)*G_i0 + c2*u_i*G_i1 + c1*G_i2, where G = W V for
    the weights W and the columns 1, v, v^2 of V: a Gauss transform with
    those source weights (Greengard & Strain 1991), here summed densely,
    one exp per pair and one matmul per block of x rows. rho = 0 gives
    exactly 0.

    A weight below TINY_DENSITY counts as 0, as in the pointwise rule,
    judged as e < log(TINY_DENSITY). exp never sees such an e: an exp whose
    result is subnormal or 0 costs 10-100 times one whose result is
    normal. UNIT_RATIO_TOLERANCE does not apply, because no ratio is
    formed, so sums near independence keep the digits that the log of a
    ratio near 1 loses.

    Error bound: with eps = 2^-52 and sum|terms| the sum of
    |w log(f_{Y|X}/f_Y)| over the pairs, the error is of order
    eps/q * sum|terms|. The weights carry the rounding of (v - rho*u)/sqrt(q),
    as the pointwise rule's densities do, and each row's combination
    cancels monomials up to about 1/q times its log ratio. The tests hold
    the result to 1e-12 * sum|terms| of the pointwise rule's sum on random
    models with 0.01 <= |rho| <= 0.999 (eps/q <= 1.2e-13) and 1 to 300
    points a side.
    """
    rho = j.rho
    if rho == 0.0 or not (len(xs) and len(ys)):
        return 0.0
    q = 1.0 - rho * rho
    sd_x, sd_y = math.sqrt(j.var_x), math.sqrt(j.var_y)
    u = (xs - j.mean_x) / sd_x
    v = (ys - j.mean_y) / sd_y
    # e = lead - (v_scaled - t)^2, with v and rho*u scaled by 1/sqrt(2q)
    scale = 1.0 / math.sqrt(2.0 * q)
    v_scaled, t = v * scale, (rho * scale) * u
    lead = -0.5 * u * u - math.log(2.0 * math.pi * sd_x * sd_y * math.sqrt(q))
    v_powers = v[:, None] ** np.arange(3.0)
    log_tiny = math.log(TINY_DENSITY)
    rows = max(1, POINT_BLOCK_PAIRS // len(ys))
    g = np.empty((len(xs), 3))
    for start in range(0, len(xs), rows):
        block = slice(start, start + rows)
        e = v_scaled - t[block, None]
        e *= e
        np.subtract(lead[block, None], e, out=e)
        if e.min() < log_tiny:
            tiny = e < log_tiny
            w = np.exp(np.maximum(e, log_tiny, out=e), out=e)
            w[tiny] = 0.0
        else:
            w = np.exp(e, out=e)
        np.matmul(w, v_powers, out=g[block])
    c0 = -0.5 * math.log1p(-rho * rho)
    c1 = -0.5 * rho * rho / q
    terms = (c0 + c1 * u * u) * g[:, 0] + (rho / q * u) * g[:, 1] + c1 * g[:, 2]
    return float(terms.sum())


def _point_pair_sum(j: JointModel, xs: np.ndarray, ys: np.ndarray, form: str) -> float:
    """Sum of the pointwise MI terms over every (xs[i], ys[k]) pair.

    A marginal density that is not positive at a listed point is a
    DomainError, whatever the weight of its pairs. A BivariateGaussianModel
    sums its pairs as a Gauss transform (_gaussian_pair_sum); any other
    JointModel sums the _mi_terms grids block by block.
    """
    _require_positive_density(j.marginal_x, xs, "marginal density of X")
    _require_positive_density(j.marginal_y, ys, "marginal density of Y")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if isinstance(j, BivariateGaussianModel):
            total = _gaussian_pair_sum(j, xs, ys)
        else:
            total = 0.0
            rows = max(1, POINT_BLOCK_PAIRS // max(1, len(xs)))
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

    For a BivariateGaussianModel the soft coefficient is a Gauss transform
    of the point pairs (_gaussian_pair_sum), and the real part one 1-D integral per
    x-interval, under cfg.quad_1d(), of the model's closed-form y-integral
    over all y-intervals (mi_y_integral, which is the same function in
    both forms). Each x-interval is split at the ends of
    marginal_x.truncated_range() that lie inside it. Any other JointModel
    integrates the pointwise terms over each rectangle with integrate_2d.
    """
    if form not in (FORM_SYMMETRIC, FORM_CONDITIONAL):
        raise DomainError(f"unknown mutual-information form {form!r}")
    soft = _point_pair_sum(j, np.asarray(sx.points, dtype=float),
                           np.asarray(sy.points, dtype=float), form)
    real = 0.0
    if not isinstance(j, BivariateGaussianModel):
        for ylo, yhi in sy.intervals:
            for xlo, xhi in sx.intervals:
                real += integrate_2d(lambda xs, ys: _mi_terms(j, xs, ys, form),
                                     xlo, xhi, ylo, yhi, cfg.quad_2d())
    elif sy.intervals:
        y_lo, y_hi = (np.array(ends) for ends in zip(*sy.intervals))
        breaks = j.marginal_x.truncated_range()
        for lo, hi in sx.intervals:
            for a, b in split_at(lo, hi, breaks):
                real += integrate_1d(lambda xs: j.mi_y_integral(xs, y_lo, y_hi), a, b,
                                     cfg.quad_1d())
    lnb = cfg.ln_base
    return SoftNumber(soft / lnb, real / lnb)
