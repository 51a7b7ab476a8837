"""Soft entropy, cross entropy, KL divergence, and mutual information.

Entropy over a MixedSet splits into three axes: the summed point density
rides the indeterminate 0log0~ axis, point terms f*log(f) ride the soft
axis, and interval integrals of f*log(f) stay real. Cross entropy keeps
the same shape, their difference (the KL divergence) has no 0log0~ part,
and mutual information pairs points with points and intervals with
intervals on a two-variable model. Every one of them is a term kernel
w*log(num/den) under one pointwise rule (_log_terms); the 1-D ones are
summed over points and intervals by moments.soft_sum. Mutual information
is the 2-D form, f_XY*log(f_XY/(f_X f_Y)), which reads only joint_pdf_array
and the marginals; soft_mutual_information picks its path once, from the
model, for both axes. A BivariateGaussianModel, whose log ratio is a
quadratic, sums its point pairs as a Gauss transform (_gaussian_pair_sum),
densely or, where a cost model finds it cheaper, by a one-level Chebyshev
interpolation of its kernel (_gauss_sums), and has its y-integral in
closed form (distributions._mi_y_integral); the real parts of
several Gaussian models against one y-set run together, as the runs of
one quadrature call (_gaussian_mutual_information, which the tree uses
for a node's candidates). Any other JointModel takes the generic path:
the pointwise terms summed over the point pairs, and integrated over the
y-intervals by quadrature.y_integral. Either way each real part is one
1-D run over the x-intervals.

All logarithms are taken in natural base internally; the final components
are rescaled by 1/ln(base) so that changing the base rescales every axis
by exactly the same factor.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .distributions import BivariateGaussianModel, ContinuousDistribution, JointModel, \
    _interval_ends, _mi_y_integral
from .errors import DomainError, Record, finite_float
from .moments import MixedSet, soft_sum
from .quadrature import BLOCK, DEFAULT_1D, QuadratureConfig, _integrate_runs, blocks, \
    integrate_pieces, sample_1d, y_integral
from .quadrature import integrate_1d  # noqa: F401  (perfbench/tracer.py wraps this name)
from .quadrature import integrate_2d  # noqa: F401  (perfbench/tracer.py wraps this name)
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


class InfoConfig(Record):
    """Options shared by the information-theoretic quantities.

    ``log_base`` rescales results (natural log by default). ``zlogz_mode``
    chooses whether entropy keeps its 0log0~ coefficient ("axis") or zeroes
    it ("collapse"). ``quadrature`` overrides the integration settings of
    every integral; None leaves integrate_pieces its default.
    """

    def __init__(self, log_base: float = math.e, zlogz_mode: str = ZLOGZ_AXIS,
                 quadrature: Optional[QuadratureConfig] = None):
        log_base = finite_float(log_base, "log_base")
        # a base in (0, 1) has ln(base) < 0 and would flip the sign of every result
        if not log_base > 1.0:
            raise DomainError(f"log_base must be greater than 1, got {log_base!r}")
        if zlogz_mode not in (ZLOGZ_AXIS, ZLOGZ_COLLAPSE):
            raise DomainError(f"unknown zlogz_mode {zlogz_mode!r}")
        if not (quadrature is None or isinstance(quadrature, QuadratureConfig)):
            raise DomainError(f"quadrature must be a QuadratureConfig or None, "
                              f"got {quadrature!r}")
        self._store_fields(log_base=log_base, zlogz_mode=zlogz_mode, quadrature=quadrature)

    @property
    def ln_base(self) -> float:
        return math.log(self.log_base)


_DEFAULT = InfoConfig()


def _log_terms(w: np.ndarray, num, den) -> np.ndarray:
    """w*log(num/den) elementwise: the pointwise rule of every term here.

    It is the one zero-density rule. Terms with weight below TINY_DENSITY
    are 0, whatever the densities, so a point where the density vanishes
    adds 0 on every axis. Ratios within UNIT_RATIO_TOLERANCE of one give
    exactly 0. A vanishing numerator or denominator under a weight that
    counts gives a non-finite term, and every sum of terms rejects one with
    a DomainError: the integrators and soft_sum name its point, the
    point-pair sum checks its total. Callers run it with numpy's
    floating-point warnings off, as the integrators do.
    """
    ratio = num / den
    keep = ~(w < TINY_DENSITY)
    keep &= ~(np.abs(ratio - 1.0) < UNIT_RATIO_TOLERANCE)
    terms = np.log(ratio, out=np.zeros_like(ratio), where=keep)
    terms *= w
    return terms


def _entropy_axes(d: ContinuousDistribution, ms: MixedSet, point_sum: float,
                  interval_sum: float, cfg: InfoConfig) -> ExtendedSoftNumber:
    """-(sum f(x_i))*0log0~ - point_sum*0~ - interval_sum, in cfg's log base."""
    lnb = cfg.ln_base
    h1 = 0.0
    if cfg.zlogz_mode == ZLOGZ_AXIS:
        density = sample_1d(d.pdf_array, ms.point_array)
        h1 = (0.0 - sum(density.tolist(), 0.0)) / lnb
    return ExtendedSoftNumber(h1, (0.0 - point_sum) / lnb, (0.0 - interval_sum) / lnb)


def soft_entropy(d: ContinuousDistribution, ms: MixedSet,
                 cfg: InfoConfig = _DEFAULT) -> ExtendedSoftNumber:
    """Hs[X | X in ms] = h1*0log0~ + h2*0~ + h3.

    h1 = -sum f(x_i), h2 = -sum f(x_i) log f(x_i), h3 = -sum of interval
    integrals of f log f. Where f is below TINY_DENSITY, at a listed point
    or inside an interval, the term is the limit of f log f as f -> 0,
    which is 0 (_log_terms).
    """
    def flogf(xs: np.ndarray) -> np.ndarray:
        f = d.pdf_array(xs)
        return _log_terms(f, f, 1.0)

    return _entropy_axes(d, ms, *soft_sum(d, flogf, ms, cfg.quadrature), cfg)


def soft_cross_entropy(d: ContinuousDistribution, d_hat: ContinuousDistribution,
                       ms: MixedSet, cfg: InfoConfig = _DEFAULT) -> ExtendedSoftNumber:
    """Hs[d, d_hat | ms]: entropy shape with log f replaced by log f_hat.

    The 0log0~ coefficient is the same -sum f(x_i) as in soft_entropy.
    Requires f_hat > 0 wherever f counts on the set.
    """
    def flogq(xs: np.ndarray) -> np.ndarray:
        return _log_terms(d.pdf_array(xs), d_hat.pdf_array(xs), 1.0)

    return _entropy_axes(d, ms, *soft_sum(d, flogq, ms, cfg.quadrature), cfg)


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

    soft, real = soft_sum(d, flogratio, ms, cfg.quadrature)
    lnb = cfg.ln_base
    return SoftNumber(soft / lnb, real / lnb)


_LOG_TINY = math.log(TINY_DENSITY)

# first-kind Chebyshev nodes per panel of the point-pair transform, their
# positions in [-1, 1] and their barycentric weights (_chebyshev_interpolate)
_PANEL_NODES = 20
_CHEB_ANGLES = (np.arange(_PANEL_NODES) + 0.5) * (math.pi / _PANEL_NODES)
_CHEB_NODES = np.cos(_CHEB_ANGLES)
# the nodes' positions in [0, 1], the unit panel
_CHEB_OFFSETS = 0.5 * (_CHEB_NODES + 1.0)
_CHEB_WEIGHTS = np.where(np.arange(_PANEL_NODES) % 2, -1.0, 1.0) * np.sin(_CHEB_ANGLES)
# the nodes and weights once a target, for a block of targets (blocks), so
# that the barycentric weights take long elementwise loops, not 20-long ones
_TILED_NODES, _TILED_WEIGHTS = (np.tile(a, BLOCK // _PANEL_NODES)
                                for a in (_CHEB_NODES, _CHEB_WEIGHTS))
# the farthest a target of the transform may lie from its nearest source
_SOURCE_REACH = 2.0


def _mi_terms(j: JointModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pointwise MI terms f_XY*log(f_XY/(f_X f_Y)) over the broadcast of x and y."""
    f = j._checked_pdf(x, y)
    return _log_terms(f, f, j.marginal_x.pdf_array(x) * j.marginal_y.pdf_array(y))


def _dense_gauss_sums(lead: np.ndarray, t: np.ndarray, w: np.ndarray,
                      v_powers: np.ndarray) -> np.ndarray:
    """G[i] = sum_k exp(e_ik) * v_powers[k], with e_ik = lead_i - (w_k - t_i)^2.

    Summed densely, one exp per pair and one matmul per block of rows
    (blocks). A weight below TINY_DENSITY counts as 0, as in the pointwise
    rule, judged as e < log(TINY_DENSITY). exp never sees such an e: an exp
    whose result is subnormal or 0 costs 10-100 times one whose is normal.
    """
    g = np.empty((len(t), v_powers.shape[1]))
    for block in blocks(len(t), len(w)):
        e = w - t[block, None]
        e *= e
        np.subtract(lead[block, None], e, out=e)
        if np.minimum.reduce(e, axis=None) < _LOG_TINY:
            tiny = e < _LOG_TINY
            weights = np.exp(np.maximum(e, _LOG_TINY, out=e), out=e)
            weights[tiny] = 0.0
        else:
            weights = np.exp(e, out=e)
        np.matmul(weights, v_powers, out=g[block])
    return g


def _node_gauss_sums(top: float, s: np.ndarray, w: np.ndarray,
                     v_powers: np.ndarray) -> np.ndarray:
    """K[j] = sum_k exp(top - (w_k - s_j)^2) * v_powers[k], the transform's
    kernel at the nodes s, blocked like _dense_gauss_sums.

    It has no TINY_DENSITY test: _gauss_sums admits only calls where no
    exponent here falls below log(TINY_DENSITY).
    """
    k = np.empty((len(s), v_powers.shape[1]))
    for block in blocks(len(s), len(w)):
        e = w - s[block, None]
        e *= e
        np.subtract(top, e, out=e)
        np.matmul(np.exp(e, out=e), v_powers, out=k[block])
    return k


def _within_reach(w: np.ndarray, t: np.ndarray) -> bool:
    """Whether every target t lies within _SOURCE_REACH of its nearest source.

    w holds the sources in ascending order, and t the targets sorted
    either way (_gaussian_pair_sum). The rule is stated as coverage by the
    sources: the targets lie in [w[0] - 2, w[-1] + 2] and outside every gap
    between neighbouring sources wider than 4, so a call whose sources
    leave no such gap costs one subtraction and one comparison. It takes
    the same differences, target minus source, as the nearest-source form
    min_k |t_i - w_k| <= 2 and admits exactly what that form admits: a gap
    whose rounded width is below 4 is below 4 exactly, so each of its
    targets is within 2 of one end, and the targets of the other gaps are
    checked against both ends of their gap.
    """
    lo, hi = (t[0], t[-1]) if t[0] <= t[-1] else (t[-1], t[0])
    if w[0] - lo > _SOURCE_REACH or hi - w[-1] > _SOURCE_REACH:
        return False
    wide = np.flatnonzero(w[1:] - w[:-1] >= 2.0 * _SOURCE_REACH)
    if not wide.size:
        return True
    left, right = w[wide], w[wide + 1]
    # the last wide gap starting at or below each target; a target below
    # the first one gets the last gap (index -1), which it lies left of
    k = np.searchsorted(left, t, side="right") - 1
    return not ((t - left[k] > _SOURCE_REACH) & (right[k] - t > _SOURCE_REACH)).any()


def _chebyshev_interpolate(kernel, t: np.ndarray, panels: int) -> np.ndarray:
    """The values kernel(t), interpolated from Chebyshev nodes on panels.

    The span of the targets t, in ascending or descending order, is cut
    into ``panels`` equal panels, each panel's targets one slice of t.
    kernel(nodes), an array of shape (len(nodes), m), is called once,
    at the _PANEL_NODES first-kind Chebyshev nodes of every panel, and each
    target takes the interpolant of its panel, by the barycentric formula
    with the weights (-1)^k sin((2k+1) pi / (2P)) (Berrut & Trefethen, SIAM
    Review 46, 2004, eq. 5.3). Targets are mapped to [-1, 1] within their
    panel, where no node is nearer 0 than sin(pi/(2P)), so a difference to
    a node is 0 or above 1e-17 and no weight overflows; a target on a node
    takes that node's value.

    Error bound (Trefethen, Approximation Theory and Approximation
    Practice, 2013, Thms 8.1 and 8.2): if a component of the kernel is
    analytic in the Bernstein ellipse E_r (r > 1) of a panel and at most
    M there, its interpolant on that panel is off by at most
    4 M r^(1 - P) / (r - 1), with P = _PANEL_NODES. ATAP states this for
    second-kind points; for first-kind points each coefficient of degree
    above P - 1 aliases onto at most one of degree below P, so the same
    argument gives the same bound. The barycentric sum adds rounding of at
    most about (3P + 4) * eps * Lambda times the largest node value
    (Higham, IMA J. Numer. Anal. 24, 2004), where the Lebesgue constant
    Lambda is below 2/pi*log(P) + 1 (2.9 at P = 20).
    """
    if t[0] > t[-1]:
        return _chebyshev_interpolate(kernel, t[::-1], panels)[::-1]
    lo, width = t[0], (t[-1] - t[0]) / panels
    nodes = lo + (np.arange(panels)[:, None] + _CHEB_OFFSETS) * width
    f = kernel(nodes.ravel()).reshape(panels, _PANEL_NODES, -1)
    # a column of ones carries the barycentric denominator through the same sum
    f = np.concatenate((f, np.ones((panels, _PANEL_NODES, 1))), axis=2)
    x = (t - lo) / width
    panel = np.minimum(x.astype(np.intp), panels - 1)
    s = 2.0 * (x - panel) - 1.0
    edges = np.searchsorted(panel, np.arange(panels + 1)).tolist()
    r = np.empty((len(t), f.shape[2]))
    with np.errstate(divide="ignore", invalid="ignore"):
        for block in blocks(len(t), _PANEL_NODES):
            start, stop, _ = block.indices(len(t))
            size = (stop - start) * _PANEL_NODES
            weights = np.repeat(s[start:stop], _PANEL_NODES)
            weights -= _TILED_NODES[:size]
            np.divide(_TILED_WEIGHTS[:size], weights, out=weights)
            weights = weights.reshape(-1, _PANEL_NODES)
            for p in range(panel[start], panel[stop - 1] + 1):
                a, b = max(edges[p], start), min(edges[p + 1], stop)
                np.matmul(weights[a - start:b - start], f[p], out=r[a:b])
    # a target on a node has an infinite weight there and takes the node's value
    on_node = np.flatnonzero(~np.isfinite(r[:, -1]))
    for i in on_node.tolist():
        r[i] = f[panel[i], np.argmin(np.abs(s[i] - _CHEB_NODES))]
    return r[:, :-1] / r[:, -1:]


def _gauss_sums(lead: np.ndarray, t: np.ndarray, w: np.ndarray,
                v_powers: np.ndarray) -> np.ndarray:
    """G[i] = sum_k exp(lead_i - (w_k - t_i)^2) * v_powers[k], the Gauss transform
    of the point-pair sum: by Chebyshev interpolation where that is cheaper
    and safe, densely (_dense_gauss_sums) otherwise.

    The transform writes G_i = exp(lead_i - L) * K(t_i), with L = max lead
    and the kernel K(s) = sum_k exp(L - (w_k - s)^2) * v_powers[k]. K is
    entire and varies on a scale of 1 in s, so _chebyshev_interpolate
    takes it from panels at most 1 wide over [min t, max t], with K
    evaluated densely at their nodes (_node_gauss_sums, blocked like the
    dense sum). w and t come sorted (_gaussian_pair_sum), so no rule below
    scans for an extreme. The transform is taken when all of these hold;
    each reads sizes and values the call already has, and there is no option:

    - It is cheaper. Timed against each other in the same second (timeit,
      2-core x86 host, 100 to 400 points a side, 1 to 12 panels, where
      the choice is close), the dense sum cost 1.4 us a call and 3.5 ns a
      pair; the transform 41 us a call, 0.6 us a panel, 3.3 ns a (node,
      source) pair and 8.2 ns a (target, node) pair. In units of one dense
      pair that is about P*(len(w) + 10) a panel, 2.4*P = 48 a target and
      12,000 a call more than the dense len(t)*len(w), which caps the
      panels; so one or two points a side take the dense sum before any
      numpy call. At 200 points a side the cap is 4 panels: the
      benchmark's calls of that size took 0.98 times the dense time on
      the transform at 4 panels and 1.13 times at 5.
    - No pair's weight falls below TINY_DENSITY, checked in O(n) as
      min_i(lead_i - max((max w - t_i)^2, (min w - t_i)^2)) >=
      log(TINY_DENSITY). So the transform sums exactly the pairs the
      dense rule sums. No node exponent L - (w_k - s)^2 falls below it
      either, so _node_gauss_sums has no TINY_DENSITY test: max_k
      (w_k - s)^2 is convex in s, so over the nodes it is largest at an
      end of [min t, max t], which is a target, and L is at least that
      target's lead.
    - No factor exp(lead_i - L) falls below TINY_DENSITY, so neither factor
      of a weight is subnormal. Factoring out L keeps the node values from
      underflowing where the dense weights do not, as exp(-(w - s)^2)
      alone would for lead > 0, that is sd_x*sd_y*sqrt(q) < 1/(2 pi).
    - No target lies farther than _SOURCE_REACH = 2 from its nearest
      source, checked as coverage by the sorted sources (_within_reach):
      the targets lie in [min w - 2, max w + 2] and outside every gap
      wider than 4 between neighbouring sources. One source's term
      exp(-(w - s)^2) grows like exp(a*x) over a panel, x in [-1, 1], with
      a = h*|w - c| for the panel's width h and centre c, and the
      interpolant of exp(a*x) is off by up to
      1.2e-15 (a = 2), 3.3e-15 (a = 2.5) or 5.6e-14 (a = 3) of its value,
      measured at 40,000 points. A target within 2 of a source has a <= 2.5
      for that source, and a source farther off weighs less by a Gaussian
      factor. Without this rule, 1,500 x points on (-3, 3) against 300 y
      points on (-6, -5.8) at rho = 0.97 came out 8.2e-10 of sum|terms|
      off the dense sum.

    Error bound: for r > 1, the bound of _chebyshev_interpolate holds on a
    panel of width h with M_j = exp((h (r - 1/r)/4)^2) *
    sum_k |v_k|^j exp(L - dist(w_k, S)^2), S the panel widened by
    h (r + 1/r)/4 on both sides, because |exp(-(w - s)^2)| =
    exp(-(w - Re s)^2 + (Im s)^2) on the ellipse. At h = 1 and r = 8 the
    bound is 1.9e-16 * M_j, with S 2.03 wider on each side, so
    interpolation adds about as much as rounding does where sources lie
    near the panel. The bound is relative to the kernel on S, not at t_i,
    which is why the reach rule above is needed.
    """
    n_t, n_s = len(t), len(w)
    # the cost model, in units of one dense pair: the transform costs
    # P*(n_s + 10) a panel, 48 a target and 12,000 a call more than the
    # dense n_t*n_s, so it is cheaper on at most max_panels panels
    max_panels = (n_t * n_s - 48 * n_t - 12_000) // (_PANEL_NODES * (n_s + 10))
    if max_panels > 0:
        top, span = lead.max(), abs(t[-1] - t[0])
        if 0.0 < span <= max_panels and lead.min() - top >= _LOG_TINY:
            far = np.maximum(np.square(w[-1] - t), np.square(w[0] - t))
            if _within_reach(w, t) and (lead - far).min() >= _LOG_TINY:
                g = _chebyshev_interpolate(lambda s: _node_gauss_sums(top, s, w, v_powers),
                                           t, math.ceil(span))
                g *= np.exp(lead - top)[:, None]
                return g
    return _dense_gauss_sums(lead, t, w, v_powers)


def _gaussian_pair_sum(j: BivariateGaussianModel, xs: np.ndarray, ys: np.ndarray) -> float:
    """The point-pair sum of a BivariateGaussianModel, as a Gauss transform.

    With u = (x - mean_x)/sd_x, v = (y - mean_y)/sd_y and q = 1 - rho^2,
    the weight f_X f_{Y|X} of the pair (x_i, y_k) is exp(e_ik), where
    e_ik = lead_i - (v_k - rho*u_i)^2/(2q) and lead_i = -u_i^2/2 -
    log(2 pi sd_x sd_y sqrt(q)). Its log ratio log(f_XY/(f_X f_Y)) is
    the quadratic c0 + c1*u^2 + c2*u*v + c1*v^2 with c0 = -log1p(-rho^2)/2,
    c1 = -rho^2/(2q) and c2 = rho/q. So the sum is
    sum_i (c0 + c1*u_i^2)*G_i0 + c2*u_i*G_i1 + c1*G_i2, where G = W V for
    the weights W and the columns 1, v, v^2 of V: a Gauss transform with
    those source weights (Greengard & Strain 1991); V is filled column by
    column, with v^2 as the correctly rounded v*v. _gauss_sums computes G
    by a one-level Chebyshev interpolation of its kernel in rho*u where its
    cost model finds that cheaper (about 12,000 dense pairs a call, 48 a
    target and P*(len(ys) + 10) a panel more), and densely, one exp per
    pair, where it is not. rho = 0 gives exactly 0. The points are sorted
    once (a MixedSet's already are), so that the transform reads v
    ascending and rho*u monotone; the sum does not depend on their order.

    A weight below TINY_DENSITY counts as 0, as in the pointwise rule. The
    weights are built in log space and f_X or f_Y is never evaluated at a
    point, so a point where a marginal density underflows adds 0 like any
    other pair of negligible weight. A point whose squared standardised
    value overflows makes the sum NaN, which soft_mutual_information
    rejects. The interpolation is taken only where no weight is that small
    and every target lies within 2 of a source, a reach checked as coverage
    by the sorted sources (_within_reach). Those rules also keep every
    weight at the interpolation nodes above TINY_DENSITY, so the node sums
    (_node_gauss_sums) run without that test.
    UNIT_RATIO_TOLERANCE does not apply, because no ratio is formed, so
    sums near independence keep the digits that the log of a ratio near 1
    loses.

    Error bound: with eps = 2^-52 and sum|terms| the sum of
    |w log(f_{Y|X}/f_Y)| over the pairs, the error is of order
    eps/q * sum|terms|. The weights carry the rounding of (v - rho*u)/sqrt(q),
    as the pointwise rule's densities do, and each row's combination
    cancels monomials up to about 1/q times its log ratio. The
    interpolation adds an error of the order of rounding (_gauss_sums).
    The tests hold the result to 1e-12 * sum|terms| of the pointwise
    rule's sum on random models with 0.01 <= |rho| <= 0.999
    (eps/q <= 1.2e-13) and 1 to 300 points a side, and the transform to
    the same bound of the dense sum with up to 2,000 points a side.
    """
    rho = j.rho
    if rho == 0.0 or not (len(xs) and len(ys)):
        return 0.0
    xs, ys = np.sort(xs), np.sort(ys)
    q = 1.0 - rho * rho
    sd_x, sd_y = math.sqrt(j.var_x), math.sqrt(j.var_y)
    u = (xs - j.mean_x) / sd_x
    v = (ys - j.mean_y) / sd_y
    # e = lead - (v_scaled - t)^2, with v and rho*u scaled by 1/sqrt(2q)
    scale = 1.0 / math.sqrt(2.0 * q)
    v_scaled, t = v * scale, (rho * scale) * u
    lead = -0.5 * u * u - math.log(2.0 * math.pi * sd_x * sd_y * math.sqrt(q))
    # the source columns 1, v, v^2; v*v is correctly rounded, v**2 goes through pow
    v_powers = np.empty((len(v), 3))
    v_powers[:, 0] = 1.0
    v_powers[:, 1] = v
    np.multiply(v, v, out=v_powers[:, 2])
    g = _gauss_sums(lead, t, v_scaled, v_powers)
    c0 = j._mi_log_term
    c1 = -0.5 * rho * rho / q
    terms = (c0 + c1 * u * u) * g[:, 0] + (rho / q * u) * g[:, 1] + c1 * g[:, 2]
    return float(np.add.reduce(terms))


def _gaussian_mutual_information(models: Sequence[BivariateGaussianModel],
                                 x_sets: Sequence[MixedSet], sy: MixedSet,
                                 cfg: InfoConfig = _DEFAULT) -> list[SoftNumber]:
    """soft_mutual_information of each model on its x-set against sy, to the bit.

    The point pairs of each model are its Gauss transform
    (_gaussian_pair_sum). The real parts share sy's y-intervals, so they
    run together, as the runs of one quadrature call (one run for one
    model), each reading the closed-form y-integral (_mi_y_integral) with
    its own model's parameters at its x nodes, a block of x nodes a call.
    An error is the one that soft_mutual_information on each model in turn
    raises first: a point-pair total that is not finite, or what a run
    raises.
    """
    softs, counts, pieces, params, failure = [], [], [], [], None
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for j, sx in zip(models, x_sets):
            soft = _gaussian_pair_sum(j, sx.point_array, sy.point_array)
            if not math.isfinite(soft):
                failure = DomainError(f"point-pair sum of mutual information is {soft!r}")
                break
            softs.append(soft)
            own = sx.pieces(j.marginal_x.truncated_range()) if sy.lo.size else []
            counts.append(len(own))
            pieces += own
            params.append(j._mi_params)
    reals = [0.0] * len(softs)
    if pieces:
        # a row per parameter, a column per model, for calls of several models
        by_model = np.array(params).T if len(params) > 1 else None
        y = _interval_ends(sy.lo, sy.hi)

        def y_integrand(xs: np.ndarray, run) -> np.ndarray:
            out = np.empty(len(xs))
            for block in blocks(len(xs), len(sy.lo)):
                # the parameters of the one run, or of each node's run
                p = params[run] if isinstance(run, int) else by_model[:, run[block]]
                out[block] = _mi_y_integral(p, xs[block], y)
            return out

        x_lo, x_hi = np.array(pieces, dtype=float).T
        reals = _integrate_runs(y_integrand, x_lo, x_hi, counts, cfg.quadrature or DEFAULT_1D)[0]
        for real in reals:
            if isinstance(real, Exception):
                raise real
    if failure is not None:
        raise failure
    lnb = cfg.ln_base
    return [SoftNumber(soft / lnb, real / lnb) for soft, real in zip(softs, reals)]


def soft_mutual_information(j: JointModel, sx: MixedSet, sy: MixedSet,
                            cfg: InfoConfig = _DEFAULT,
                            form: str = "symmetric") -> SoftNumber:
    """Is[Y; X] over mixed sets for X and Y.

    The soft coefficient sums the pointwise terms
    f_XY * log(f_XY / (f_X f_Y)) over every (x_i, y_j) pair; the real part
    integrates them over every (x-interval, y-interval) pair. Cross
    pairings of a point with an interval contribute nothing by definition.
    ``form`` may name either factorization, "symmetric" or "conditional";
    both give this one value, and any other name is a DomainError.

    The model picks the path of both axes. A BivariateGaussianModel sums
    its point pairs as a Gauss transform (_gaussian_pair_sum) and has the
    y-integral at each x in closed form (_mi_y_integral), a block of x nodes
    a call. Any other JointModel sums _mi_terms (of _checked_pdf) on grids
    of the points, a block of y points a grid, and integrates their columns
    over the y-intervals with y_integral under cfg.quadrature, each
    y-interval cut at the ends of marginal_y.truncated_range(). Every pair
    follows the pointwise rule of _log_terms: a pair whose weight is below
    TINY_DENSITY adds 0, whatever its marginal densities, and a point-pair
    total that is not finite is a DomainError. The real part is one
    integrate_pieces run, under cfg.quadrature, of that y-integral over all
    x-intervals, each cut at the ends of marginal_x.truncated_range().
    """
    if form not in ("symmetric", "conditional"):
        raise DomainError(f"unknown mutual-information form {form!r}")
    if isinstance(j, BivariateGaussianModel):
        return _gaussian_mutual_information([j], [sx], sy, cfg)[0]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        soft = 0.0
        xs, ys = sx.point_array, sy.point_array
        for block in blocks(len(ys), len(xs)):
            soft += float(_mi_terms(j, xs[None, :], ys[block, None]).sum())
        y_integrand = y_integral(lambda x, y: _mi_terms(j, x, y),
                                 sy.pieces(j.marginal_y.truncated_range()), cfg.quadrature)
    if not math.isfinite(soft):
        raise DomainError(f"point-pair sum of mutual information is {soft!r}")
    real = 0.0
    if sy.lo.size:
        real = integrate_pieces(y_integrand, sx.pieces(j.marginal_x.truncated_range()),
                                cfg.quadrature)
    lnb = cfg.ln_base
    return SoftNumber(soft / lnb, real / lnb)
