"""Continuous distributions and bivariate joint models.

The abstract bases deliberately expose a small surface (pdf, cdf, support
plus location/scale hints for truncating improper integrals; joint_pdf and
the marginals of a joint model). The Gaussian
joint model overrides every generic quadrature path with closed forms, and
adds one more: mi_y_integral, the y-integral of the mutual-information
terms in truncated-normal moments (_mi_y_integral, whose parameters may
differ from node to node, so that one call serves several models). The
generic paths remain available for user-supplied models: the joint cdf
is a 1-D run over x of the x-partial, whose generic column is
quadrature.y_integral of the joint density, and soft mutual information
integrates the pointwise terms over y at each x node the same way.

Densities at many points come from pdf_array and joint_pdf_array, which
work elementwise over the broadcast of their arguments: the grid is
joint_pdf_array(xs[None, :], ys[:, None]). Their defaults, the only Python
loops over points, call the scalar methods point by point; the Gaussian
models write each density once, as a numpy broadcast whose scalar methods
are views at one point, and take every cdf and interval mass from one
upper-tail function (_upper_tail).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, finite_float, open_interval, record_numbers
from .quadrature import integrate_1d, y_integral
from .quadrature import integrate_2d  # noqa: F401  (perfbench/tracer.py wraps this name)

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
_FLOAT_MAX = float(np.finfo(float).max)
# exp(-t*t/2) and erfc(t/sqrt(2)) are exactly 0 in double precision beyond this t
_PHI_ZERO = 40.0

# span of location +/- TRUNC_SCALES * scale bounds every improper integral
TRUNC_SCALES = 10.0


class ContinuousDistribution(ABC):
    """A real-valued random variable given by density and distribution function."""

    @abstractmethod
    def pdf(self, x: float) -> float: ...

    @abstractmethod
    def cdf(self, x: float) -> float: ...

    def pdf_array(self, xs: np.ndarray) -> np.ndarray:
        """Density at each of the points xs, an array of any shape."""
        xs = np.asarray(xs, dtype=float)
        return np.array([self.pdf(x) for x in xs.ravel().tolist()], dtype=float).reshape(xs.shape)

    def mass(self, lo: float, hi: float) -> float:
        """P(lo < X < hi) for lo <= hi."""
        return self.cdf(hi) - self.cdf(lo)

    @property
    @abstractmethod
    def support(self) -> tuple[float, float]: ...

    def _finite_support(self) -> tuple[float, float]:
        """The support, which must be finite for the default location and scale.

        On an infinite support no default could know where the mass lies,
        so a subclass there defines location and scale itself.
        """
        lo, hi = self.support
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError(f"support {(lo, hi)!r} is infinite, so "
                              f"{type(self).__name__} must define location and scale")
        return lo, hi

    @property
    def location(self) -> float:
        lo, hi = self._finite_support()
        # halving first keeps the midpoint of any finite support finite
        return 0.5 * lo + 0.5 * hi

    @property
    def scale(self) -> float:
        """(hi - lo) / sqrt(12), from the halved ends."""
        lo, hi = self._finite_support()
        return (0.5 * hi - 0.5 * lo) / math.sqrt(3.0)

    def truncated_range(self) -> tuple[float, float]:
        """Finite integration window: support clipped to +/-10 scales."""
        lo, hi = self.support
        lo = max(lo, self.location - TRUNC_SCALES * self.scale)
        hi = min(hi, self.location + TRUNC_SCALES * self.scale)
        return lo, hi


def _window_below(d: ContinuousDistribution, u: float) -> Optional[tuple[float, float]]:
    """The window of every clipped run: d.truncated_range() below u, or None if empty."""
    lo, hi = d.truncated_range()
    return None if min(u, hi) <= lo else (lo, min(u, hi))


def _at(f: Callable[..., np.ndarray], *point: float) -> float:
    """The elementwise array function f at one point, without numpy's warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(f(*(np.array([v], dtype=float) for v in point))[0])


def _upper_tail(t: np.ndarray) -> np.ndarray:
    """1 - Phi(t) elementwise, from math.erfc so that it keeps its digits far out."""
    tails = np.fromiter(map(math.erfc, (t / _SQRT2).ravel().tolist()), float, t.size)
    return 0.5 * tails.reshape(t.shape)


def _std_mass(t: np.ndarray) -> np.ndarray:
    """Phi(b) - Phi(a) for stacked ends t = (a, b), a <= b, each tail read on its own side."""
    a, b = t
    q_a, q_b = _upper_tail(np.abs(t))
    return np.where(a >= 0.0, q_a - q_b, np.where(b <= 0.0, q_b - q_a, (1.0 - q_a) - q_b))


class Gaussian(ContinuousDistribution):
    """Normal distribution with the given mean and variance."""

    def __init__(self, mean: float, variance: float):
        self.mean = finite_float(mean, "mean")
        self.variance = finite_float(variance, "variance")
        if self.variance <= 0.0:
            raise DomainError(f"variance must be positive, got {self.variance!r}")
        self.sigma = math.sqrt(self.variance)

    def pdf(self, x: float) -> float:
        return _at(self.pdf_array, x)

    def pdf_array(self, xs: np.ndarray) -> np.ndarray:
        z = (xs - self.mean) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * _SQRT2PI)

    def cdf(self, x: float) -> float:
        return _at(_upper_tail, (self.mean - x) / self.sigma)

    def mass(self, lo: float, hi: float) -> float:
        return _at(lambda *ends: _std_mass((np.array(ends) - self.mean) / self.sigma), lo, hi)

    @property
    def support(self) -> tuple[float, float]:
        return (-math.inf, math.inf)

    @property
    def location(self) -> float:
        return self.mean

    @property
    def scale(self) -> float:
        return self.sigma

    def __repr__(self) -> str:
        return f"Gaussian(mean={self.mean!r}, variance={self.variance!r})"


class Uniform(ContinuousDistribution):
    """Uniform distribution on the open interval (lo, hi); pdf is 0 at the endpoints.

    The width and the distance x - lo are taken between the ends scaled by
    1/8: an eighth of any finite width is finite and has a normal
    reciprocal (the width is below 2^1025), so the widest supports keep the
    digits of their cdf. Scaling by a power of two is exact for normal
    floats, so an ordinary support gets the bits of 1/(hi - lo) and
    (x - lo)/(hi - lo). A support so narrow that the reciprocal overflows
    is a DomainError.
    """

    def __init__(self, lo: float, hi: float):
        self.lo, self.hi = open_interval((lo, hi), "uniform support")
        eighth = 0.125 * self.hi - 0.125 * self.lo
        # an eighth of a subnormal width may round to 0
        self._inv_eighth = 1.0 / eighth if eighth > 0.0 else math.inf
        if not math.isfinite(self._inv_eighth):
            raise DomainError(f"uniform support ({self.lo!r}, {self.hi!r}) is too narrow: "
                              "its density overflows")
        self._density = 0.125 * self._inv_eighth

    def pdf(self, x: float) -> float:
        return self._density if self.lo < x < self.hi else 0.0

    def cdf(self, x: float) -> float:
        if x <= self.lo:
            return 0.0
        if x >= self.hi:
            return 1.0
        return (0.125 * x - 0.125 * self.lo) * self._inv_eighth

    @property
    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def __repr__(self) -> str:
        return f"Uniform(lo={self.lo!r}, hi={self.hi!r})"


def _as_float(value) -> float:
    """float(value), or NaN where value is not a number a float holds."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def _density(value, what: str, name: str, point) -> float:
    """The value a caller's density returned at point, a finite float >= 0, or a DomainError."""
    density = _as_float(value)
    if not 0.0 <= density < math.inf:
        raise DomainError(
            f"{what} must be a finite number >= 0, got {value!r} at {name}={point!r}")
    return density


class UserDefinedDistribution(ContinuousDistribution):
    """Wrap caller-supplied pdf and cdf callables.

    On an infinite support, location and scale are required: they place
    the truncated_range() window that every improper integral uses, and
    no default could know where the mass lies. A pdf value must be a
    finite number >= 0 and a cdf value a number in [0, 1]; anything else
    is a DomainError naming x.
    """

    def __init__(self, pdf: Callable[[float], float], cdf: Callable[[float], float],
                 support: tuple[float, float] = (-math.inf, math.inf),
                 location: Optional[float] = None, scale: Optional[float] = None):
        lo, hi = (finite_float(end, "support end", allow_inf=True) for end in support)
        if not lo < hi:
            raise DomainError(f"support must satisfy lo < hi, got {support!r}")
        if not (math.isfinite(lo) and math.isfinite(hi)) and (location is None or scale is None):
            raise DomainError(
                f"support {support!r} is infinite, so location and scale are required")
        self._pdf = pdf
        self._cdf = cdf
        self._support = (lo, hi)
        self._location = None if location is None else finite_float(location, "location")
        self._scale = None if scale is None else finite_float(scale, "scale")
        if self._scale is not None and not self._scale > 0.0:
            raise DomainError(f"scale must be positive, got {self._scale!r}")

    def pdf(self, x: float) -> float:
        return _density(self._pdf(x), "pdf", "x", x)

    def cdf(self, x: float) -> float:
        value = self._cdf(x)
        p = _as_float(value)
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"cdf must be a number in [0, 1], got {value!r} at x={x!r}")
        return p

    @property
    def support(self) -> tuple[float, float]:
        return self._support

    @property
    def location(self) -> float:
        if self._location is not None:
            return self._location
        return super().location

    @property
    def scale(self) -> float:
        if self._scale is not None:
            return self._scale
        return super().scale


class JointModel(ABC):
    """Bivariate model (X, Y): joint density plus both marginals.

    A model writes joint_pdf and the marginals. The cdf and its partial
    derivatives default to adaptive quadrature of joint_pdf_array over
    truncated ranges. joint_cdf runs over x the hook _cdf_partial_x_array,
    which cdf_partial_x views at one point; a subclass with closed forms
    overrides that hook. softprob reads every joint density by _checked_pdf.
    """

    @abstractmethod
    def joint_pdf(self, x: float, y: float) -> float: ...

    @property
    @abstractmethod
    def marginal_x(self) -> ContinuousDistribution: ...

    @property
    @abstractmethod
    def marginal_y(self) -> ContinuousDistribution: ...

    def joint_pdf_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Joint density at each pair of the broadcast of x and y; by default
        joint_pdf pair by pair, each value checked by _density."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        pairs = zip(x.ravel().tolist(), y.ravel().tolist())
        return np.array([_density(self.joint_pdf(*p), "joint_pdf", "(x, y)", p) for p in pairs],
                        dtype=float).reshape(x.shape)

    def _checked_pdf(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """joint_pdf_array(x, y), the one read of a joint density in softprob: a
        result not of the broadcast shape, or a value that _density rejects, is
        a DomainError, naming the first bad (x, y)."""
        density = np.asarray(self.joint_pdf_array(x, y), dtype=float)
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        if density.shape != shape:
            raise DomainError(f"joint_pdf_array returned shape {density.shape}, expected {shape}")
        bad = ~((density >= 0.0) & (density < math.inf))
        if bad.any():
            k = tuple(np.argwhere(bad)[0])
            point = tuple(float(np.broadcast_to(v, shape)[k]) for v in (x, y))
            _density(float(density[k]), "joint_pdf", "(x, y)", point)
        return density

    def joint_cdf(self, x: float, y: float) -> float:
        """P(X <= x, Y <= y): the integral of cdf_partial_x(t, y) for t <= x, in one 1-D run."""
        window = _window_below(self.marginal_x, x)
        if window is None:
            return 0.0
        return integrate_1d(lambda xs: self._cdf_partial_x_array(xs, y), *window)

    def _cdf_partial_x_array(self, xs: np.ndarray, y: float) -> np.ndarray:
        """cdf_partial_x at each x of xs: y_integral columns of the joint density, 0 below y_lo."""
        window = _window_below(self.marginal_y, y)
        return y_integral(self._checked_pdf, [] if window is None else [window])(xs)

    def cdf_partial_x(self, x: float, y: float) -> float:
        """d/dx of the joint cdf: integral of joint_pdf(x, t) for t <= y."""
        return _at(lambda xs: self._cdf_partial_x_array(xs, y), x)

    def cdf_partial_y(self, x: float, y: float) -> float:
        """d/dy of the joint cdf: integral of joint_pdf(t, y) for t <= x."""
        window = _window_below(self.marginal_x, x)
        if window is None:
            return 0.0
        return integrate_1d(lambda ts: self._checked_pdf(ts, np.array([y])), *window)


class BivariateGaussianModel(JointModel):
    """Jointly Gaussian (X, Y) with correlation rho, |rho| < 1."""

    def __init__(self, mean_x: float, mean_y: float, var_x: float, var_y: float,
                 correlation: float):
        self.mean_x = finite_float(mean_x, "mean_x")
        self.mean_y = finite_float(mean_y, "mean_y")
        self.var_x = var_x = finite_float(var_x, "var_x")
        self.var_y = var_y = finite_float(var_y, "var_y")
        self.rho = finite_float(correlation, "correlation")
        if var_x <= 0.0 or var_y <= 0.0:
            raise DomainError(f"variances must be positive, got ({var_x!r}, {var_y!r})")
        if not abs(self.rho) < 1.0:
            raise DomainError(f"|correlation| must be < 1, got {self.rho!r}")
        self._mx = Gaussian(self.mean_x, var_x)
        self._my = Gaussian(self.mean_y, var_y)
        # Y given X, and X given Y for cdf_partial_y
        self._cond_var = var_y * (1.0 - self.rho * self.rho)
        self._cond_sd = math.sqrt(self._cond_var)
        self._cond_slope = self.rho * math.sqrt(var_y / var_x)
        self._x_cond_sd = math.sqrt(var_x * (1.0 - self.rho * self.rho))
        self._x_cond_slope = self.rho * math.sqrt(var_x / var_y)
        self._mi_log_term = -0.5 * math.log1p(-self.rho * self.rho)
        # what _mi_y_integral reads of the model, in its order
        self._mi_params = (self.mean_x, self._mx.sigma, self._mx.sigma * _SQRT2PI, self.mean_y,
                           self._cond_slope, self._cond_sd, self._mi_log_term, 2.0 * var_y,
                           0.5 * self.rho * self.rho, self._cond_sd / var_y)
        if not (math.isfinite(self._cond_slope) and self._cond_var > 0.0
                and math.isfinite(self._x_cond_slope) and self._x_cond_sd > 0.0):
            raise DomainError(
                f"variances ({var_x!r}, {var_y!r}) are too far apart for a conditional model")

    def _cond_mean(self, x: float) -> float:
        return self.mean_y + self._cond_slope * (x - self.mean_x)

    @property
    def marginal_x(self) -> ContinuousDistribution:
        return self._mx

    @property
    def marginal_y(self) -> ContinuousDistribution:
        return self._my

    def joint_pdf(self, x: float, y: float) -> float:
        return _at(self.joint_pdf_array, x, y)

    def conditional_pdf(self, y: float, given_x: float) -> float:
        """Density of Y at y conditioned on X = given_x."""
        return _at(self._conditional_pdf_array, y, given_x)

    def joint_pdf_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        density = self._conditional_pdf_array(y, x)
        density *= self._mx.pdf_array(x)
        return density

    def _conditional_pdf_array(self, y: np.ndarray, given_x: np.ndarray) -> np.ndarray:
        # evaluated in place on one temporary of the broadcast shape
        z = np.asarray(y - self._cond_mean(given_x), dtype=float)
        z *= -0.5 * z
        z /= self._cond_var
        np.exp(z, out=z)
        z /= math.sqrt(2.0 * math.pi * self._cond_var)
        return z

    def conditional_cdf(self, y: float, given_x: float) -> float:
        return _at(_upper_tail, (self._cond_mean(given_x) - y) / self._cond_sd)

    def _cdf_partial_x_array(self, xs: np.ndarray, y: float) -> np.ndarray:
        return self._mx.pdf_array(xs) * _upper_tail((self._cond_mean(xs) - y) / self._cond_sd)

    def cdf_partial_y(self, x: float, y: float) -> float:
        # by symmetry, condition X on Y = y
        cond_mean = self.mean_x + self._x_cond_slope * (y - self.mean_y)
        return self._my.pdf(y) * _at(_upper_tail, (cond_mean - x) / self._x_cond_sd)

    def mi_y_integral(self, xs: np.ndarray, y_lo: np.ndarray, y_hi: np.ndarray
                      ) -> np.ndarray:
        """f_X(x) * sum_k of the integral of f_{Y|X} log(f_{Y|X} / f_Y) over (y_lo[k], y_hi[k]).

        The closed form of _mi_y_integral, on this model's parameters.
        """
        return _mi_y_integral(self._mi_params, xs, _interval_ends(y_lo, y_hi))

    def joint_cdf(self, x: float, y: float) -> float:
        if self.rho == 0.0:
            return self._mx.cdf(x) * self._my.cdf(y)
        return super().joint_cdf(x, y)

    def __repr__(self) -> str:
        return (f"BivariateGaussianModel(mean_x={self.mean_x!r}, mean_y={self.mean_y!r}, "
                f"var_x={self.var_x!r}, var_y={self.var_y!r}, correlation={self.rho!r})")


def _interval_ends(y_lo: np.ndarray, y_hi: np.ndarray) -> tuple[np.ndarray, ...]:
    """What _mi_y_integral reads of the y-intervals: their ends, stacked to
    shape (2, k, 1), and the sum and difference of their halved ends."""
    ends = np.concatenate((y_lo, y_hi)).reshape(2, -1, 1)
    half_lo, half_hi = 0.5 * ends
    return ends, half_lo + half_hi, half_hi - half_lo


def _mi_y_integral(params, xs: np.ndarray, y: tuple[np.ndarray, ...]) -> np.ndarray:
    """BivariateGaussianModel.mi_y_integral at the nodes xs, for the y-intervals y
    of _interval_ends.

    params are a model's _mi_params, each a number or an array like xs that
    gives each node its model's value, so that one call serves the nodes
    of several models. The log ratio is a quadratic in y, so each
    y-integral is a sum of truncated-normal moments (Tallis 1961). With s
    the conditional sd, m(x) the conditional mean, delta = m - mean_y,
    a = (lo - m)/s and b = (hi - m)/s:
        P  = Phi(b) - Phi(a),  M1 = phi(a) - phi(b),
        M2 = P + a*phi(a) - b*phi(b),
        inner = (-log1p(-rho^2)/2 + delta^2/(2 var_y))*P - (rho^2/2)*M2
                + (s/var_y)*delta*M1.
    P comes from the tails on the side of each end, M1 from the end
    nearer 0 times an expm1 of (a + b)/2 and (b - a)/2 taken straight
    from the ends, and a*phi(a) is 0 where phi(a) is, so that tails,
    tiny rho and ends near the float limit keep their digits. rho = 0
    gives exactly 0, and so does an x where f_X(x) is 0. This is exact
    arithmetic on the model, not the pointwise w*log(num/den) rule of
    the information module: neither TINY_DENSITY nor
    UNIT_RATIO_TOLERANCE applies here. Every operation is elementwise, so
    a node's value does not depend on the other nodes of the call.
    """
    mean_x, sd_x, pdf_scale, mean_y, slope, s, log_term, two_var_y, half_rho_sq, s_var_y = params
    ends, ends_sum, ends_width = y
    dx = xs - mean_x
    delta = slope * dx
    m = mean_y + delta
    # beyond +/-PHI_ZERO sds phi and both tails are exactly 0, so clipping
    # there changes none of them and keeps t*phi(t) finite
    a, b = t = np.minimum(np.maximum((ends - m) / s, -_PHI_ZERO), _PHI_ZERO)
    phi_a, phi_b = np.exp(-0.5 * t * t) / _SQRT2PI
    mass = _std_mass(t)
    half_sum = (ends_sum - m) / s
    # an infinite width in sds is kept finite, so that half_sum = 0 gives 0, not inf*0
    half_width = np.minimum(ends_width / s, _FLOAT_MAX)
    # |M1| = phi(near) * (1 - exp(-2 * half_width * |half_sum|)), as phi(far) =
    # phi(near) * exp(-2 * half_width * |half_sum|), and M1 has the sign of a + b
    m1 = np.maximum(phi_a, phi_b) * np.expm1(-2.0 * (half_width * np.abs(half_sum)))
    m1 = np.copysign(m1, half_sum)
    m2 = mass + (a * phi_a - b * phi_b)
    inner = (log_term + delta * delta / two_var_y) * mass - half_rho_sq * m2 + s_var_y * delta * m1
    # each x adds its intervals in order; sum(axis=0) goes pairwise for one x alone
    total = np.add.accumulate(inner, axis=0)[-1] if len(inner) else 0.0
    # f_X, as Gaussian.pdf_array gives it
    z = dx / sd_x
    fx = np.exp(-0.5 * z * z) / pdf_scale
    return np.where(fx > 0.0, fx * total, 0.0)


def joint_gaussian_additive(signal: Gaussian, noise: Gaussian) -> BivariateGaussianModel:
    """Model of (X, Y) for Y = X + W with X ~ signal and independent W ~ noise.

    Y is Gaussian with mean_x + mean_w and variance var_x + var_w, and the
    correlation between X and Y is sigma_x / sigma_y.
    """
    var_y = signal.variance + noise.variance
    rho = signal.sigma / math.sqrt(var_y)
    return BivariateGaussianModel(signal.mean, signal.mean + noise.mean,
                                  signal.variance, var_y, rho)


def parse_distribution(obj: dict) -> ContinuousDistribution:
    """Build a distribution from a descriptor like {"kind": "gaussian", ...}."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DomainError(f"distribution descriptor must be an object with a 'kind': {obj!r}")
    kind = obj["kind"]
    if kind == "gaussian":
        return Gaussian(*record_numbers(obj, ("mean", "variance"), f"descriptor for {kind!r}"))
    if kind == "uniform":
        return Uniform(*record_numbers(obj, ("lo", "hi"), f"descriptor for {kind!r}"))
    raise DomainError(f"unknown distribution kind {kind!r}")


def _parse_gaussian_params(obj: dict, role: str) -> Gaussian:
    mean, variance = record_numbers(obj, ("mean", "variance"), f"{role} descriptor")
    if obj.get("kind", "gaussian") != "gaussian":
        raise DomainError(f"{role} must be gaussian, got kind {obj['kind']!r}")
    return Gaussian(mean, variance)


def parse_joint(obj: dict) -> JointModel:
    """Build a joint model from a descriptor."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DomainError(f"joint descriptor must be an object with a 'kind': {obj!r}")
    kind = obj["kind"]
    if kind == "joint_gaussian_additive":
        try:
            signal = _parse_gaussian_params(obj["input"], "input")
            noise = _parse_gaussian_params(obj["noise"], "noise")
        except KeyError as exc:
            raise DomainError(f"joint descriptor is missing field {exc}") from exc
        return joint_gaussian_additive(signal, noise)
    if kind == "bivariate_gaussian":
        return BivariateGaussianModel(*record_numbers(
            obj, ("mean_x", "mean_y", "var_x", "var_y", "correlation"), "joint descriptor"))
    raise DomainError(f"unknown joint model kind {kind!r}")
